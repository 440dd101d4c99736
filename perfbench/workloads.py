"""The benchmark's three workloads: seeded inputs, one op at a time, checked answers.

Each workload builds its op list from ``--seed`` alone, runs a set-up of one
untimed warm-up op per distinct (field, n), and exposes ``run(op)`` (the timed
part) and ``check(op, result)`` (raises WrongAnswer).  A refusal by the
library is not a wrong answer: it raises out of ``run`` and counts as a
failed op.

Import this module only after ``src`` is on ``sys.path``: it loads the
library at import time.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from dihedralcodes import codes, gf, wedderburn
from dihedralcodes.errors import DihedralCodesError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS_PATH = HERE / "digests.json"

# q above which the library refuses every distance computation.
DISTANCE_Q_LIMIT = 4096


class WrongAnswer(Exception):
    """A completed op returned something other than the reference answer."""


class OverBudget(Exception):
    """The op ran past its workload's time budget and was interrupted."""


class Refused(Exception):
    """A CLI command exited with status 2: a named refusal."""


# Exceptions by which the library (or a CLI child) refuses an input.
REFUSALS = (DihedralCodesError, ValueError, ZeroDivisionError, IndexError, KeyError, Refused)


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple
    known_defect: bool = False


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.cache
def recorded(section: str) -> dict[str, str]:
    """Reference sha256 digests, recorded by record_digests.py."""
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))[section]


def code_json_bytes(code) -> bytes:
    return json.dumps(code.to_json(), sort_keys=True, separators=(",", ":")).encode()


def paper_parameters(n: int, family: str) -> tuple[int, int, int]:
    """(length, k, d) the paper proves for a family; all three are MDS."""
    if family == codes.FAMILY_2N_MINUS_2:
        return (2 * n, 2 * n - 2, 3)
    return (2 * n, 2 * n - 3, 4)


# ---------------------------------------------------------------------------
# families: the paper's three constructions over a fixed (field, n) grid

# (field, n, run every coprime twist index every pass, as `sweep` does).  At
# the two n = 21 points an op takes 2-5 s, so there the seed picks, per
# family, s = 1 or the largest coprime s.
FAMILY_GRID = (
    ("p=61", 15, True),
    ("p=211", 21, False),
    ("p=1009", 9, True),
    ("p=13;mod=[2,0,1]", 21, False),
    ("p=2147483647", 9, True),
)


# Times each op of a grid point runs per pass.  The 12 ops at (61, 15) hold
# the median; with one sample each, a few slow ones moved it by 20%.
FAMILY_REPEATS = {("p=61", 15): 2}


def family_label(field: str, n: int, family: str, s: int) -> str:
    return f"{field}|n={n}|{family}|s={s}"


def coprime_twists(n: int) -> list[int]:
    """Every twist index 1 <= s <= (n-1)/2 with gcd(s, n) = 1."""
    return [s for s in range(1, (n - 1) // 2 + 1) if math.gcd(s, n) == 1]


def family_twists(n: int, every: bool) -> list[int]:
    """All coprime twists, or only s = 1 and the largest coprime s."""
    twists = coprime_twists(n)
    return twists if every else [twists[0], twists[-1]]


class Families:
    """construct_code + min_distance("dual") per op, checked against the paper.

    A pass has every family at every grid point: with every coprime twist
    at the three cheap points, and with one twist per family, picked by the
    seed, at the two n = 21 points (36 ops), and the (61, 15) ops twice
    (48 ops).  Runs of different seeds thus do the same amount of work.
    The seed also shuffles the order.
    """

    name = "families"
    budget_s = 60.0
    # Op timings scaled by the reference kernel (calibrate.py).
    speed_scaled = True
    # Seconds one slice pass (half of the op list) takes at the seed.
    pass_s = 17.0

    def __init__(self, seed: int):
        rng = random.Random(f"families:{seed}")
        self.fields = {field: gf.parse_field_spec(field) for field, _, _ in FAMILY_GRID}
        ops = []
        for field, n, every in FAMILY_GRID:
            for family in codes.FAMILIES:
                twists = family_twists(n, every)
                for s in twists if every else [rng.choice(twists)]:
                    ops += [self.op(field, n, family, s)] * FAMILY_REPEATS.get((field, n), 1)
        # Known defects first, so that the slices ops[i::k] hold a fixed
        # number of them and ok_frac does not depend on timing.
        defects = [op for op in ops if op.known_defect]
        others = [op for op in ops if not op.known_defect]
        rng.shuffle(defects)
        rng.shuffle(others)
        self.ops = defects + others
        self.warmups = [self.op(field, n, codes.FAMILY_2N_MINUS_2, 1) for field, n, _ in FAMILY_GRID]

    def slice(self, i: int, k: int) -> list[Op]:
        return self.ops[i::k]

    def op(self, field: str, n: int, family: str, s: int) -> Op:
        known = self.fields[field].q > DISTANCE_Q_LIMIT
        return Op(family_label(field, n, family, s), (field, n, family, s), known)

    def run(self, op: Op):
        field, n, family, s = op.args
        code = codes.construct_code(self.fields[field], n, codes.CodeFamily(tag=family, s=s))
        return code, code.min_distance("dual")

    def check(self, op: Op, result) -> None:
        code, d = result
        _, n, family, _ = op.args
        got = (code.length, code.k, d, code.is_mds("dual"))
        want = paper_parameters(n, family) + (True,)
        if got != want:
            raise WrongAnswer(f"(length, k, d, mds) = {got}, paper says {want}")
        if sha256(code_json_bytes(code)) != recorded("families").get(op.label):
            raise WrongAnswer("code JSON differs from the recorded bytes")


# ---------------------------------------------------------------------------
# oracle: random left ideals, exhaustive and dual engines cross-checked

ORACLE_PAIRS = (
    ("p=13", 3),
    ("p=5;mod=[2,0,1]", 3),
    ("p=31", 5),
    ("p=41", 5),
    ("p=29", 7),
    ("p=43", 7),
)
# The [22,3,20] code on which the dual engine takes about 25 s.
SLOW_PAIR = ("p=67", 11)
EXHAUSTIVE_CAP = 10**6
# Independent specs per choice of summand kinds (doubled at n = 7).
DRAWS = 3
BOTH = ("exhaustive", "dual")

_POS0 = {"full": 2, "zero": 0, "plus": 1, "minus": 1}
_BLOCK = {"full": 4, "zero": 0, "row": 2}
_PIECES = {
    "full": wedderburn.full,
    "zero": wedderburn.zero,
    "plus": wedderburn.plus_piece,
    "minus": wedderburn.minus_piece,
}


def _kinds_by_dim(n: int) -> dict[int, list[tuple[str, ...]]]:
    out: dict[int, list[tuple[str, ...]]] = {}
    for first in _POS0:
        for blocks in itertools.product(_BLOCK, repeat=(n - 1) // 2):
            dim = _POS0[first] + sum(_BLOCK[b] for b in blocks)
            out.setdefault(dim, []).append((first,) + blocks)
    return out


class Oracle:
    """code_from_ideal_spec -> LinearCode -> exhaustive and dual distance.

    Specs come from the benchmark's own seeded generator over the public
    full/zero/row/plus_piece/minus_piece pieces: for each acceptance pair and
    each dimension d with q^d - 1 <= 10^6, DRAWS specs for every choice of
    summand kinds with that dimension, twice as many at n = 7 (321 in all).
    The n = 7 specs, where the dual engine does most work, are doubled so
    that the median op lies inside their cluster of latencies, not on the
    edge between it and the cheaper n <= 5 specs.  The seed draws the row
    parameters and the order.  Fixing the kinds keeps the work per run the
    same across seeds; the row parameters still change the distance, and
    with it the dual engine's work, so every kind gets several independent
    draws and a run measures each spec once rather than a few specs
    repeatedly.  Every slice ends with the fixed known-slow spec.  Slices
    are cut to equal sizes, so ok_frac does not depend on timing.
    """

    name = "oracle"
    speed_scaled = True
    # Normal ops take at most about 0.2 s; the known-slow dual search about 25 s.
    budget_s = 1.0
    pass_s = 9.5

    def __init__(self, seed: int):
        rng = random.Random(f"oracle:{seed}")
        pairs = ORACLE_PAIRS + (SLOW_PAIR,)
        self.fields = {field: gf.parse_field_spec(field) for field, _ in pairs}
        self.ops = []
        for field, n in ORACLE_PAIRS:
            ctx = self.fields[field]
            for dim, kinds in sorted(_kinds_by_dim(n).items()):
                if dim == 0 or ctx.q**dim - 1 > EXHAUSTIVE_CAP:
                    continue
                for choice in kinds * (DRAWS * 2 if n == 7 else DRAWS):
                    self.ops.append(self._op(field, n, choice, rng))
        rng.shuffle(self.ops)
        field, n = SLOW_PAIR
        ctx = self.fields[field]
        slow = wedderburn.IdealSpec(
            (wedderburn.plus_piece(), wedderburn.row(ctx.element(1), ctx.element(5)))
            + tuple(wedderburn.zero() for _ in range((n - 1) // 2 - 1))
        )
        self.slow = Op(f"{field}|n={n}|plus,row(1,5),zero...", (field, n, slow, 3, BOTH), True)
        # Warm-up: exhaustive search only, so no warm-up can run into the
        # unbounded dual search at n = 11.
        self.warmups = []
        for field, n in pairs:
            spec = wedderburn.IdealSpec(
                (wedderburn.full(),) + tuple(wedderburn.zero() for _ in range((n - 1) // 2))
            )
            self.warmups.append(Op(f"{field}|n={n}|warm-up", (field, n, spec, 2, ("exhaustive",))))

    def slice(self, i: int, k: int) -> list[Op]:
        return self.ops[: len(self.ops) - len(self.ops) % k][i::k] + [self.slow]

    def _op(self, field: str, n: int, kinds: tuple[str, ...], rng: random.Random) -> Op:
        ctx = self.fields[field]
        summands = [_PIECES[kinds[0]]()]
        for kind in kinds[1:]:
            if kind == "row":
                x, y = 0, 0
                while x == 0 and y == 0:
                    x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
                summands.append(wedderburn.row(ctx.from_index(x), ctx.from_index(y)))
            else:
                summands.append(_PIECES[kind]())
        spec = wedderburn.IdealSpec(tuple(summands))
        dim = _POS0[kinds[0]] + sum(_BLOCK[k] for k in kinds[1:])
        return Op(f"{field}|n={n}|{','.join(kinds)}", (field, n, spec, dim, BOTH))

    def run(self, op: Op):
        field, n, spec, _, engines = op.args
        code = codes.LinearCode(wedderburn.code_from_ideal_spec(self.fields[field], n, spec))
        return code, [code.min_distance(engine) for engine in engines]

    def check(self, op: Op, result) -> None:
        code, distances = result
        _, n, _, dim, engines = op.args
        if (code.length, code.k) != (2 * n, dim):
            raise WrongAnswer(f"[length, k] = [{code.length}, {code.k}], spec says [{2 * n}, {dim}]")
        if len(set(distances)) != 1:
            raise WrongAnswer(f"engines {engines} disagree: d = {distances}")
        if not 1 <= distances[0] <= code.singleton_bound:
            raise WrongAnswer(f"d = {distances[0]} outside [1, {code.singleton_bound}]")


# ---------------------------------------------------------------------------
# cli: fresh `python -m dihedralcodes.cli` processes, one at a time

ROUND_TRIP = ("p=43", 7)
TWISTS_43_7 = (1, 2, 3)


@dataclass(frozen=True)
class CliResult:
    stdout: bytes
    out_file: bytes | None
    maxrss_kb: int


def cli_ops(family: str, s: int) -> list[Op]:
    field, n = ROUND_TRIP
    tag = f"{field}|n={n}|{family}|s={s}"
    construct = (
        "construct", "--field", field, "--n", str(n), "--family", family,
        "--s", str(s), "--out", "code.json",
    )
    return [
        Op("example", ("example",)),
        Op(f"construct|{tag}", construct),
        Op(f"analyze|{tag}", ("analyze", "--in", "code.json")),
        Op("sweep|p=43|n=7", ("sweep", "--field", "p=43", "--n", "7")),
        Op("sweep|p=331|n=5", ("sweep", "--field", "p=331", "--n", "5")),
        # q = 4099 > 4096: refused with exit status 2 by the seed library.
        Op("sweep|p=4099|n=3", ("sweep", "--field", "p=4099;mod=[0,1]", "--n", "3"), True),
    ]


def check_sweep_text(text: str, field: str, n: int) -> None:
    """Every row of a text-format sweep is ok and has the paper's parameters."""
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith(f"sweep field={field}"):
        raise WrongAnswer("sweep output lacks its header")
    rows = [line.split() for line in lines[2:]]
    twists = [s for s in range(1, (n - 1) // 2 + 1) if math.gcd(s, n) == 1]
    if len(rows) != 3 * len(twists):
        raise WrongAnswer(f"sweep printed {len(rows)} rows, expected {3 * len(twists)}")
    for cells in rows:
        family = cells[0]
        want = [str(v) for v in paper_parameters(n, family)] + ["yes", "ok"]
        if family not in codes.FAMILIES or cells[2:] != want:
            raise WrongAnswer(f"sweep row {' '.join(cells)!r}")


class Cli:
    """The CLI commands a user runs, each in a fresh interpreter.

    The seed picks the family and twist of the construct -> analyze round
    trip at (43, 7).  Every process builds its own field tables, so this
    workload pays cold-start costs the in-process workloads pay once.
    """

    name = "cli"
    budget_s = 60.0
    # Not scaled: the ops are child-process start-up and imports, which an
    # in-process kernel tracks poorly (correlation about 0.5 over 13 s
    # windows); scaling widened the spread of op_p50_ms from 0.09 to 0.15.
    speed_scaled = False
    # Seconds one pass over the whole command list takes at the seed.  With
    # --seconds 20 that makes 7 passes, which puts the tail percentile (the
    # 11th slowest of 35 ok samples) in the middle of the 7 sweep (43, 7)
    # samples, not on the edge of that cluster.
    pass_s = 2.8

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"cli:{seed}")
        self.ops = cli_ops(rng.choice(codes.FAMILIES), rng.choice(TWISTS_43_7))
        warm = {"example", "sweep|p=43|n=7", "sweep|p=331|n=5", "sweep|p=4099|n=3"}
        self.warmups = [op for op in self.ops if op.label in warm]
        self.workdir = workdir
        self.trace_files: list[Path] = []
        self.traced = False
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.env = env

    def slice(self, i: int, k: int) -> list[Op]:
        """Every worker runs whole passes: the round trip cannot be split."""
        return self.ops

    def command(self, op: Op) -> list[str]:
        if not self.traced:
            return [sys.executable, "-m", "dihedralcodes.cli", *op.args]
        trace_file = self.workdir / f"trace-{len(self.trace_files)}.json"
        self.trace_files.append(trace_file)
        # The launcher measures start-up from this instant (CLOCK_MONOTONIC
        # is shared by all processes).
        return [sys.executable, str(HERE / "launch.py"), str(trace_file),
                repr(time.monotonic()), *op.args]

    def run(self, op: Op) -> CliResult:
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        code_path = self.workdir / "code.json"
        if op.args[0] == "construct" and code_path.exists():
            code_path.unlink()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                self.command(op), cwd=self.workdir, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == 2:
            raise Refused(err_path.read_text(errors="replace").strip())
        if proc.returncode != 0:
            raise RuntimeError(f"exit status {proc.returncode}: "
                               + err_path.read_text(errors="replace").strip()[-300:])
        out_file = code_path.read_bytes() if op.args[0] == "construct" else None
        return CliResult(out_path.read_bytes(), out_file, usage.ru_maxrss)

    def check(self, op: Op, result: CliResult) -> None:
        if op.args[0] == "sweep":
            check_sweep_text(result.stdout.decode(), op.args[2], int(op.args[4]))
        digests = recorded("cli")
        if op.label not in digests:
            if op.args[0] != "sweep":
                raise WrongAnswer("no recorded output to compare with")
        elif sha256(result.stdout) != digests[op.label]:
            raise WrongAnswer("stdout differs from the recorded bytes")
        if result.out_file is not None and sha256(result.out_file) != digests.get(op.label + "|file"):
            raise WrongAnswer("written code JSON differs from the recorded bytes")
