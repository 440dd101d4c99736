"""Pinned CLI checks: what CI runs, and the scale bench.

    python3 scripts/checks.py           # every CI row once; exit 1 on the first mismatch
    python3 scripts/checks.py --pr N    # every bench row REPEATS times; writes BENCH_<N>.json

A row is a name, the commands it runs in turn in one fresh temporary
directory, and whether CI, the bench or both run it.  Each command is
``python -m dihedralcodes.cli ...`` (or ``python -c`` on a snippet that
writes an input file), run with ``PYTHONPATH`` set to this checkout's
``src`` and no bytecode written, under its own timeout, and its pins are
checked after every run:

- ``status``: the exit status (0 unless given);
- ``stderr``: ``{regex: count}``, the number of stderr lines each regex
  matches, as ``grep -c`` counts them;
- ``stdout``: the sha256 of stdout;
- ``lines`` and ``grep``: stdout's line count and ``{regex: count}``;
- ``files``: ``{name: sha256}`` of files the command wrote;
- ``rss_mb``: a bound on the command's own peak RSS.

A run that passes its timeout is killed with its whole process group.
The first broken pin stops the run with exit 1 and names the row, the
command and the check.

With ``--pr N`` each bench row runs REPEATS times, one run at a time, and
``BENCH_<N>.json`` records for each command its argv, exit status, the
median wall time and all REPEATS walls, the largest peak RSS of that
child alone (``ru_maxrss`` from ``os.wait4``), the sha256 of its stdout
and of every file it wrote, and whether every run gave the same status
and digests (``runs_agree``).  Compare median times only between files
written in one session.  The bench rows take about seven minutes on a
2-core container, and the (2^31-1, 2317) pair needs about 3 GB of memory
and 0.7 GB of disk.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# runs of each bench row; one run cannot tell a change in speed from the
# container's own swings, which reached 2x on one sweep
REPEATS = 3

CI, BENCH = frozenset({"ci"}), frozenset({"bench"})
BOTH = CI | BENCH

OK = " yes  ok$"  # a sweep row whose code is MDS and agrees with the paper
REFUSED = "BadOrder$"  # a sweep row whose family is refused for beta's order

GF2003_2 = "p=2003;mod=[1,0,1]"
GF7_3 = "p=7;mod=[1,1,0,1]"
GF3_7 = "p=3;mod=[1,0,2,0,0,0,0,1]"


PINS = {"status", "stderr", "stdout", "lines", "grep", "files", "rss_mb"}


def command(argv, timeout=60, **pins) -> dict:
    """python argv, run under timeout seconds, and its pins."""
    if not pins.keys() <= PINS:
        raise TypeError(f"unknown pins: {sorted(pins.keys() - PINS)}")
    return {"argv": argv, "timeout": timeout, **pins}


def cli(*argv, **kw) -> dict:
    return command(["-m", "dihedralcodes.cli", *argv], **kw)


def py(code, **kw) -> dict:
    return command(["-c", code], **kw)


def analyze(path, *options, d=None, mds=None, **kw) -> dict:
    """analyze --in path, its "d" and "mds" lines pinned when given."""
    grep = {} if d is None else {f'^  "d": {d},$': 1}
    if mds is not None:
        grep[f'^  "mds": {str(mds).lower()}$'] = 1
    return cli("analyze", "--in", path, *options, grep=grep, **kw)


def construct(field, n, family, *options, out="code.json", **kw) -> dict:
    return cli("construct", "--field", field, "--n", str(n), "--family", family, *options, "--out", out, **kw)


def wedderburn(field, n, check, **kw) -> dict:
    """wedderburn --check, its "result: PASS" line pinned."""
    return cli("wedderburn", "--field", field, "--n", str(n), "--check", str(check),
               grep={"^result: PASS$": 1}, **kw)


def sweep_row(field, n, runs=CI, **pins) -> tuple:
    return f"sweep {field} n={n}", runs, [cli("sweep", "--field", field, "--n", str(n), **pins)]


def pinned(field, n, family, out, digest, *options) -> list:
    """A construct, its file pinned, and the analyze that reads it back as MDS."""
    return [construct(field, n, family, *options, out=out, files={out: digest}), analyze(out, mds=True)]


def refused(family, beta, error) -> dict:
    """A construct at (607, 101), s = 7, that exits 2 naming its error."""
    return cli("construct", "--field", "p=607", "--n", "101", "--family", family, "--s", "7", "--beta", beta,
               status=2, stderr={rf"^error\[{error}\]": 1})


ENGINES = ("exhaustive", "dual")

# construct's stdout for the (6007, 1001) documents, plain and paper-style
WROTE_6007 = "268bfdc1a783c23ad2daf2c2eac507ba6e1a545da8232f02f1de70e83c5ae067"

ROWS = [
    ("construct, analyze p=3011 n=301", CI,
     [construct("p=3011", 301, "2n-3-plus", timeout=120), analyze("code.json", d=4, mds=True, timeout=120)]),
    # P and P^-1 are one DFT per half; the paper rows n e_j and n b e_j are
    # block rows built from the powers of xi, as H is, and their bytes are pinned
    ("wedderburn, paper style p=607 n=101", CI,
     [wedderburn("p=607", 101, 20), construct("p=607", 101, "2n-3-plus", "--style", "paper", out="paper.json"),
      analyze("paper.json", d=4, mds=True),
      *pinned("p=607", 101, "2n-2", "2n-2.json",
              "a267887682b86699241e3ca52fa7d646d96cf893e44de4527c250195666ce6d6",
              "--s", "7", "--beta", "5", "--style", "paper"),
      *pinned("p=607", 101, "2n-3-minus", "2n-3-minus.json",
              "f6b2797c9524e4571beff1a9dcf133a862902f8f9d596b94d80fae2071f3c60d",
              "--s", "7", "--beta", "5", "--style", "paper"),
      *pinned("p=607", 101, "2n-3-plus", "2n-3-plus.json",
              "cac3ffe3339fe09fcd78c24e97594b29895656b61c19c9e84e5bdd448d6a32e9",
              "--s", "7", "--beta", "5", "--style", "paper"),
      *pinned("p=13;mod=[2,0,1]", 21, "2n-3-minus", "gf169.json",
              "09fdee1eb64a54e1b9b281b0015d416715bd22d100c5bac44ca0c62e0c1695f9",
              "--s", "10", "--style", "paper"),
      *pinned(GF7_3, 57, "2n-2", "gf343.json",
              "e90e5e0886a5cab4d8b28ac37418f43bbe008254fb8bd6f1442ab2143fce83ef",
              "--s", "28", "--style", "paper")]),
    # beta = 5 has order 606 in GF(607): H is built from the family's
    # position-0 row and block 7's two rows for (1, 5), and each document's
    # bytes are pinned.  7 has order 101 = n and 6 has order 202 = 2n: each
    # refusal exits 2, by name
    ("every family p=607 n=101 s=7 beta=5", CI,
     [*pinned("p=607", 101, "2n-2", "2n-2.json",
              "0a1e1f0bc342f43abc62fab857ae91a3131b39e1baf59f166c731bd04e164e2e", "--s", "7", "--beta", "5"),
      *pinned("p=607", 101, "2n-3-minus", "2n-3-minus.json",
              "2b1f8df2f355b4dbbe8c4cc717818d47a075e8604a08ee87d64b2174ca08ea08", "--s", "7", "--beta", "5"),
      *pinned("p=607", 101, "2n-3-plus", "2n-3-plus.json",
              "7eeae32519cf5080493161c58c8b94100babc87ed05ec1cd56ea89609c017bb9", "--s", "7", "--beta", "5"),
      refused("2n-3-plus", "7", "BetaIsNthRoot"), refused("2n-2", "7", "BadOrder"),
      refused("2n-3-minus", "6", "BadOrder")]),
    # algebra elements hold their phi coordinates in the field's entry form:
    # packed pairs over GF(p^2), packed integers folded by the modulus past
    # degree 2; over GF(7^3), the roots of x^57 - 1, powers and the shared
    # Euclid through P^-1's 1/2 and 1/n
    ("wedderburn GF(13^2) n=21, GF(3^3) n=13, GF(7^3) n=57", CI,
     [wedderburn("p=13;mod=[2,0,1]", 21, 50), wedderburn("p=3;mod=[1,2,0,1]", 13, 50),
      wedderburn(GF7_3, 57, 20)]),
    # the [602,3,600] and [2002,3,2000] ideals of GF(3011) D_602 and GF(6007)
    # D_2002, written through the README's API: code_from_ideal_spec reduces
    # their 3 span rows, not their constraint rows, and their dual checks
    # read the generator's columns, an arc on one conic, and never build H.
    # Their beta = 1 ideals, [602,3,598] and [2002,3,1998], are no arcs: the
    # walk keys the columns modulo column 0 alone, as the a/b symmetry of a
    # left ideal is certified
    ("low-rate ideals p=3011 n=301, p=6007 n=1001", CI,
     [py("""import json
from dihedralcodes import IdealSpec, LinearCode, code_from_ideal_spec, make_field, plus_piece, row, zero
for p, n in ((3011, 301), (6007, 1001)):
    F = make_field(p, [0, 1])
    for name, beta in (("low", 5), ("beta1", 1)):
        spec = IdealSpec((plus_piece(), row(F.one(), F.element(beta))) + (zero(),) * ((n - 3) // 2))
        with open(f"{name}-{n}.json", "w") as out:
            json.dump(LinearCode(code_from_ideal_spec(F, n, spec)).to_json(), out)
"""),
      *[analyze(f"{name}-{n}.json", "--method", "dual", d=d, mds=name == "low")
        for n in (301, 1001) for name, d in (("low", 2 * n - 2), ("beta1", 2 * n - 4))]]),
    # the [14,4,7] ideal of GF(29) D_14, written through the README's API:
    # exhaustive search forms its 10 free columns only, and the dual engine
    # answers it on its own
    ("both engines, [14,4] ideal p=29 n=7", CI,
     [py("""import json
from dihedralcodes import IdealSpec, LinearCode, code_from_ideal_spec, full, make_field, row, zero
F = make_field(29, [0, 1])
spec = IdealSpec((full(), row(F.one(), F.element(5)), zero(), zero()))
with open("ideal.json", "w") as out:
    json.dump(LinearCode(code_from_ideal_spec(F, 7, spec)).to_json(), out)
"""),
      *[analyze("ideal.json", "--method", method, d=7) for method in ENGINES]]),
    # the [26,3,24] ideal of GF(27) D_26, written through the README's API:
    # m = 3, so exhaustive search expands each row into 3 planes on packed
    # integers (gf._Packed), the entry form past degree 2
    ("both engines, [26,3] ideal GF(3^3) n=13", CI,
     [py("""import json
from dihedralcodes import IdealSpec, LinearCode, code_from_ideal_spec, make_field, plus_piece, row, zero
F = make_field(3, [1, 2, 0, 1])
spec = IdealSpec((plus_piece(), row(F.one(), F.element([0, 1]))) + (zero(),) * 5)
with open("ideal.json", "w") as out:
    json.dump(LinearCode(code_from_ideal_spec(F, 13, spec)).to_json(), out)
"""),
      *[analyze("ideal.json", "--method", method, d=24) for method in ENGINES]]),
    ("construct, analyze GF(101^2) n=255", CI,
     [construct("p=101;mod=[2,0,1]", 255, "2n-3-plus"), analyze("code.json", d=4, mds=True)]),
    # q = 66049: the dual check runs on packed GF(p^2) pairs, products in closed form
    ("construct, analyze GF(257^2) n=129", CI,
     [construct("p=257;mod=[3,0,1]", 129, "2n-3-plus"), analyze("code.json", d=4, mds=True)]),
    # k = 4 over GF(31): 31^4 - 1 = 923,520 words against the default cap of
    # 10^6; then the [20,19,2] even-weight code over GF(2): 2^19 - 1 =
    # 524,287 words, the largest k the default cap admits
    ("exhaustive search near the default cap", CI,
     [construct("p=31", 3, "2n-2"), analyze("code.json", "--method", "exhaustive", d=3, mds=True),
      py("""import json
entries = [[int(j in (i, 19)) for j in range(20)] for i in range(19)]
with open("even.json", "w") as out:
    print(json.dumps({"generator": {"field": "p=2", "rows": 19, "cols": 20, "entries": entries}}), file=out)
"""),
      *[analyze("even.json", "--method", method, d=2) for method in ENGINES]]),
    # the [7,3,5] Reed-Solomon code over GF(2^3), on a generator not in RREF:
    # rows 1, x, x^2 evaluated at every nonzero point
    ("both engines, [7,3,5] Reed-Solomon over GF(2^3)", CI,
     [py("""open("rs.json", "w").write(
    '{"generator":{"field":"p=2;mod=[1,1,0,1]","rows":3,"cols":7,"entries":['
    '[[1,0,0],[1,0,0],[1,0,0],[1,0,0],[1,0,0],[1,0,0],[1,0,0]],'
    '[[1,0,0],[0,1,0],[1,1,0],[0,0,1],[1,0,1],[0,1,1],[1,1,1]],'
    '[[1,0,0],[0,0,1],[1,0,1],[0,1,1],[1,1,1],[0,1,0],[1,1,0]]]}}\\n')
"""),
      *[analyze("rs.json", "--method", method, d=5, mds=True) for method in ENGINES]]),
    # a dual-only command imports neither numpy nor dataclasses: example
    # answers with the dual engine, and the records are plain classes
    ("no numpy or dataclasses in sweep or example", CI,
     [command(["-X", "importtime", "-m", "dihedralcodes.cli", *argv], stderr={"numpy|dataclasses": 0})
      for argv in (["sweep", "--field", "p=43", "--n", "7"], ["example"])]),
    # each sweep prints 2 header lines and a row per coprime twist and family
    sweep_row("p=607", 101, lines=152, grep={OK: 150}),  # 50 twists, every code MDS
    sweep_row("p=3011", 301, lines=380, grep={OK: 378}),  # 126 twists, the 2n-3 codes by their conic
    sweep_row("p=251;mod=[1,0,1]", 125, lines=152, grep={OK: 150}),  # 50 twists
    # m = 3: the entry form is packed integers (gf._Packed), folded by the
    # modulus.  beta = x has order 26 = 2n, so only 2n-3-plus is built; 6 twists
    sweep_row("p=3;mod=[1,2,0,1]", 13, lines=20, grep={OK: 6, REFUSED: 12}),
    # m = 3 with q - 1 = 342 = 2n: beta = 3x+1 has order 2n, so the 2n-2 and
    # 2n-3-minus codes are refused and 2n-3-plus runs at length 342; 54 twists
    sweep_row("p=7;mod=[2,0,0,1]", 171, lines=164, grep={OK: 54, REFUSED: 108}),
    # m = 5 with q - 1 = 242 = 2n: canon folds slots 5..12 by eight rows
    # t^j mod f; beta = x has order 2n, so only 2n-3-plus runs, at length
    # 242; 55 twists
    sweep_row("p=3;mod=[1,2,0,0,0,1]", 121, lines=167, grep={OK: 55, REFUSED: 110}),

    # the scale bench's rows; CI runs those marked BOTH
    #
    # 360 twists, every code MDS.  Depth 0 keys each column of H in one pass
    # (gf._Form.points): a 2n-3 code's columns lead with 1 or -1 and take no
    # inversion (_unit_keys), a 2n-2 code's one batched inversion
    # (_Residues._points), so the 1,080 codes of length 2002 take seconds
    sweep_row("p=6007", 1001, BOTH, lines=1082, grep={OK: 1080},
              stdout="c83d56e1b26fd522e3d0a9495c44c0e2ef02fe3c1e1f26efe2e5f704ee7ea81f"),
    # GF(p^2) entries are packed integer pairs (gf._Packed), so the 1,080
    # codes of length 2002 fit the timeout
    sweep_row(GF2003_2, 1001, BOTH, lines=1082, grep={OK: 1080},
              stdout="384af24f295d6f8085c27993f259d754f760024ead6b0d3c967f812e360cc18f"),
    # m = 3 with q - 1 = 342 = 6n: every family is built, on packed integers
    # at length 114; 18 twists, every code MDS
    sweep_row(GF7_3, 57, BOTH, lines=56, grep={OK: 54},
              stdout="329a989151477409054362a93a27ca206c47c0245ef6b633f01f921448e1dafb"),
    # m = 7 with q - 1 = 2186 = 2n: only 2n-3-plus is built, at length 2186.
    # Its H leads every column with 1 or -1, so depth 0 keys the 2,186
    # columns with no inversion (gf._Form.points, _unit_keys); 546 twists
    sweep_row(GF3_7, 1093, BOTH, timeout=120, lines=1640, grep={OK: 546, REFUSED: 1092},
              stdout="6c60541e22543a42d27a94ce626dfe828fc73ab5ee07369a953ad8bd57660478"),
    # the north star's q: 2^31 - 1 is prime, q - 1 > 2n, so every family is
    # built, and the text rows are printed as each code is checked.  Each
    # 2n-3 code's H leads every column with 1 or -1, so depth 0 keys its
    # 4,634 columns with no inversion; 990 twists, every code MDS
    sweep_row("p=2147483647", 2317, BOTH, lines=2972, grep={OK: 2970},
              stdout="d5c4ecb4b262aa0c86072194ed8f41daaca1c29600afa2a52e7efdb8b7190389"),
    # construct writes its 132 MB document row by row from the generator's
    # systematic form (pivots, A), and never holds the document string or
    # the dense rows.  The digest is that of json.dumps(doc, indent=2) of
    # the dense document, which took about 6 s and 1.1 GB to write
    ("construct --out, analyze --in p=6007 n=1001", BOTH,
     [construct("p=6007", 1001, "2n-3-plus", timeout=30, rss_mb=200, stdout=WROTE_6007,
                files={"code.json": "0a87750521d1741ff301fa75f8b0ffc794e8fbe45548a0fd618f76fb339261a1"}),
      analyze("code.json", timeout=120,
              stdout="f684ebc5fe94e7affc540335cfab98e0f36643e005081246e82ea970be7fb541")]),
    ("construct --style paper --out p=6007 n=1001", BENCH,
     [construct("p=6007", 1001, "2n-3-plus", "--style", "paper", stdout=WROTE_6007,
                files={"code.json": "f764be92b662ca53dcbd50df14a96e35e188105b6f1ebeeadc3598946b5aaacb"})]),
    # a 708 MB file; analyze --in takes about 50-95 s and 2.8 GB
    ("construct --out, analyze --in p=2147483647 n=2317", BENCH,
     [construct("p=2147483647", 2317, "2n-3-plus",
                stdout="35274301c90d4e4a819939f6ba42a33b7843a1e16fea79e5dadf90e32d68d80d",
                files={"code.json": "81ec0e3941ee357f965e219397fa2314e08ff808f225bf38cce589d3b8c648c2"}),
      analyze("code.json", timeout=600,
              stdout="8e4674f5cebfe87e059a43373a0e7a3ae7606c08483320ebc4ab00bff68b33c1")]),
    ("wedderburn p=3011 n=301", BENCH,
     [wedderburn("p=3011", 301, 2, timeout=120,
                 stdout="3b4ead8b096e0ec44ffc7c63585fb3d0d30f73eca66d2fd22508b1a5c1da3ef5")]),
    # the 1,001 cyclic idempotents and the 502 central ones placed from them
    # by coordinates, with no group product, each line printed from its
    # entries: a header line, 1,001 cyclic and 502 central members
    ("idempotents p=6007 n=1001", BOTH,
     [cli("idempotents", "--field", "p=6007", "--n", "1001", timeout=30, lines=1504,
          stdout="e7b8d8ca9af674fd80f37b8d57159abb47eb7b090fe8fc76b2eb0b345f09a0a2")]),
    ("idempotents --format json p=6007 n=1001", BENCH,
     [cli("idempotents", "--field", "p=6007", "--n", "1001", "--format", "json", timeout=120,
          stdout="ab8662193f77f6b30c351beafe80610f78355d32baffb7f6cda16c7f8dfdc448")]),
]


class Mismatch(Exception):
    """A command broke one of its pins."""


def _digest(f) -> str:
    f.seek(0)
    digest = hashlib.sha256()
    for block in iter(lambda: f.read(1 << 20), b""):
        digest.update(block)
    return digest.hexdigest()


def _grep(f, patterns) -> tuple[int, dict]:
    """f's line count, as wc -l gives it, and the number of its lines each
    pattern matches, as grep -c gives it."""
    f.seek(0)
    lines, counts = 0, dict.fromkeys(patterns, 0)
    compiled = [(p, re.compile(p)) for p in patterns]
    for line in f:
        lines += line.endswith(b"\n")
        text = line.rstrip(b"\n").decode(errors="replace")
        for p, regex in compiled:
            counts[p] += regex.search(text) is not None
    return lines, counts


def run_command(cmd, cwd, env) -> dict:
    """Run one command in cwd, measure it and check its pins; raise
    Mismatch at the first pin it breaks."""
    before = set(os.listdir(cwd))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *cmd["argv"]], cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        expired = threading.Event()

        def kill():
            expired.set()
            os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(cmd["timeout"], kill)
        timer.start()
        try:  # wait without reaping, so the group cannot be a new one when the timer fires
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:  # an interrupt: the command's group goes down with the run
            os.killpg(proc.pid, signal.SIGKILL)
            raise
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        files = {}
        for name in sorted(set(os.listdir(cwd)) - before):
            with open(os.path.join(cwd, name), "rb") as f:
                files[name] = _digest(f)
        record = {"argv": cmd["argv"], "status": proc.returncode, "wall_s": round(wall, 3),
                  "maxrss_mb": round(usage.ru_maxrss / 1024, 1), "stdout_sha256": _digest(out), "files": files}
        checks = [("timeout", f"exit within {cmd['timeout']} s", "killed")] if expired.is_set() else []
        checks.append(("exit status", cmd.get("status", 0), record["status"]))
        if "stderr" in cmd:
            checks.append(("stderr grep -c", cmd["stderr"], _grep(err, cmd["stderr"])[1]))
        if "stdout" in cmd:
            checks.append(("stdout sha256", cmd["stdout"], record["stdout_sha256"]))
        if "lines" in cmd or "grep" in cmd:
            lines, counts = _grep(out, cmd.get("grep", {}))
            checks += [("stdout lines", cmd.get("lines", lines), lines),
                       ("stdout grep -c", cmd.get("grep", {}), counts)]
        if "files" in cmd:
            checks.append(("file sha256", cmd["files"], {name: files.get(name) for name in cmd["files"]}))
        if "rss_mb" in cmd and record["maxrss_mb"] >= cmd["rss_mb"]:
            checks.append(("peak RSS", f"< {cmd['rss_mb']} MB", f"{record['maxrss_mb']} MB"))
        for check, want, got in checks:
            if want != got:
                err.seek(0)
                tail = b"".join(err.readlines()[-10:]).decode(errors="replace")
                raise Mismatch(f"{check}: expected {want}, got {got}"
                               + (f"\nstderr ends:\n{tail}" if tail else ""))
    return record


def run_row(name, commands, src=ROOT / "src") -> dict:
    """Run a row's commands in turn, in one fresh temporary directory;
    raise Mismatch naming the row, the command and the broken pin."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    records = []
    with tempfile.TemporaryDirectory(prefix="checks-") as cwd:
        for i, cmd in enumerate(commands, 1):
            try:
                records.append(run_command(cmd, cwd, env))
            except Mismatch as e:
                shown = "-c ..." if cmd["argv"][0] == "-c" else " ".join(cmd["argv"])
                raise Mismatch(f"row {name!r}, command {i} ({shown}): {e}") from None
    return {"row": name, "commands": records}


def repeat_row(name, commands, src=ROOT / "src") -> dict:
    """Run a row REPEATS times (run_row), and keep for each command its
    median wall time, every wall, its largest peak RSS, and whether every
    run gave the same exit status and digests."""
    runs = [run_row(name, commands, src)["commands"] for _ in range(REPEATS)]
    out = []
    for cs in zip(*runs):
        outputs = [(c["status"], c["stdout_sha256"], c["files"]) for c in cs]
        walls = [c["wall_s"] for c in cs]
        out.append({**cs[0], "wall_s": statistics.median(walls), "walls_s": walls,
                    "maxrss_mb": max(c["maxrss_mb"] for c in cs),
                    "runs_agree": all(o == outputs[0] for o in outputs)})
    return {"row": name, "commands": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, help="run the bench rows and write BENCH_<pr>.json")
    args = parser.parse_args(argv)
    bench = args.pr is not None
    rows = []
    for name, runs, commands in ROWS:
        if ("bench" if bench else "ci") not in runs:
            continue
        try:
            rows.append(repeat_row(name, commands) if bench else run_row(name, commands))
        except Mismatch as e:
            print(f"FAIL {e}", file=sys.stderr)
            return 1
        walls = ", ".join(f"{c['wall_s']:.2f} s {c['maxrss_mb']:.0f} MB"
                          + ("" if c.get("runs_agree", True) else " RUNS DIFFER")
                          for c in rows[-1]["commands"])
        print(f"ok {name}: {walls}", flush=True)
    if bench:
        doc = {"pr": args.pr, "python": platform.python_version(),
               "machine": platform.machine(), "cpus": os.cpu_count(), "rows": rows}
        out = ROOT / f"BENCH_{args.pr}.json"
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
