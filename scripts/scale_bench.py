"""Scale bench: the library's CLI at n in the hundreds and thousands.

    python3 scripts/scale_bench.py --pr N

Runs each row below REPEATS times, one run at a time, each in a fresh
temporary directory, as its own ``python -m dihedralcodes.cli`` processes
with ``PYTHONPATH`` set to this checkout's ``src``, and writes
``BENCH_<N>.json`` at the repository root.  A row is one command, or a
``construct --out`` and the ``analyze --in`` that reads its file, in one
directory.  For each command the file records its argv, exit status, the
median wall time and all REPEATS walls, the largest peak RSS of that
child alone (``ru_maxrss`` from ``os.wait4``), the md5 of its stdout and
of every file it wrote, and whether every run gave the same status and
md5s (``runs_agree``; a row whose runs differ is flagged as it prints).
Nothing else is checked: compare the digests of two files to see that
output bytes did not move, and their median times, taken in one session,
to see a change in speed.

The rows take about seven minutes on a 2-core container, and the
(2^31-1, 2317) pair needs about 3 GB of memory and 0.7 GB of disk.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GF2003_2 = "p=2003;mod=[1,0,1]"
GF7_3 = "p=7;mod=[1,1,0,1]"
GF3_7 = "p=3;mod=[1,0,2,0,0,0,0,1]"

# runs of each row; one run cannot tell a change in speed from the
# container's own swings, which reached 2x on one sweep
REPEATS = 3


def _sweep(field, n):
    return (f"sweep {field} n={n}", [["sweep", "--field", field, "--n", str(n)]])


def _document(p, n):
    return (f"construct --out, analyze --in p={p} n={n}",
            [["construct", "--field", f"p={p}", "--n", str(n), "--family", "2n-3-plus", "--out", "code.json"],
             ["analyze", "--in", "code.json"]])


ROWS = [
    _sweep("p=6007", 1001),
    _sweep(GF2003_2, 1001),
    _sweep(GF7_3, 57),
    _sweep(GF3_7, 1093),
    _sweep("p=2147483647", 2317),
    _document(6007, 1001),
    ("construct --style paper --out p=6007 n=1001",
     [["construct", "--field", "p=6007", "--n", "1001", "--family", "2n-3-plus",
       "--style", "paper", "--out", "code.json"]]),
    _document(2147483647, 2317),  # a 708 MB file; analyze --in takes about 50 s and 2.8 GB
    ("wedderburn p=3011 n=301", [["wedderburn", "--field", "p=3011", "--n", "301", "--check", "2"]]),
    ("idempotents p=6007 n=1001", [["idempotents", "--field", "p=6007", "--n", "1001"]]),
    ("idempotents --format json p=6007 n=1001",
     [["idempotents", "--field", "p=6007", "--n", "1001", "--format", "json"]]),
]

def _md5(f) -> str:
    digest = hashlib.md5()
    for block in iter(lambda: f.read(1 << 20), b""):
        digest.update(block)
    return digest.hexdigest()


def run_command(argv, cwd, env) -> dict:
    """Run ``python -m dihedralcodes.cli argv`` in cwd and measure it."""
    before = set(os.listdir(cwd))
    with tempfile.TemporaryFile() as stdout:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "dihedralcodes.cli", *argv],
                                cwd=cwd, env=env, stdout=stdout, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        out_md5 = _md5(stdout)
    files = {}
    for name in sorted(set(os.listdir(cwd)) - before):
        with open(os.path.join(cwd, name), "rb") as f:
            files[name] = _md5(f)
    return {"argv": argv, "status": proc.returncode, "wall_s": round(wall, 3),
            "maxrss_mb": round(usage.ru_maxrss / 1024, 1), "stdout_md5": out_md5, "files": files}


def run_row(name, commands, src=ROOT / "src") -> dict:
    """Run a row's commands in turn, in one fresh temporary directory."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory(prefix="scale_bench-") as cwd:
        return {"row": name, "commands": [run_command(argv, cwd, env) for argv in commands]}


def repeat_row(name, commands, src=ROOT / "src") -> dict:
    """Run a row REPEATS times (run_row), and keep for each command its
    median wall time, every wall, its largest peak RSS, and whether every
    run gave the same exit status and md5s."""
    runs = [run_row(name, commands, src)["commands"] for _ in range(REPEATS)]
    out = []
    for cs in zip(*runs):
        outputs = [(c["status"], c["stdout_md5"], c["files"]) for c in cs]
        walls = [c["wall_s"] for c in cs]
        out.append({**cs[0], "wall_s": statistics.median(walls), "walls_s": walls,
                    "maxrss_mb": max(c["maxrss_mb"] for c in cs),
                    "runs_agree": all(o == outputs[0] for o in outputs)})
    return {"row": name, "commands": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="names the output, BENCH_<pr>.json")
    args = parser.parse_args(argv)
    rows = []
    for name, commands in ROWS:
        rows.append(repeat_row(name, commands))
        walls = ", ".join(f"{c['wall_s']:.2f} s {c['maxrss_mb']:.0f} MB exit {c['status']}"
                          + ("" if c["runs_agree"] else " RUNS DIFFER")
                          for c in rows[-1]["commands"])
        print(f"{name}: {walls}", flush=True)
    doc = {"pr": args.pr, "python": platform.python_version(),
           "machine": platform.machine(), "cpus": os.cpu_count(), "rows": rows}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
