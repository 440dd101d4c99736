"""One workload in one fresh process: set-up, then timed or traced passes.

Started by run.py, one worker at a time:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE SPAWNED

MODE is ``run:I:K`` (set-up, then whole passes over slice I of K of the op
list, as many as take about SECONDS / K at the seed (see pass_count), with
reference-kernel samples between the ops where the workload is scaled, see
calibrate.py) or ``trace`` (traced set-up, one untraced pass over the whole
op list, the same pass traced).  SPAWNED is the CLOCK_MONOTONIC time at
which run.py started this process; set-up time is measured from it.  The last stdout line is one JSON object with the
results.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"


def import_library() -> None:
    """Import dihedralcodes from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import dihedralcodes

    if Path(dihedralcodes.__file__).resolve().parent != (SRC / "dihedralcodes").resolve():
        raise SystemExit(f"dihedralcodes imported from {dihedralcodes.__file__}, not {SRC}")


import_library()

import workloads as wl  # noqa: E402
from calibrate import SpeedProbe  # noqa: E402
from tracer import Tracer, layer_metrics, summarize, write  # noqa: E402


def _on_alarm(signum, frame):
    raise wl.OverBudget()


def make_workload(name: str, seed: int, workdir: Path):
    if name == "families":
        return wl.Families(seed)
    if name == "oracle":
        return wl.Oracle(seed)
    if name == "cli":
        return wl.Cli(seed, workdir)
    raise SystemExit(f"unknown workload {name!r}")


def run_op(workload, op, op_id, tracer: Tracer | None) -> dict:
    """Run one op under the workload's time budget, then check its answer."""
    if tracer is not None:
        tracer.next_op(op_id)
    detail = ""
    result = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, workload.budget_s)
        try:
            result = workload.run(op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except wl.OverBudget:
        status, detail = "over_budget", f"over the {workload.budget_s} s op budget"
    except wl.REFUSALS as exc:
        status, detail = "refused", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # any other failure still counts as a failed op
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if status == "ok":
        try:
            workload.check(op, result)
        except wl.WrongAnswer as exc:
            status, detail = "wrong", str(exc)
    return {
        "label": op.label,
        "status": status,
        "latency_s": latency,
        "known_defect": op.known_defect,
        "detail": detail[:300],
        "maxrss_kb": getattr(result, "maxrss_kb", 0),
    }


def run_passes(workload, ops, passes: int, tracer=None, speed: SpeedProbe | None = None):
    """`passes` whole passes over `ops`; returns the records and wall time.

    With `speed`, reference-kernel samples are taken between the ops (see
    calibrate.py); the sampling time is left out of the wall time.
    """
    start = time.perf_counter()
    records = []
    for p in range(passes):
        for i, op in enumerate(ops):
            if speed is not None:
                speed.before_op()
            records.append(run_op(workload, op, f"pass{p}-{i}", tracer))
            if speed is not None:
                speed.after_op(records[-1])
    if speed is not None:
        speed.finish()
    wall = time.perf_counter() - start
    return records, wall - (speed.spent_s if speed is not None else 0.0)


def pass_count(workload, i: int, k: int, seconds: float) -> int:
    """Passes worker `i` of `k` makes over its slice.

    The count comes from the seed library's pass time, not from this run's,
    so that every run (and every commit) with the same --seconds takes the
    same samples: the tail percentile is then the same percentile in every
    run.  On cli every worker runs the whole command list, so the passes
    are shared out instead, the first workers taking one more.
    """
    if isinstance(workload, wl.Cli):
        total = max(k, round(seconds / workload.pass_s))
        return total // k + (i < total % k)
    return max(1, round(seconds / (k * workload.pass_s)))


def set_traced(workload, tracer: Tracer, on: bool) -> None:
    if on:
        tracer.install()
    else:
        tracer.uninstall()
    if isinstance(workload, wl.Cli):
        workload.traced = on


def main(argv: list[str]) -> int:
    name, seed, seconds, mode, spawned = argv
    seed, seconds, spawned = int(seed), float(seconds), float(spawned)
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    tracer = Tracer(over_budget=wl.OverBudget) if mode == "trace" else None
    try:
        if tracer is not None:
            tracer.install()
        workload = make_workload(name, seed, workdir)
        if tracer is not None and isinstance(workload, wl.Cli):
            workload.traced = True
        setup_records = [
            run_op(workload, op, f"setup-{i}", tracer) for i, op in enumerate(workload.warmups)
        ]
        ready = time.monotonic()
        out = {"workload": name, "seed": seed, "spawned": spawned, "ready": ready}
        if mode.startswith("run:"):
            i, k = map(int, mode.split(":")[1:])
            passes = pass_count(workload, i, k, seconds)
            speed = SpeedProbe() if workload.speed_scaled else None
            records, wall = run_passes(workload, workload.slice(i, k), passes, speed=speed)
            out.update(ops=records, wall_s=wall, passes=passes,
                       kernel_s=speed.samples if speed is not None else [])
        elif mode == "trace":
            ops = workload.slice(0, 1)
            set_traced(workload, tracer, False)
            untraced, untraced_wall = run_passes(workload, ops, 1)
            set_traced(workload, tracer, True)
            records, wall = run_passes(workload, ops, 1, tracer)
            set_traced(workload, tracer, False)
            overhead = wall / untraced_wall - 1
            out.update(trace_report(workload, seed, tracer, setup_records + records, overhead))
            out.update(ops=records, untraced_ops=untraced, wall_s=wall, untraced_wall_s=untraced_wall)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def trace_report(workload, seed: int, tracer: Tracer, traced_records: list[dict],
                 overhead: float) -> dict:
    """Per-layer metrics from this process's spans and any CLI children's."""
    docs = [tracer.document()]
    for path in getattr(workload, "trace_files", []):
        if path.exists():
            docs.append(json.loads(path.read_text(encoding="utf-8")))
    summary = Counter()
    for doc in docs:
        summary.update(summarize(doc))
    summary["cli.refused"] = sum(
        1 for r in traced_records if isinstance(workload, wl.Cli) and r["status"] == "refused"
    )
    summary["trace.overhead_frac"] = overhead
    absent = sorted({name for doc in docs for name in doc["absent"]})
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    write(path, {"workload": workload.name, "absent": absent, "documents": docs})
    return {"metrics": layer_metrics(summary), "absent": absent, "trace_file": str(path.relative_to(ROOT))}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
