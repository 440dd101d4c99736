"""Benchmark of the dihedralcodes library.

    python3 perfbench/run.py [--workload families|oracle|cli|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in fresh worker processes (worker.py), one at a time,
single-threaded, as a closed loop with one op in flight.  Every answer is
checked; a wrong answer makes the command exit 1.  With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S
from tracer import LAYERS, METRICS, REPORTED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("families", "oracle", "cli")
# Worker processes per measured run.  Each sets up on its own (setup_s is
# the median) and runs one slice of the op list; pooling the samples of
# several processes evens out the speed differences between processes.
# families sets up for about 16 s and cli for about 2.5 s, so they get two.
WORKERS = {"families": 2, "oracle": 3, "cli": 2}
# Op timings scaled to the reference machine speed (calibrate.py) on the
# workloads with speed_scaled set.
SCALED = ("ops_per_s", "op_p50_ms", "op_tail_ms")
# A one-workload run must end within 180 s.
DEADLINE_S = 175
FAILED = ("refused", "error", "over_budget", "wrong")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class WorkerFailed(Exception):
    pass


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def spawn_worker(workload: str, seed: int, seconds: float, mode: str):
    """Run worker.py to completion; returns its JSON result and its rusage."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode,
         repr(spawned)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, process_group=0,
    )
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # the worker's group also holds any CLI child it started
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} worker ({mode}) exited with status {proc.returncode}")
    return json.loads(lines[-1]), usage


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least 10 samples beyond it.

    Returns (value, percentile).  With 10 or fewer samples no percentile
    qualifies and the maximum is returned as percentile 100.
    """
    xs = sorted(latencies)
    if len(xs) > 10:
        rank = len(xs) - 10
        return xs[rank - 1], 100.0 * rank / len(xs)
    return xs[-1], 100.0


def failures(records: list[dict]) -> list[str]:
    lines = {}
    for r in records:
        if r["status"] in FAILED:
            known = " (known defect)" if r["known_defect"] else ""
            key = f"  {r['status']:<11} {r['label']}{known}: {r['detail']}"
            lines[key] = lines.get(key, 0) + 1
    return [f"{key} x{count}" for key, count in lines.items()]


def measure(workload: str, seed: int, seconds: float) -> dict:
    """WORKERS fresh workers, one after another, each on its slice of the ops.

    Workers run whole passes over their slices (pass_count in worker.py), so
    the pooled samples hold every op equally often.  On families and oracle
    each op's latency is scaled by NOMINAL_S / (the reference-kernel time
    around it), and the wall time by the latency-weighted mean of those
    scales.
    """
    workers = WORKERS[workload]
    setups, records, walls, rss_kb, kernel_s, passes = [], [], [], [], [], []
    for i in range(workers):
        res, usage = spawn_worker(workload, seed, seconds, f"run:{i}:{workers}")
        passes.append(res["passes"])
        setups.append(res["ready"] - res["spawned"])
        records += res["ops"]
        walls.append(res["wall_s"])
        rss_kb.append(usage.ru_maxrss)
        kernel_s += res["kernel_s"]
    for r in records:
        r["scaled_s"] = r["latency_s"] * NOMINAL_S / r["kernel_s"] if kernel_s else r["latency_s"]
    ok_raw = [r["latency_s"] for r in records if r["status"] == "ok"]
    ok = [r["scaled_s"] for r in records if r["status"] == "ok"]
    if not ok:
        raise WorkerFailed(f"{workload}: no op succeeded")
    tail, pct = tail_latency(ok)
    scale = sum(r["scaled_s"] for r in records) / sum(r["latency_s"] for r in records)
    if workload == "cli":
        rss_kb = [r["maxrss_kb"] for r in records]
        rss_note = "largest CLI child"
    else:
        rss_note = f"largest of {workers} workers"
    n_failed = sum(1 for r in records if r["status"] in FAILED)
    raw = {
        "ops_per_s": len(ok) / sum(walls),
        "op_p50_ms": statistics.median(ok_raw) * 1000,
        "op_tail_ms": tail_latency(ok_raw)[0] * 1000,
    }
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_p50_ms": statistics.median(ok) * 1000,
        "op_tail_ms": tail * 1000,
        "ok_frac": len(ok) / len(records),
        "peak_rss_mb": max(rss_kb) / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + " ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"{len(ok)} ok ops over {sum(walls):.3f} s, passes per worker {passes}",
        "op_p50_ms": f"n={len(ok)}",
        "op_tail_ms": f"p{pct:.1f}, n={len(ok)}",
        "ok_frac": f"fail_frac {n_failed / len(records):.4f} = {n_failed}/{len(records)} failed",
        "peak_rss_mb": rss_note,
    }
    for name in SCALED if kernel_s else ():
        notes[name] += f", {raw[name]:.4f} unscaled"
    print(f"== {workload}: seed {seed}, {len(records)} ops attempted, {n_failed} failed ==")
    if kernel_s:
        print(f"  op timings x {scale:.4f} on average: reference kernel median "
              f"{statistics.median(kernel_s) * 1000:.3f} ms over {len(kernel_s)} samples, "
              f"nominal {NOMINAL_S * 1000:.3f} ms")
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {values[name]:>12.4f} {unit:<5}  {notes[name]}")
    for line in failures(records):
        print(line)
    return result_line(records, records, values, END_TO_END)


def trace(workload: str, seed: int, seconds: float) -> dict:
    res, _ = spawn_worker(workload, seed, seconds, "trace")
    records = res["ops"] + res["untraced_ops"]
    metrics = res["metrics"]
    print(f"== {workload}: seed {seed}, traced run, trace written to {res['trace_file']} ==")
    for name, unit in METRICS.items():
        print(f"  {name:<32} {metrics[name]:>16.6g} {unit}")
    if res["absent"]:
        print("  absent (no longer in the library): " + ", ".join(res["absent"]))
    ranked = sorted(((metrics[f"{layer}.self_s"], layer) for layer in LAYERS), reverse=True)
    print("  self time by layer: " + ", ".join(f"{layer} {v:.3f} s" for v, layer in ranked))
    for line in failures(records):
        print(line)
    return result_line(records, res["ops"], metrics, {name: METRICS[name] for name in REPORTED})


def result_line(checked: list[dict], counted: list[dict], values: dict, units: dict) -> dict:
    """The final JSON object: ops in `counted` give attempted and failed."""
    return {
        "correct": not any(r["status"] == "wrong" for r in checked),
        "attempted": len(counted),
        "failed": sum(1 for r in counted if r["status"] in FAILED),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dihedralcodes" / "__init__.py").is_file():
        print(f"error: no dihedralcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGALRM, _interrupt)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    signal.alarm(DEADLINE_S * len(names))
    results = {}
    try:
        for name in names:
            run = trace if args.trace else measure
            results[name] = run(name, args.seed, args.seconds)
    except (WorkerFailed, KeyboardInterrupt) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
