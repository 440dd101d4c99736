"""Machine-speed reference for the benchmark's op timings.

The benchmark shares its cores with other work, and the speed of the
machine drifts by 15-40% from one stretch of seconds to the next, moving
every op that runs in a slow or fast stretch together.  To keep that drift
out of the comparison between two commits, each worker of the workloads
with ``speed_scaled`` set (families and oracle) times a fixed pure-Python
kernel that never touches the library, between its ops, at most every
INTERVAL_S.  Each op is paired with the mean of the samples taken just
before and just after it, and run.py scales its latency by NOMINAL_S / that
mean: op timings are reported as they would read on a machine where the
kernel takes NOMINAL_S.  The raw timings and the scale are printed beside
them.

The kernel does what the library's hot loops do: row reduction with
table lookups over a small prime field (as in the dual distance engine and
MatrixGF.rref) and dictionary stores.  Over 12 s windows its time
correlates at about 0.85-0.9 with the time of the oracle and families ops.
"""

from __future__ import annotations

import gc
import statistics
import time

# Median kernel time on a 2-core x86-64 container with Python 3.11 in a
# quiet period; only the scale of the reported numbers depends on it.
NOMINAL_S = 0.008
INTERVAL_S = 0.5
# Kernel runs per sample; the sample is their median.
RUNS = 3

_P = 31
_MUL = [[(a * b) % _P for b in range(_P)] for a in range(_P)]


def kernel() -> float:
    """Run the reference kernel once; returns its wall time in seconds.

    The cyclic garbage collector is off while it runs: a collection would
    walk the whole heap, and the kernel's time would then depend on how many
    objects the library holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_kernel()
    finally:
        if enabled:
            gc.enable()


def _timed_kernel() -> float:
    start = time.perf_counter()
    mul = _MUL
    for r in range(10):
        rows = [[(i * j + r) % _P for j in range(40)] for i in range(12)]
        for i in range(12):
            pivot = rows[i]
            for k in range(i + 1, 12):
                m = mul[rows[k][i]]
                rows[k] = [(a - m[b]) % _P for a, b in zip(rows[k], pivot)]
    table = {}
    for i in range(30000):
        table[(i * 7) % 4099] = i
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel samples spread over a timed phase, and the ops between them.

    Call ``before_op()`` before each op and pass its record to ``after_op``;
    call ``finish()`` after the last op.  Each record then gets
    ``kernel_s``, the mean of the samples on either side of it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.last = float("-inf")
        self.pending: list[dict] = []

    def sample(self) -> None:
        now = time.perf_counter()
        value = statistics.median(kernel() for _ in range(RUNS))
        self.samples.append(value)
        for record in self.pending:
            record["kernel_s"] = (record["kernel_s"] + value) / 2
        self.pending.clear()
        self.last = time.perf_counter()
        self.spent_s += self.last - now

    def before_op(self) -> None:
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def after_op(self, record: dict) -> None:
        record["kernel_s"] = self.samples[-1]
        self.pending.append(record)

    def finish(self) -> None:
        self.sample()
