"""Run one dihedralcodes CLI command with the benchmark's tracer installed.

    python3 perfbench/launch.py TRACE_OUT SPAWNED ARG...

Behaves like ``python -m dihedralcodes.cli ARG...`` (same stdout, stderr and
exit status) and writes the spans and counters of the run to TRACE_OUT.
SPAWNED is the CLOCK_MONOTONIC time at which the parent started this
process; the time from then until ``dihedralcodes.cli`` is imported is
recorded as ``cli.startup.s``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dihedralcodes.cli as cli  # noqa: E402

startup = time.monotonic() - float(sys.argv[2])

from tracer import Tracer, write  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.counters["cli.startup.s"] += startup
    tracer.install()
    try:
        return cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        write(sys.argv[1], tracer.document())


if __name__ == "__main__":
    sys.exit(main())
