"""One timed set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Imports minitri and builds the workload's seeded inputs, as the
benchmark does before its timed passes, then prints one JSON line with
its start time on the monotonic clock and the import and input times.
The parent times the whole process from spawn to exit as ``setup_s``.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main():
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    t0 = time.monotonic()
    import minitri  # noqa: F401

    t1 = time.monotonic()
    import workloads

    workloads.WORKLOADS[workload](seed, workdir, runner=None)
    t2 = time.monotonic()
    print(json.dumps({"started": STARTED, "import_s": t1 - t0, "inputs_s": t2 - t1}))


if __name__ == "__main__":
    main()
