"""Run one minitri CLI command with the benchmark's tracer installed.

Usage: python3 perfbench/cli_shim.py SPAN_FILE SUBCOMMAND [ARGS...]

Times ``import minitri.cli``, calls ``minitri.cli.main(argv)`` with the
wrappers of tracer.py in place and writes the spans to SPAN_FILE as
JSON.  Exits with the CLI's own status.  Traced passes of the cli_batch
workload use this shim; untraced passes run ``python -m minitri.cli``.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.monotonic()
    import minitri.cli

    t1 = time.monotonic()
    tracer = Tracer()
    with tracer.installed():
        code = minitri.cli.main(argv)
    sys.stdout.flush()
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"started": STARTED, "import": [t0, t1], "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
