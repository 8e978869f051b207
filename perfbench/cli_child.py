"""Traced stand-in for `python -m cnomial.cli` in the cli_cold workload.

    cli_child.py TRACE_FILE CLI_ARGS...

Installs the tracer, runs the command line exactly as `cnomial` would,
and writes the spans and counters to TRACE_FILE for the parent to merge.
Span times use perf_counter(), which on Linux reads the system-wide
monotonic clock, so they line up with the parent's.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from cnomial import cli

    tracer.start()
    try:
        rc = cli.run(argv)
    finally:
        tracer.stop()
        with open(trace_file, "w", encoding="utf-8") as f:
            json.dump(tracer.child_payload(), f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
