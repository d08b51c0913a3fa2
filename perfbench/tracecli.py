"""Run one bfly command with the layer trace on.

Usage: python3 perfbench/tracecli.py TRACE_FILE BFLY_ARGS...

Writes {"trace": ..., "errors": [...]} to TRACE_FILE and exits with the
command's exit code.
"""

import json
import sys

import tracer as tracing


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    before = tracing.cache_sizes()
    from bfly.cli import main as bfly_main

    try:
        return bfly_main(argv)
    finally:
        with open(path, "w") as out:
            json.dump({"trace": tracer.snapshot(),
                       "errors": tracing.cross_check(tracer, before)}, out)


if __name__ == "__main__":
    sys.exit(main())
