"""Child-process launcher for the benchmark.

    python bench/launch.py STAMP_FD [--trace OUT.json | --setup-only] -- CLI ARGS...

Writes time.perf_counter() to file descriptor STAMP_FD as soon as
classprod.cli is imported, then runs classprod.cli.main(CLI ARGS) and exits
with its return code. perf_counter is CLOCK_MONOTONIC, which is system-wide
on Linux, so the parent can subtract its own spawn timestamp from the stamp
to get the start-up cost. --trace wraps the package's layers first (see
tracer.py) and writes the spans to OUT.json. --setup-only stops after the
stamp.
"""

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")


def main() -> int:
    argv = sys.argv[1:]
    stamps = os.fdopen(int(argv.pop(0)), "w")
    mode, out = None, None
    if argv[0] in ("--trace", "--setup-only"):
        mode = argv.pop(0)
        if mode == "--trace":
            out = argv.pop(0)
    if argv.pop(0) != "--":
        raise SystemExit("launch.py: expected '--' before the CLI arguments")

    sys.path.insert(0, _SRC)
    import classprod.cli

    stamps.write(repr(time.perf_counter()))
    stamps.close()
    if not os.path.abspath(classprod.cli.__file__).startswith(_SRC + os.sep):
        raise SystemExit(f"launch.py: classprod imported from outside {_SRC}")
    if mode == "--setup-only":
        return 0
    if mode == "--trace":
        sys.path.insert(0, _HERE)
        import tracer

        return tracer.run_traced(classprod.cli.main, argv, out)
    return classprod.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
