"""Run one expbands CLI command in-process under the tracer.

Usage: python bench/cmd_driver.py SPANS_JSON ARGV...

Equivalent to `python -m expbands ARGV...`, except that the import of
`expbands.cli` and the call to `cli.main(argv)` are recorded as spans and
written to SPANS_JSON before the process exits with main's status. The
caller puts the package on PYTHONPATH.
"""

import sys
import time


def main() -> int:
    start = time.perf_counter()
    out, argv = sys.argv[1], sys.argv[2:]
    from tracer import START, Tracer  # the script's directory is on sys.path

    tracer = Tracer("cmd")
    with tracer.span("bench.cmd_driver") as root:
        root[START] = start   # from the script's first line, tracer import included
        with tracer.span("import.cli"):
            from expbands import cli
        tracer.install()
        try:
            code = cli.main(argv)
        finally:
            tracer.uninstall()
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
