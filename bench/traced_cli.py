"""Run one nk6 command with tracing installed; the traced twin of ``python -m nk6.cli``.

Usage: python bench/traced_cli.py TRACE_FILE NK6_ARG...

The spans are written to TRACE_FILE when the command ends; the exit code is
the command's.
"""

import sys

from tracer import Tracer


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import nk6.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = nk6.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
