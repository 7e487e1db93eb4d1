"""Long-lived in-process caller of ``nk6.cli.main`` for the check-candidates workload.

Usage: python bench/worker.py [TRACE_FILE]

Reads one JSON request per line on stdin, ``{"argv": [...], "trace": bool}``,
calls ``nk6.cli.main(argv)`` with its output captured, and answers with one
JSON line ``{"code", "stdout", "stderr", "seconds", "rss_kb"}``.  ``seconds``
covers the call alone; ``rss_kb`` is this process's peak resident set so
far.  With TRACE_FILE, requests marked ``trace`` run with the tracer
installed, and the spans are written to TRACE_FILE at end of input.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main():
    trace_file = sys.argv[1] if len(sys.argv) > 1 else None
    import nk6.cli

    tracer = None
    if trace_file:
        from tracer import Tracer
        tracer = Tracer()
    traced = False
    reply = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        want = bool(request.get("trace")) and tracer is not None
        if want != traced:
            tracer.install() if want else tracer.uninstall()
            traced = want
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = nk6.cli.main(request["argv"])
            except SystemExit as ex:
                code = ex.code if isinstance(ex.code, int) else 2
            except Exception:
                # what "python -m nk6.cli" would do: a traceback and exit 1
                traceback.print_exc()
                code = 1
        seconds = time.perf_counter() - start
        reply.write(json.dumps({"code": code, "stdout": out.getvalue(),
                                "stderr": err.getvalue(), "seconds": seconds,
                                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
                    + "\n")
        reply.flush()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(trace_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
