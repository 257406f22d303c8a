"""One call of ``addsel.cli.main`` in a fresh interpreter, timed from inside.

Usage: child.py TRACE SRC_DIR CLI_ARG...

Prints one JSON object on standard output:
``setup_s`` (time to import addsel.cli; interpreter start is not counted),
``wall_s`` and ``cpu_s`` (process CPU, user + sys over all threads) of the
``main()`` call, ``peak_rss_mb`` (ru_maxrss, MiB), ``rc`` (main's return code,
-1 if it raised) and, with TRACE=1, ``layers`` from tracer.py. Exits 3 if
addsel is not imported from SRC_DIR.

Only ``sys`` and ``time`` are imported before the import being timed, so
``setup_s`` holds everything ``addsel.cli`` pulls in.
"""

import sys
import time


def main():
    trace = sys.argv[1] == "1"
    src = sys.argv[2]
    cli_args = sys.argv[3:]

    t0 = time.perf_counter()
    import addsel.cli
    setup_s = time.perf_counter() - t0

    import json
    import os
    import resource
    import traceback

    src_real = os.path.realpath(src)
    if not os.path.realpath(addsel.cli.__file__).startswith(src_real + os.sep):
        sys.stderr.write(f"addsel was imported from {addsel.cli.__file__}, not {src}\n")
        return 3

    tracer = names = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        names = tracer.install()

    error = None
    c0 = time.process_time()
    w0 = time.perf_counter()
    try:
        rc = addsel.cli.main(cli_args)
    except Exception:  # the run reports the failure as failed operations
        rc = -1
        error = traceback.format_exc()
    wall_s = time.perf_counter() - w0
    cpu_s = time.process_time() - c0

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if error:
        result["error"] = error
    if tracer is not None:
        result["layers"] = tracer.metrics(names)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
