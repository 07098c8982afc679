"""One benchmark pass in a fresh interpreter.

Usage: python3 worker.py SRC_DIR [--setup-only]

Imports ``kepler_balance.cli`` from SRC_DIR before anything else happens, so
the time from process start to the end of that import is the set-up a CLI
user pays.  With ``--setup-only`` it prints that moment and exits.
Otherwise it reads a job ``{"requests": [argv, ...], "trace": bool,
"spans_path": str | null}`` from stdin, runs every request in order through
``cli.main(argv)`` in this one process (so requests share module caches, as
a library session would), and prints one JSON report on stdout.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback


def run_request(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    start, cpu_start = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # one raising request is counted as failed, the pass goes on
            code, error = None, traceback.format_exc(limit=3)
    return {
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
        "wall_s": time.perf_counter() - start,
        "cpu_s": time.process_time() - cpu_start,
    }


def run_job(cli, job):
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, argv in enumerate(job["requests"]):
        if tracer is not None:
            tracer.request = i
        results.append(run_request(cli, argv))
    report = {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "results": results,
    }
    if tracer is not None:
        report["layers"] = tracer.summary()
        report["missing"] = tracer.missing
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    return report


def main():
    sys.path.insert(0, sys.argv[1])
    cli = importlib.import_module("kepler_balance.cli")
    ready = time.monotonic()
    report = {"ready": ready, "module": cli.__file__}
    if "--setup-only" not in sys.argv[2:]:
        report.update(run_job(cli, json.load(sys.stdin)))
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
