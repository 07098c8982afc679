"""Benchmark of the kepler-balance CLI on four seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload kernel-interior --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

A run builds the workload's request list from ``--seed``, works out every
reference outside the timed span, and then runs whole passes over the list,
each in a fresh worker process (``worker.py``) that calls
``kepler_balance.cli.main(argv)`` once per request.  It starts another pass
while one more is expected to finish inside ``--seconds``, and always runs
at least one.  Every output is checked against its reference, and every pass
must print byte-identical stdout.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A record of the
run (environment, per-request times and digests) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # for confirming a claim on inputs not used while writing it
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

def spawn(job=None):
    """Run one worker; ``job`` None only measures set-up.  Returns its report."""
    env = {k: v for k, v in os.environ.items() if k != "KEPLER_BALANCE_THREADS"}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), SRC]
    io_args = {"stdin": subprocess.DEVNULL} if job is None else {"input": json.dumps(job)}
    if job is None:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S, **io_args)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout)
    if not os.path.abspath(report["module"]).startswith(SRC + os.sep):
        raise BenchError(f"worker imported kepler_balance from {report['module']}, not {SRC}")
    report["setup_s"] = report["ready"] - start
    report["elapsed_s"] = time.monotonic() - start
    return report


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(ROOT) else None


def src_digest():
    """sha256 over the package sources: identifies the program when git cannot."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(seed):
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "mpmath": mpmath.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "git_sha": _git_sha(),
        "src_sha256": src_digest(),
        "seed": seed,
        "requests": {name: len(workloads.build(name, seed)) for name in workloads.WORKLOADS},
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def percentile(samples, q):
    """Nearest-rank q-quantile and the number of samples above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_passes(requests, passes):
    """Per-execution failure messages: reference misses and nondeterministic stdout."""
    first = [sha256(r["stdout"]) for r in passes[0]["results"]]
    failures = []
    for p in passes:
        for i, (req, res) in enumerate(zip(requests, p["results"])):
            msgs = checks.check(req, res)
            if sha256(res["stdout"]) != first[i]:
                msgs.append("stdout differs between passes of the same commit")
            if msgs:
                failures.append((i, msgs))
    return first, failures


def self_test(requests, results, failures):
    """True when a perturbed copy of the first passing output is caught by the checker."""
    failed = {i for i, _ in failures}
    i = next((i for i in range(len(requests)) if i not in failed), None)
    if i is None:
        return False
    bad = dict(results[i], stdout=checks.perturb(requests[i], results[i]["stdout"]))
    return bool(checks.check(requests[i], bad))


def compare_digests(name, seed, requests, digests, src_sha):
    """Digests of the same commit must repeat across runs; a new commit's change is reported."""
    path = os.path.join(OUT_DIR, f"digests-{name}-seed{seed}.json")
    argv_sha = sha256(json.dumps([r.argv for r in requests]))
    notes, same_commit_mismatch = [], False
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
        changed = 0
        if old["argv_sha256"] == argv_sha:  # else the benchmark itself changed the inputs
            changed = sum(a != b for a, b in zip(old["digests"], digests))
        if changed and old["src_sha256"] == src_sha:
            same_commit_mismatch = True
            notes.append(f"stdout of {changed} requests differs from an earlier run of this commit")
        elif changed:
            notes.append(f"stdout of {changed} of {len(digests)} requests changed since "
                         f"src {old['src_sha256'][:12]}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"src_sha256": src_sha, "argv_sha256": argv_sha, "digests": digests}, fh)
    return notes, same_commit_mismatch


def run_workload(name, seed, seconds, trace):
    env = environment(seed)
    requests = workloads.build(name, seed)
    ref_start = time.monotonic()
    checks.prepare(requests)
    ref_s = time.monotonic() - ref_start
    argvs = [r.argv for r in requests]

    passes, start = [], time.monotonic()
    while True:
        passes.append(spawn({"requests": argvs, "trace": False}))
        if trace or time.monotonic() + passes[-1]["elapsed_s"] > start + seconds:
            break
    checked = list(passes)
    traced = None
    if trace:
        spans = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.csv")
        traced = spawn({"requests": argvs, "trace": True, "spans_path": spans})
        checked.append(traced)

    digests, failures = check_passes(requests, checked)
    attempted = len(requests) * len(checked)
    problems = [f"request {i} {' '.join(requests[i].argv)}: {'; '.join(m)}"
                for i, m in failures]
    if not self_test(requests, passes[0]["results"], failures):
        problems.append("self-test: a perturbed output passed the reference check")
    notes, mismatch = compare_digests(name, seed, requests, digests, env["src_sha256"])
    if mismatch:
        problems += notes
        notes = []

    lines = [f"workload {name}: seed {seed}, {len(requests)} requests, {len(passes)} "
             f"untraced pass(es){', 1 traced pass' if trace else ''}, references {ref_s:.2f} s"]
    share = workloads.reuse_share(requests)
    lines.append("density reuse: none, no kernel requests" if share is None else
                 f"density reuse: {share:.0%} of requests reuse a density seen earlier in the run")
    lines += notes
    metrics = {}
    if trace:
        metrics, absent = trace_metrics(name, passes[0], traced, lines)
        problems += absent
    else:
        setup = [p["setup_s"] for p in passes]
        while len(setup) < SETUP_SAMPLES:
            setup.append(spawn()["setup_s"])
        per_request = {key: [statistics.median(p["results"][i][key] for p in passes)
                             for i in range(len(requests))] for key in ("wall_s", "cpu_s")}
        values = {
            "wall_s": math.fsum(per_request["wall_s"]),
            "cpu_s": math.fsum(per_request["cpu_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        for metric, unit in END_TO_END:
            metrics[metric] = {"value": values[metric], "unit": unit}
            lines.append(f"{metric} {values[metric]:.6g} {unit}")
        for label, q in (("req_s.p50", 0.5), ("req_s.p90", 0.9)):
            value, above = percentile(per_request["wall_s"], q)
            if above >= 10:
                lines.append(f"{label} {value:.6g} s ({len(requests)} requests, {above} above)")
            else:
                lines.append(f"{label} not reported: {len(requests)} requests leave "
                             f"{above} above it (needs 10)")
    failed = len(failures)
    lines.append(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    lines += [f"FAILED {p}" for p in problems]
    correct = not problems

    record = {
        "workload": name, "trace": trace, "environment": env, "metrics": metrics,
        "problems": problems,
        "passes": [{"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "setup_s": p["setup_s"],
                    "peak_rss_mb": p["peak_rss_mb"]} for p in checked],
        "requests": [{"argv": r.argv, "stdout_sha256": d,
                      "wall_s": [p["results"][i]["wall_s"] for p in checked]}
                     for i, (r, d) in enumerate(zip(requests, digests))],
    }
    with open(os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"environment {json.dumps(env, sort_keys=True)}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return correct


def trace_metrics(name, untraced, traced, lines):
    """Per-layer metrics of the traced pass; absent and unexpectedly-zero ones are problems."""
    layers = dict(traced["layers"])
    layers[tracing.OVERHEAD] = traced["wall_s"] / untraced["wall_s"] - 1.0
    problems = []
    for missing in traced["missing"]:
        problems.append(f"traced layer {missing} no longer exists: its metrics are absent")
    metrics = {}
    for metric, mapped in tracing.metric_names().items():
        if metric not in layers:
            lines.append(f"{metric} absent")
            continue
        value = layers[metric]
        stat = metric.rsplit(".", 1)[1]
        unit = ("ratio" if stat in ("useful_ratio", "overhead_frac")
                else "s" if stat == "self_s" else "count")
        metrics[metric] = {"value": value, "unit": unit}
        lines.append(f"{metric} {value:.6g} {unit}")
        if name in mapped and not value > 0:
            problems.append(f"{metric} is {value} on {name}, the workload it is mapped to")
    return metrics, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed; {HELD_OUT_SEED} is held out for confirming claims")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kepler_balance", "cli.py")):
        sys.stderr.write(f"perfbench: no program to measure at {SRC}/kepler_balance\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            ok &= run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            sys.stderr.write(f"perfbench: {name}: {exc}\n")
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
