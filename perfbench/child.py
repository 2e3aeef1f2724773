"""One workload in one process: set up, warm up, then run timed rounds.

Run by run.py, never by hand:

    python3 perfbench/child.py --workload hom --seed 1 --seconds 30 --mode measure \
        --t0 <time.monotonic() of the parent just before it started this process>

Modes: `setup` stops after the warm-up job; `measure` times rounds with
tracing off; `trace` times rounds with tracing off for half of the time, then
installs the tracer and times rounds for the other half.  The last line of
standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_JOBS = 100  # so that 10 or more job times lie beyond the 90th percentile


def import_library():
    """Import the library from this checkout's src, and from nowhere else."""
    sys.path.insert(0, SRC)
    import necklace_calculus

    if not os.path.abspath(necklace_calculus.__file__).startswith(SRC + os.sep):
        raise ImportError(f"necklace_calculus imported from outside {SRC}")


def run_job(job, times: list, failures: list, observed: dict) -> None:
    """Time job.run(), then check its output; a failure is recorded, never raised."""
    t = time.perf_counter()
    try:
        res = job.run()
    except Exception as exc:
        times.append(time.perf_counter() - t)
        failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
        return
    times.append(time.perf_counter() - t)
    try:
        ok, got = job.check(res)
    except Exception as exc:
        ok, got = False, f"{type(exc).__name__}: {exc}"
    observed.setdefault(job.name, got)
    if not ok:
        failures.append(f"{job.name}: got {got}")


def run_rounds(wl, seconds: float, min_jobs: int, times: list, failures: list,
               observed: dict) -> int:
    """Whole rounds until the next one would end further from `seconds` than
    this one, and at least `min_jobs` jobs are timed.  Returns the rounds run."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for job in wl.round():
            run_job(job, times, failures, observed)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 >= seconds and len(times) >= min_jobs:
            return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)

    import_library()
    import workloads

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, ".work"))
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, workdir)
        warm_failures: list = []
        run_job(wl.warmup, [], warm_failures, {})
        setup_s = time.monotonic() - args.t0
        out = {"setup_s": setup_s, "warmup_ok": not warm_failures}
        if args.mode == "measure":
            times, failures, observed = [], [], {}
            out["rounds"] = run_rounds(wl, args.seconds, MIN_JOBS, times, failures, observed)
            out.update(job_times=times, failures=failures)
        elif args.mode == "trace":
            out.update(trace_run(wl, args.seconds, args.seed))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def trace_run(wl, seconds: float, seed: int) -> dict:
    import tracer

    times, failures, observed = [], [], {}
    plain_rounds = run_rounds(wl, seconds / 2, 1, times, failures, observed)
    plain_rate = len(times) / sum(times)
    tr = tracer.Tracer()
    tr.install()
    traced_times: list = []
    tr.enabled = True
    rounds = run_rounds(wl, seconds / 2, 1, traced_times, failures, observed)
    tr.enabled = False
    traced_rate = len(traced_times) / sum(traced_times)
    spans_file = os.path.join(HERE, "out", f"trace-{wl.name}-seed{seed}.jsonl")
    tr.write_spans(spans_file)
    layers = tr.per_round(rounds)
    layers["trace.overhead_ratio"] = plain_rate / traced_rate
    return {"layers": layers, "job_times": times + traced_times, "failures": failures,
            "rounds": [plain_rounds, rounds],
            "spans_file": os.path.relpath(spans_file, ROOT)}


if __name__ == "__main__":
    sys.exit(main())
