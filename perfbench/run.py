"""Benchmark entry point.

    python3 perfbench/run.py --workload {hom,straighten,dual} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in processes of its own
(child.py), so peak memory and the library's process-wide memo tables belong
to that workload alone.  With --trace 0 the end-to-end metrics are measured:
set-up is timed in SETUP_RUNS processes and reported as their median, and the
last of them goes on to time jobs.  With --trace 1 one process reports the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hom", "straighten", "dual")
SETUP_RUNS = 5
DEADLINE_S = 170  # a run ends within 180 s


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one child process to completion; its last stdout line is its result."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--t0", repr(t0)]
    # a fixed string-hash seed per workload seed makes set and dict orders repeat
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - t0, 1))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process for {args.workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile(xs: list[float], q: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    res = spawn(args, "measure", deadline)
    setups.append(res["setup_s"])
    times = res["job_times"]
    attempted, failed = len(times), len(res["failures"])
    metrics = {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_p90": (percentile(times, 90), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return res, metrics


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    import tracer

    res = spawn(args, "trace", deadline)
    units = dict(tracer.LAYER_METRICS)
    return res, {name: (value, units[name]) for name, value in res["layers"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "necklace_calculus", "__init__.py")):
        print(f"error: no library source under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        res, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = len(res["job_times"]), len(res["failures"])
    correct = failed == 0 and res["warmup_ok"]
    if not res["warmup_ok"]:
        print("failed: the warm-up job", file=sys.stderr)
    for line in res["failures"][:10]:
        print(f"failed: {line}", file=sys.stderr)
    print(f"{args.workload}: {attempted} jobs in {res['rounds']} rounds, {failed} failed; "
          f"peak {res['peak_rss_mb']:.1f} MB", file=sys.stderr)
    if "spans_file" in res:
        print(f"spans written to {res['spans_file']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
