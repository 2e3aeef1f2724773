"""Self-test of the benchmark itself; takes a few minutes.

    python3 perfbench/selftest.py

Checks that:
  * BENCHMARK.json names exactly the metrics run.py and tracer.py report;
  * a wrong expectation is counted as a failed job, not a crash;
  * two seeds give different generator ids but identical nd_counts, on every
    workload (one round each; a dual round is the whole 140-case battery);
  * two traced runs on one seed report identical count metrics, and the hom
    workload never calls kan.enriched_lan, ops.colimit, ops.product or
    ops.find_iso.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import tracer  # noqa: E402

HOM_BYPASSES = ["kan.enriched_lan.calls", "ops.colimit.calls", "ops.product.calls",
                "ops.find_iso.calls"]


def check(cond: bool, what: str) -> None:
    print(f"[{'pass' if cond else 'FAIL'}] {what}", flush=True)
    if not cond:
        sys.exit(1)


def one_round(builder, seed: int, expected=None):
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as workdir:
        wl = builder(seed, workdir, expected)
        times, failures, observed = [], [], {}
        child.run_rounds(wl, 0, 1, times, failures, observed)
        return wl, len(times), failures, observed


def run_traced(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([m["name"] for m in spec["per_layer"]] == [n for n, _ in tracer.LAYER_METRICS],
          "BENCHMARK.json per_layer matches tracer.LAYER_METRICS")

    child.import_library()
    import workloads

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    wrong = {name: (1,) for name, *_ in workloads.HOM_CASES}
    _, attempted, failures, _ = one_round(workloads.build_hom, 1, wrong)
    check(attempted == 3 and len(failures) == 3,
          f"wrong hom expectations give fail_ratio {len(failures)}/{attempted} > 0")

    for name, builder in workloads.BUILDERS.items():
        wl1, n1, f1, obs1 = one_round(builder, 1)
        wl2, n2, f2, obs2 = one_round(builder, 2)
        check(not f1 and not f2, f"{name}: seeds 1 and 2 pass all {n1} checks")
        check(obs1 == obs2, f"{name}: seeds 1 and 2 give identical nd_counts")
        check(wl1.ids != wl2.ids, f"{name}: seeds 1 and 2 give different generator ids")

    for name in workloads.BUILDERS:
        a, b = run_traced(name, 5), run_traced(name, 5)
        check(set(a) == set(dict(tracer.LAYER_METRICS)), f"{name}: traced run reports every "
              "per-layer metric")
        counts = [n for n, unit in tracer.LAYER_METRICS if unit == "count"]
        check(all(a[n] == b[n] for n in counts),
              f"{name}: count metrics repeat exactly between two traced runs")
        if name == "hom":
            check(all(a[n] == 0 for n in HOM_BYPASSES), "hom bypasses " + ", ".join(HOM_BYPASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
