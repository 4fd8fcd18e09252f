"""Measure every workload and write ``perfbench/baseline.json``.

Run from the root of a checkout:

    python3 perfbench/baseline.py

For each workload this makes ten untraced runs, one per seed 1..10, and
one traced run with seed 1, all through ``run.py``.  It records each
end-to-end metric's median and its spread (the distance between the
first and third quartiles over the median), how many items failed the
output checks, the per-layer profile, and the ``Q``/``F_5`` cost ratio
per n class.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from inputs import N_CLASSES

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "baseline.json")
RUNS = 10
NOT_GATED = {
    "in_co": "not checked against classify: the relation-plane column test {1..m, m+p+n} "
             "disagrees with co, which is the open criterion-6 discrepancy, not a benchmark failure",
    "moduli_point cell": "for n >= 4 and codes with two or more occupied columns the pivots of "
                         "moduli_point depend on the canonical form's entries and may differ from "
                         "multiindex_from_code(kalman_code), an open defect of the program; there "
                         "the point must only lie in the chart of that multi-index, and elsewhere "
                         "the pivots must equal it",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)

    out = {"python": platform.python_version(), "cpus": os.cpu_count(),
           "runs": RUNS, "run_seconds": bench["run_seconds"], "not_gated": NOT_GATED,
           "workloads": {}}
    for workload in bench["workloads"]:
        name = workload["name"]
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in range(1, RUNS + 1):
            result = run_once(name, seed, bench["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(name, f"seed {seed}", f"failed {result['failed']} of {result['attempted']}",
                  *(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()),
                  flush=True)
        end_to_end = {}
        for metric, series in values.items():
            quartiles = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            end_to_end[metric] = {"median": median, "spread": (quartiles[2] - quartiles[0]) / median,
                                  "values": series}
        traced = run_once(name, 1, bench["run_seconds"], 1)["metrics"]
        out["workloads"][name] = {
            "why": workload["why"],
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced.items() if v["value"]},
        }

    q = out["workloads"].get("pipeline-q", {}).get("per_layer", {})
    f5 = out["workloads"].get("pipeline-fq", {}).get("per_layer", {})
    out["q_over_f5_item_p50"] = {
        f"n{n}": q[f"item.n{n}.p50_ms"] / f5[f"item.n{n}.p50_ms"]
        for n in N_CLASSES if q.get(f"item.n{n}.p50_ms") and f5.get(f"item.n{n}.p50_ms")
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
