"""Write baseline.json: two sets of ten runs per workload and one traced run.

    python3 perfbench/baseline.py --commit <sha>

Run from the root of a checkout, on an otherwise idle machine.  For each
workload it runs the benchmark at seeds 1-10 and 11-20 and records, per
end-to-end metric and set, the median, the quartiles and the spread
(interquartile range / median, quartiles as ``statistics.quantiles(n=4)``
gives them); then one traced run at seed 1 for the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = {"seeds_1_10": range(1, 11), "seeds_11_20": range(11, 21)}


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    tail = re.search(r"\((p\d+ of \d+ samples)\)", proc.stdout)
    return result["metrics"], tail.group(1) if tail else None


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round((q3 - q1) / median, 4)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True)
    parser.add_argument("--workloads", default="chain,mutants,oracle")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    import numpy

    out = {
        "commit": args.commit,
        "machine": {"cpu": platform.processor() or platform.machine(),
                    "nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "blas_threads": 1},
        "run_seconds": seconds,
        "end_to_end": {},
        "per_layer_seed_1": {},
    }
    for workload in args.workloads.split(","):
        per_metric, tails = {}, []
        for set_name, seeds in SETS.items():
            values = {}
            for seed in seeds:
                metrics, tail = run(workload, seed, seconds, 0)
                tails.append(tail)
                for name, m in metrics.items():
                    values.setdefault(name, []).append(m["value"])
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in metrics.items()), flush=True)
            for name, vals in values.items():
                entry = per_metric.setdefault(name, {"unit": metrics[name]["unit"]})
                entry[set_name] = summary(vals)
        per_metric["verdict_s.tail"]["percentiles"] = sorted(set(tails))
        out["end_to_end"][workload] = per_metric
        metrics, _ = run(workload, 1, seconds, 1)
        out["per_layer_seed_1"][workload] = {k: v["value"] for k, v in metrics.items()}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
