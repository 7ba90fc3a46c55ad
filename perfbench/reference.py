"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/reference.py --seeds 1-10 \\
        --out perfbench/results/reference.json

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
then once traced per workload. For every end-to-end metric it reports the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median, beside the metric's bound from
``BENCHMARK.json``, and the host steal share of every run. Run from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values),
            "values": values}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    summary: dict = {"seeds": args.seeds, "seconds": bench["run_seconds"],
                     "workloads": {}}
    for workload in workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, bench["run_seconds"], 0)
            record = json.loads((HERE / "results" / "runs" /
                                 f"{workload}-seed{seed}-trace0.json"
                                 ).read_text())
            result["steal_share"] = record["environment"]["steal_share"]
            results.append(result)
            print(workload, seed, json.dumps(result), flush=True)
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "steal_share": [r["steal_share"] for r in results],
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            if len(values) >= 2:
                entry["end_to_end"][name] = {**spread(values),
                                             "bound": bound}
        traced = run_once(workload, args.seeds[0], bench["run_seconds"], 1)
        entry["per_layer_seed"] = args.seeds[0]
        entry["per_layer"] = {k: v["value"]
                              for k, v in traced["metrics"].items()}
        entry["per_layer_correct"] = traced["correct"]
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:15s} {name:18s} median {s['median']:12.4f} "
                  f"spread {s['iqr_share']:.4f} (bound {s['bound']})",
                  flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
