"""Run one ecgscalo benchmark workload and print its metrics.

    python3 perfbench/run.py --workload prepare_cohort --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
checkout the script sits in. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The whole run record, with the run environment and every
check failure, goes to ``perfbench/results/runs/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import envinfo

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# names only: importing ``workloads`` imports numpy and the program, which
# must wait until the BLAS thread count is set
WORKLOADS = ("prepare_cohort", "label_one", "train_steps")


def end_to_end(out) -> dict:
    lat = sorted(out.latencies)
    p50 = statistics.median(lat)
    metrics = {
        "setup_s": (out.setup_s, "s"),
        "latency_ms_p50": (1000.0 * p50, "ms"),
        "latency_ms_p90": (1000.0 * statistics.quantiles(
            lat, n=10, method="inclusive")[-1] if len(lat) > 1 else
            1000.0 * lat[0], "ms"),
        "throughput_per_s": (out.samples_per_op * len(lat) / sum(lat), "1/s"),
        "epoch_projected_s": (out.corpus_ops * p50, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(out, tracer) -> dict:
    metrics = {f"{name}_ms": {"value": v, "unit": "ms"}
               for name, v in tracer.medians_ms().items()}
    metrics.update({name: {"value": v, "unit": "count"}
                    for name, v in tracer.counts.items()})
    metrics["trace.overhead_ms"] = {"value": out.trace_overhead_ms,
                                    "unit": "ms"}
    return dict(sorted(metrics.items()))


def declared_per_layer() -> list[str]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    return [m["name"] for m in json.loads(path.read_text())["per_layer"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ecgscalo" / "__init__.py").is_file():
        print(f"error: no ecgscalo sources under {src}", file=sys.stderr)
        return 2
    blas_threads = envinfo.set_blas_threads()
    sys.path.insert(0, str(src))
    jiffies = envinfo.cpu_jiffies()
    wall = time.perf_counter()

    import cohort  # the benchmark's own numpy import happens here

    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=HERE / "work"))
    try:
        records = cohort.write_cohort(workdir / "records", args.seed)
        start = time.perf_counter()
        import ecgscalo.cli  # noqa: F401  (every module the workloads call)
        import_s = time.perf_counter() - start
        import workloads

        ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                                workdir=workdir, records=records,
                                import_s=import_s)
        tracer = workloads.Tracer() if args.trace else None
        out = workloads.WORKLOADS[args.workload](ctx, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(out, tracer)
        out.not_measured += [n for n in declared_per_layer()
                             if n not in metrics]
    else:
        metrics = end_to_end(out)
    result = {"correct": not out.failures, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "operations_timed": len(out.latencies),
              "latencies_ms": [round(1000.0 * v, 4) for v in out.latencies],
              "wall_s": time.perf_counter() - wall,
              "minor_faults": resource.getrusage(
                  resource.RUSAGE_SELF).ru_minflt,
              "environment": {**envinfo.describe(blas_threads),
                              **envinfo.steal(jiffies,
                                              envinfo.cpu_jiffies())},
              "check_failures": out.failures, "errors": out.errors,
              "not_measured": out.not_measured, "result": result}
    runs = HERE / "results" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    for line in out.failures[:20] + out.errors[:20]:
        print(f"check: {line}", file=sys.stderr)
    for name in out.not_measured:
        print(f"not measured: {name}", file=sys.stderr)
    env = record["environment"]
    print(f"{args.workload} seed {args.seed}: {len(out.latencies)} timed "
          f"operations, nproc {env['nproc']}, BLAS threads "
          f"{[b['threads'] for b in env['openblas']]}, steal "
          f"{100 * env['steal_share']:.1f}%")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
