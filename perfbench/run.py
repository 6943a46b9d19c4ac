"""Benchmark of the density-softmax pipeline: training and serving.

Run from the repository root:

    python3 perfbench/run.py --workload train_kde --seed 0 --seconds 30 --trace 0

Workloads are train_kde, train_flow and serve_kde (see harness.py). With
``--trace 0`` the run measures end-to-end metrics; with ``--trace 1`` it
also traces every layer boundary and reports per-layer metrics plus the
tracing overhead. Metric names, units and directions come from
BENCHMARK.json at the repository root. The last line of standard output
is one JSON object: correct, attempted, failed, metrics. A full record
(machine, digests, per-repetition figures) goes to
perfbench/results/<workload>-seed<seed>-trace<t>.json, and a traced run
re-renders perfbench/results/baseline.md.

The program is imported from src/ of the same checkout; the run fails with
exit code 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREADS = "1"


def load_program() -> None:
    """Pin BLAS to one thread, then make src/ of this checkout importable.

    Must run before numpy is imported: OpenBLAS reads its thread count once.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "density_softmax" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}/density_softmax")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))


def metric_specs(trace: bool) -> dict[str, dict]:
    """The metrics a run must print: end-to-end, or per-layer when traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(out: dict, specs: dict[str, dict]) -> dict:
    """The JSON object printed last: correct, attempted, failed, metrics."""
    if set(out["metrics"]) != set(specs):
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(out['metrics']) ^ set(specs))}")
    ops = out["ops"]
    metrics = {name: {"value": float(value), "unit": specs[name]["unit"]}
               for name, value in out["metrics"].items()}
    return {"correct": ops.failed == 0, "attempted": ops.attempted,
            "failed": ops.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        load_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import harness
    import machine
    import report

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(harness.WORKLOADS)}")
    specs = metric_specs(bool(args.trace))
    out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(out, specs)
    ops, metrics = out["ops"], line["metrics"]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine.record(ROOT),
              "attempted": ops.attempted, "failed": ops.failed,
              "problems": dict(ops.problems), "metrics": metrics,
              "details": out["details"]}
    harness.RESULTS_DIR.mkdir(exist_ok=True)
    path = harness.RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    if args.trace:
        report.write(harness.RESULTS_DIR, harness.RESULTS_DIR / "baseline.md")

    for name, m in metrics.items():
        better = specs[name].get("better", "")
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']:10s} {better}")
    print(f"operations attempted {ops.attempted}, failed {ops.failed}"
          + (f": {dict(ops.problems)}" if ops.failed else ""))
    details = out["details"]
    print(f"digests {json.dumps(details['digests'])}")
    ph = details["phases"]
    print(f"batch-1 p99 {ph['predict_b1_p99_ms']:.4f} ms over {ph['b1_samples']} samples "
          f"({ph['b1_samples_above_p99']} above it), batches {ph['batches']}")
    for key in harness.QUALITY_RECORD:
        if key in details:
            print(f"{key} {details[key]:.6g} (recorded, not a metric)")
    if "erm_train_share" in details:
        print(f"share of train_s: erm_train {details['erm_train_share']:.3f}, "
              f"flow_fit {details['flow_fit_share']:.3f}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
