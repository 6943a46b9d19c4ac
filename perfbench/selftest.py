"""Self-test of the benchmark harness at a tiny problem size (seconds, not minutes).

    python3 perfbench/selftest.py

Checks that:
* every workload emits exactly the end-to-end metrics of BENCHMARK.json
  untraced and exactly its per-layer metrics traced, each with its unit and
  a finite value; no operation fails;
* two runs on one seed give equal digests, and another seed does not;
* the output checker counts deliberately corrupted predictions as failures.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    run.load_program()
    import numpy as np

    import checks
    import harness

    errors: list[str] = []
    digests = {}
    for workload in harness.WORKLOADS:
        for trace in (0, 1):
            specs = run.metric_specs(bool(trace))
            out = harness.run(workload, 3, 0.01, bool(trace), harness.TINY)
            try:
                line = run.result_line(out, specs)
            except SystemExit as exc:
                errors.append(f"{workload} trace {trace}: {exc}")
                continue
            if line["failed"] or not line["correct"]:
                errors.append(f"{workload} trace {trace}: {dict(out['ops'].problems)}")
            for name, m in line["metrics"].items():
                if not m["unit"] or not np.isfinite(m["value"]):
                    errors.append(f"{workload}: {name} has no unit or a non-finite value")
            if trace == 0:
                digests[workload] = out["details"]["digests"]

    for workload in ("train_flow", "serve_kde"):
        again = harness.run(workload, 3, 0.01, False, harness.TINY)["details"]["digests"]
        other = harness.run(workload, 4, 0.01, False, harness.TINY)["details"]["digests"]
        if again != digests[workload]:
            errors.append(f"{workload}: digests differ between two runs on one seed")
        if other == digests[workload]:
            errors.append(f"{workload}: digests do not depend on the seed")

    errors += corruption_errors(harness, checks)
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


def corruption_errors(harness, checks) -> list[str]:
    """Corrupt a real prediction in several ways; each must be a failed op."""
    import numpy as np

    from density_softmax import predictor

    w = harness.WORKLOADS["serve_kde"]
    cfg = harness.experiment(w, 3, harness.TINY)
    sets = harness.ds_config.build_datasets(cfg)
    model = predictor.train_pipeline(sets["train"], cfg.encoder, cfg.train,
                                     cfg.density, cfg.reopt, cfg.k).model
    pred = model.predict(sets["iid_test"].features)
    logits = model.classifier.logits(pred.latent)
    row = int(np.argmax(np.abs(pred.probs[:, 0] - pred.probs[:, 1])))
    good = (pred.probs[row:row + 1].copy(), pred.scaled_likelihood[row:row + 1].copy())
    errors = []
    if checks.prediction_problems(*good, logits[row:row + 1]):
        errors.append("checker rejects an uncorrupted prediction")
    corrupt = {
        "swapped classes": (good[0][:, ::-1], good[1]),
        "rows not summing to 1": (good[0] * 1.01, good[1]),
        "NaN probability": (np.full_like(good[0], np.nan), good[1]),
        "s above 1": (good[0], good[1] * 0 + 1.5),
        "s below the floor": (good[0], good[1] * 0),
    }
    ops = harness.Ops()
    for name, (probs, s) in corrupt.items():
        before = ops.failed
        ops.record(checks.prediction_problems(probs, s, logits[row:row + 1]))
        if ops.failed != before + 1:
            errors.append(f"checker does not count '{name}' as a failed operation")
    nudged = good[0] + np.array([[1e-9, -1e-9]])
    if not checks.batch_mismatch_rows(nudged, good[0]).all():
        errors.append("checker misses a batch-1 result 1e-9 away from the batched one")
    return errors


if __name__ == "__main__":
    sys.exit(main())
