"""Render the ROADMAP Baseline table from the latest traced run of each workload.

    python3 perfbench/report.py [--out perfbench/BASELINE.md]

Reads perfbench/results/<workload>-seed<n>-trace1.json (the newest per
workload) and writes a markdown table whose rows match the Baseline table:
stage or layer, measured value, and the split behind it. Rows marked
"derived" scale a measured per-step time by a step count. End-to-end
figures come from the untraced half of each traced run and the layer
splits from its traced half, so a split need not add up to its total.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

WORKLOADS = ("train_kde", "train_flow", "serve_kde")
FLOW_DEFAULT_EPOCHS = 3000


def latest_traced(results: Path) -> dict[str, dict]:
    found = {}
    for workload in WORKLOADS:
        runs = sorted(results.glob(f"{workload}-seed*-trace1.json"),
                      key=lambda p: p.stat().st_mtime)
        if runs:
            found[workload] = json.loads(runs[-1].read_text())
    return found


def _m(run: dict, name: str) -> float:
    return run["metrics"][name]["value"]


def rows(runs: dict[str, dict]) -> list[tuple[str, str, str]]:
    out = []
    kde = runs.get("train_kde")
    if kde:
        floor = kde["details"]["floors"]["erm"]
        step = _m(kde, "model.erm_step_ms")
        out.append(("ERM train step", f"{step:.2f} ms",
                    f"encoder forward {_m(kde, 'model.erm_forward_ms'):.2f} ms, backward "
                    f"{_m(kde, 'autodiff.erm_backward_ms'):.2f} ms, Adam "
                    f"{_m(kde, 'optim.erm_step_ms'):.2f} ms; BLAS floor "
                    f"{floor['floor_ms']:.2f} ms ({floor['matmuls_per_step']:.0f} matmuls, "
                    f"{floor['gflop']:.3f} GFLOP), {_m(kde, 'model.erm_over_floor'):.1f}x "
                    f"the floor; alloc peak {_m(kde, 'model.erm_alloc_peak_mb'):.1f} MB"))
        out.append(("ERM share of `train_s` (train_kde)", f"{kde['details']['erm_train_share']:.1%}",
                    "from one traced `train_pipeline` call"))
        out.append(("ERM, 100 epochs", f"{step * floor['steps_per_epoch'] * 100 / 1e3:.1f} s",
                    f"derived: step x {floor['steps_per_epoch']} steps x 100 epochs"))
        out.append(("KDE fit + `compute_scale`",
                    f"{_m(kde, 'density.fit_ms') + _m(kde, 'density.compute_scale_ms'):.1f} ms",
                    f"fit {_m(kde, 'density.fit_ms'):.2f} ms, scale "
                    f"{_m(kde, 'density.compute_scale_ms'):.2f} ms"))
        out.append(("re-optimization (10 epochs)", f"{_m(kde, 'predictor.reopt_s') * 1e3:.1f} ms",
                    "head only, on precomputed latents and s"))
        out.append(("GC pauses per `train_pipeline` (train_kde)",
                    f"{_m(kde, 'runtime.gc_pause_ms'):.1f} ms",
                    f"{_m(kde, 'runtime.gc_collections'):.0f} collections"))
    flow = runs.get("train_flow")
    if flow:
        floor = flow["details"]["floors"]["flow"]
        step = _m(flow, "density.flow_step_ms")
        out.append(("flow train step (d=128, 16 hidden)", f"{step:.2f} ms",
                    f"forward {_m(flow, 'density.flow_forward_ms'):.2f} ms, backward "
                    f"{_m(flow, 'autodiff.flow_backward_ms'):.2f} ms, Adam "
                    f"{_m(flow, 'optim.flow_step_ms'):.2f} ms; BLAS floor "
                    f"{floor['floor_ms']:.3f} ms, {_m(flow, 'density.flow_over_floor'):.0f}x "
                    f"the floor; alloc peak {_m(flow, 'density.flow_alloc_peak_mb'):.1f} MB"))
        out.append(("`flow_fit` share of `train_s` (train_flow)",
                    f"{flow['details']['flow_fit_share']:.1%}",
                    "from one traced `train_pipeline` call"))
        out.append((f"flow, default {FLOW_DEFAULT_EPOCHS} epochs",
                    f"{step * floor['steps_per_epoch'] * FLOW_DEFAULT_EPOCHS / 6e4:.1f} min",
                    f"derived: step x {floor['steps_per_epoch']} steps x "
                    f"{FLOW_DEFAULT_EPOCHS} epochs"))
        out.append(("GC pauses per `train_pipeline` (train_flow)",
                    f"{_m(flow, 'runtime.gc_pause_ms'):.1f} ms",
                    f"{_m(flow, 'runtime.gc_collections'):.0f} collections"))
        out.append(("flow density, per 1,000 rows",
                    f"{_m(flow, 'density.log_density_ms_per_1k'):.2f} ms",
                    "in `compute_scale` and re-optimization batches"))
    serve = runs.get("serve_kde")
    if serve:
        untraced = serve["details"]["untraced"]
        phases = serve["details"]["phases"]
        out.append(("`predict` batch 1 (KDE)",
                    f"{untraced['predict_b1_mean_ms']:.3f} ms mean",
                    f"p50 {phases['predict_b1_p50_ms']:.3f} ms, p99 "
                    f"{phases['predict_b1_p99_ms']:.3f} ms over {phases['b1_samples']} "
                    f"calls; encoder {_m(serve, 'model.encode_b1_us'):.0f} us, KDE "
                    f"{_m(serve, 'density.b1_us'):.0f} us, head + softmax "
                    f"{_m(serve, 'predictor.head_b1_us'):.0f} us, predict self "
                    f"{_m(serve, 'predictor.predict_b1_self_us'):.0f} us"))
        out.append(("`predict` batch 1000 (KDE)",
                    f"{1e6 / untraced['predict_b1000_rows_per_s']:.1f} ms",
                    f"{untraced['predict_b1000_rows_per_s']:.0f} rows/s; encoder "
                    f"{_m(serve, 'model.encode_b1000_ms'):.1f} ms, KDE "
                    f"{_m(serve, 'density.b1000_ms'):.1f} ms (alloc peak "
                    f"{_m(serve, 'density.b1000_alloc_peak_mb'):.0f} MB), head + softmax "
                    f"{_m(serve, 'predictor.head_b1000_ms'):.2f} ms"))
        out.append(("container save / load", f"{_m(serve, 'serialize.save_ms'):.0f} / "
                    f"{_m(serve, 'serialize.load_ms'):.0f} ms",
                    f"{_m(serve, 'serialize.container_mb'):.1f} MB JSON"))
    return out


def render(runs: dict[str, dict]) -> str:
    lines = ["| stage / layer | measured | note |", "|---|---|---|"]
    lines += [f"| {a} | {b} | {c} |" for a, b, c in rows(runs)]
    if runs:
        m = next(iter(runs.values()))["machine"]
        lines += ["", f"Machine: {m['nproc']} cores, Python {m['python']}, numpy "
                      f"{m['numpy']}, {m['blas']} {m['blas_version']} at "
                      f"{m['blas_threads']} thread(s), commit {m['git_commit']}. Runs: "
                  + ", ".join(f"{w} seed {r['seed']} ({r['seconds']:g} s)"
                              for w, r in runs.items())
                  + ". Totals are untraced; splits come from the traced half of the run."]
    return "\n".join(lines) + "\n"


def write(results: Path, out: Path) -> None:
    out.write_text(render(latest_traced(results)))


def main() -> None:
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=here / "results" / "baseline.md")
    args = parser.parse_args()
    write(here / "results", args.out)
    print(args.out.read_text(), end="")


if __name__ == "__main__":
    main()
