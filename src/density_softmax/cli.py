"""Command-line experiment harness.

Subcommands: run, surface, hist-likelihood, reliability, bench, compare,
gen-data. Exit codes: 0 success, 2 configuration/input error, 3 training or
runtime failure. Set DS_LOG=DEBUG|INFO|WARNING to control logging.

All artifacts are pure functions of (config, seeds): JSON is dumped with
sorted keys, CSV uses fixed formatting, and no file embeds a timestamp.
Latency numbers are inherently non-reproducible, so they only appear in
bench output, never in run/compare reports.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import metrics as M
from .config import ConfigError, ExperimentConfig, build_datasets, load_config
from .data import DataError, LabeledSet, load_csv, save_csv
from .model import TrainingDiverged
from .ops import NonFiniteRow
from .predictor import (DensitySoftmaxModel, PipelineError, PipelineResult,
                        ensemble_train, predictive_summaries, train_pipeline)
from .serialize import (ContainerError, container_kind, density_softmax_container,
                        ensemble_container, load_container, save_container)
from .svg import heatmap_svg, histogram_svg, reliability_svg

log = logging.getLogger("density_softmax")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _bins_csv(bins: list[M.BinStats]) -> str:
    lines = ["bin,count,acc,conf"]
    for b in bins:
        lines.append(f"{b.bin},{b.count},{b.acc:.17g},{b.conf:.17g}")
    return "\n".join(lines) + "\n"


# -- model evaluation helpers -------------------------------------------------


def _check_width(model, dataset: LabeledSet, path) -> None:
    """A DataError naming the file and both widths when the dataset's
    feature columns are not the model's inputs."""
    width = dataset.features.shape[1]
    if width != model.input_dim:
        raise DataError(f"{path}: {width} feature columns, the model takes "
                        f"{model.input_dim} inputs")


@contextmanager
def _rows_of(path):
    """A row of the CSV at path that is not finite, or whose latent
    overflows in the encoder, becomes a DataError naming the file and the
    data row (counted from 0)."""
    try:
        yield
    except NonFiniteRow as exc:
        raise DataError(f"{path}: data row {exc.row}: its {exc.what} is not finite") from None


def _ood_scores(pred) -> dict[str, np.ndarray]:
    """OOD scores of a prediction, oriented so higher means more OOD."""
    scores = {"neg_max_prob": -pred.probs.max(axis=1)}
    if pred.scaled_likelihood is not None:
        scores["neg_scaled_likelihood"] = -pred.scaled_likelihood
    return scores


def _evaluate_model(model, name: str, sets: dict[str, LabeledSet],
                    bins: int) -> tuple[dict[str, M.EvalReport], dict]:
    """The model's report on every set, and its OOD detection of the ood set
    against iid_test, from one prediction per set."""
    reports: dict[str, M.EvalReport] = {}
    scores: dict[str, dict[str, np.ndarray]] = {}
    for tag, dataset in sets.items():
        pred = model.predict(dataset.features)
        labels = None if dataset.domain == "ood" else dataset.labels
        report = M.evaluate_predictions(tag, pred.probs, labels,
                                        pred.scaled_likelihood, bins)
        report.param_count = model.param_count()
        reports[tag] = report
        log.info("%s on %s: acc=%s ece=%s", name, tag,
                 report.accuracy, report.ece)
        if tag in ("iid_test", "ood"):
            scores[tag] = _ood_scores(pred)
    detection = {score: M.ood_detection(scores["iid_test"][score], scores["ood"][score])
                 for score in scores["iid_test"]}
    return reports, detection


# -- subcommands ----------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = Path(args.out)
    sets = build_datasets(cfg)
    (out / "data").mkdir(parents=True, exist_ok=True)
    for tag, dataset in sets.items():
        save_csv(dataset, out / "data" / f"{tag}.csv")
    log.info("wrote %d datasets under %s", len(sets), out / "data")
    return EXIT_OK


def _run_pipeline(cfg: ExperimentConfig, sets: dict[str, LabeledSet]) -> PipelineResult:
    return train_pipeline(sets["train"], cfg.encoder, cfg.train, cfg.density,
                          cfg.reopt, cfg.k)


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.seed)
    out = Path(args.out)
    sets = build_datasets(cfg)
    (out / "data").mkdir(parents=True, exist_ok=True)
    for tag, dataset in sets.items():
        save_csv(dataset, out / "data" / f"{tag}.csv")

    result = _run_pipeline(cfg, sets)
    save_container(density_softmax_container(result.model), out / "model.json")
    save_container(density_softmax_container(result.erm_model), out / "model_erm.json")

    for name, model in (("density_softmax", result.model), ("erm", result.erm_model)):
        reports, detection = _evaluate_model(model, name, sets, cfg.bins)
        for tag, report in reports.items():
            doc = report.to_dict()
            bins = doc.pop("bins")
            _write_json(out / f"report_{name}_{tag}.json", doc)
            if bins is not None:
                _write_text(out / f"bins_{name}_{tag}.csv",
                            _bins_csv(report.bins))
        _write_json(out / f"ood_detection_{name}.json", detection)
    _write_json(out / "loss_traces.json", {
        "erm": result.erm_loss_trace,
        "density": result.density_loss_trace,
        "reoptimize": result.reopt_loss_trace,
    })
    return EXIT_OK


def _parse_bounds(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("bounds", "expected x0,x1,y0,y1")
    try:
        x0, x1, y0, y1 = (float(p) for p in parts)
    except ValueError:
        raise ConfigError("bounds", "expected four numbers") from None
    if x1 <= x0 or y1 <= y0:
        raise ConfigError("bounds", "upper bounds must exceed lower bounds")
    if not (np.isfinite(x1 - x0) and np.isfinite(y1 - y0)):
        raise ConfigError("bounds", "each span x1 - x0 and y1 - y0 must be finite")
    return x0, x1, y0, y1


def cmd_surface(args) -> int:
    model = load_container(args.model)
    if model.k != 2:
        raise ConfigError("model", "surface plots require a binary classifier")
    if model.input_dim != 2:
        raise ConfigError("model", f"surface plots need a 2-input model; this one takes "
                          f"{model.input_dim} inputs")
    x0, x1, y0, y1 = _parse_bounds(args.bounds)
    overlay = _load_overlay_points(model, args.data) if args.data else None
    res = args.resolution
    xs = np.linspace(x0, x1, res)
    ys = np.linspace(y0, y1, res)
    grid = np.array([[x, y] for y in ys for x in xs])
    try:
        pred = model.predict(grid)
    except NonFiniteRow as exc:
        x, y = grid[exc.row]
        raise ConfigError("bounds", f"the {exc.what} of grid point ({x:g}, {y:g}) "
                          "is not finite") from None
    lik = pred.scaled_likelihood
    summary = predictive_summaries(pred.probs, np.ones(len(grid)) if lik is None else lik)
    fields = {"prob_class0": pred.probs[:, 0]}
    for name in ("variance", "entropy_bits", "u", "scaled_likelihood"):
        fields[name] = summary[name]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["x,y," + ",".join(fields)]
    for i, (x, y) in enumerate(grid):
        vals = ",".join(format(fields[f][i], ".17g") for f in fields)
        lines.append(f"{x:.17g},{y:.17g},{vals}")
    _write_text(out / "surface.csv", "\n".join(lines) + "\n")

    for name in ("prob_class0", "variance", "entropy_bits", "u"):
        values = fields[name].reshape(res, res)
        vmax = 1.0
        svg = heatmap_svg(values, f"{name} surface", 0.0, vmax,
                          points=overlay, bounds=(x0, x1, y0, y1))
        _write_text(out / f"surface_{name}.svg", svg)
    return EXIT_OK


def _load_overlay_points(model, data_dir: str) -> list:
    """Scatter overlay from a run's data directory: train classes + OOD."""
    points = []
    colors = {0: "#ff8800", 1: "#3366ff"}
    base = Path(data_dir)
    train_path = base / "train.csv"
    if train_path.exists():
        train = load_csv(train_path)
        _check_width(model, train, train_path)
        for (x, y), label in zip(train.features, train.labels):
            points.append((x, y, colors.get(int(label), "#555555")))
    ood_path = base / "ood.csv"
    if ood_path.exists():
        ood = load_csv(ood_path)
        _check_width(model, ood, ood_path)
        for x, y in ood.features:
            points.append((x, y, "#dd2222"))
    return points


def cmd_hist_likelihood(args) -> int:
    model = load_container(args.model)
    if not isinstance(model, DensitySoftmaxModel) or model.density is None:
        raise ConfigError("model", "likelihood histograms need a density-softmax container")
    base = Path(args.data)
    series = []
    for tag in args.sets:
        path = base / f"{tag}.csv"
        if not path.exists():
            raise ConfigError("sets", f"unknown set tag {tag!r} (no {path})")
        dataset = load_csv(path)
        _check_width(model, dataset, path)
        with _rows_of(path):
            lik = model.density.scaled_likelihood(model.encoder.encode(dataset.features))
        series.append((tag, lik))
    edges = np.linspace(0.0, 1.0, args.hist_bins + 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["set,bin_lo,bin_hi,count"]
    means = {}
    for tag, lik in series:
        counts, _ = np.histogram(lik, bins=edges)
        means[tag] = float(np.mean(lik))
        for j, c in enumerate(counts):
            lines.append(f"{tag},{edges[j]:.17g},{edges[j + 1]:.17g},{int(c)}")
    _write_text(out / "likelihood_hist.csv", "\n".join(lines) + "\n")
    _write_json(out / "likelihood_means.json", means)
    _write_text(out / "likelihood_hist.svg",
                histogram_svg(series, edges, "scaled likelihood by set"))
    return EXIT_OK


def cmd_reliability(args) -> int:
    model = load_container(args.model)
    dataset = load_csv(args.set)
    _check_width(model, dataset, args.set)
    if dataset.domain == "ood":
        raise ConfigError("set", "reliability diagrams need labeled data")
    with _rows_of(args.set):
        probs = model.predict(dataset.features).probs
    bins = M.reliability_bins(probs, dataset.labels, args.bins)
    ece = M.ece_from_bins(bins, dataset.n)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "reliability.csv", _bins_csv(bins))
    _write_text(out / "reliability.svg",
                reliability_svg(bins, f"reliability ({dataset.tag}, ECE={ece:.4f})"))
    _write_json(out / "reliability.json",
                {"ece": ece, "bins": [vars(b) for b in bins]})
    return EXIT_OK


def _time_single_predictions(model, feats: np.ndarray, warmup: int,
                             repetitions: int) -> list[float]:
    n = feats.shape[0]
    for i in range(warmup):
        model.predict(feats[i % n:i % n + 1])
    times = []
    for i in range(repetitions):
        row = feats[i % n:i % n + 1]
        start = time.perf_counter()
        model.predict(row)
        times.append((time.perf_counter() - start) * 1e3)
    return times


def cmd_bench(args) -> int:
    dataset = load_csv(args.set)
    rows = []
    for path in args.models:
        model = load_container(path)
        _check_width(model, dataset, args.set)
        with _rows_of(args.set):  # so that no timed call can fail
            model.predict(dataset.features)
        times = _time_single_predictions(model, dataset.features,
                                         args.warmup, args.repetitions)
        q1, med, q3 = (float(q) for q in np.percentile(times, [25, 50, 75]))
        rows.append({
            "model": Path(path).stem,
            "kind": container_kind(model),
            "param_count": model.param_count(),
            "latency_ms_median": med,
            "latency_ms_iqr": q3 - q1,
        })
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "bench.json", {"repetitions": args.repetitions,
                                     "warmup": args.warmup, "models": rows})
    header = "| model | kind | params | median ms/sample | IQR |"
    sep = "|---|---|---|---|---|"
    body = [f"| {r['model']} | {r['kind']} | {r['param_count']} "
            f"| {r['latency_ms_median']:.4f} | {r['latency_ms_iqr']:.4f} |"
            for r in rows]
    table = "\n".join([header, sep] + body) + "\n"
    _write_text(out / "bench.md", table)
    print(table, end="")
    return EXIT_OK


def cmd_compare(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    all_rows = []
    for config_path in args.configs:
        cfg = load_config(config_path, args.seed)
        sets = build_datasets(cfg)
        result = _run_pipeline(cfg, sets)
        ensemble = ensemble_train(cfg.ensemble_size, cfg.encoder, cfg.k,
                                  sets["train"], cfg.train)
        config_name = Path(config_path).stem
        models = {"erm": result.erm_model, "density_softmax": result.model,
                  f"ensemble_{cfg.ensemble_size}": ensemble}
        save_container(density_softmax_container(result.model),
                       out / f"{config_name}_model.json")
        save_container(density_softmax_container(result.erm_model),
                       out / f"{config_name}_model_erm.json")
        save_container(ensemble_container(ensemble),
                       out / f"{config_name}_model_ensemble.json")
        for name, model in models.items():
            reports, detection = _evaluate_model(model, name, sets, cfg.bins)
            for tag, report in reports.items():
                doc = report.to_dict()
                doc.pop("bins")
                doc.update({"config": config_name, "model": name})
                if tag == "ood":
                    doc["auroc"] = detection["neg_max_prob"]["auroc"]
                    doc["aupr"] = detection["neg_max_prob"]["aupr"]
                all_rows.append(doc)
    _write_json(out / "compare.json", all_rows)
    cols = ["config", "model", "domain", "n", "accuracy", "nll", "ece", "mece",
            "brier", "mean_entropy_nats", "mean_max_prob",
            "mean_scaled_likelihood", "auroc", "aupr", "param_count"]
    lines = ["| " + " | ".join(cols) + " |",
             "|" + "---|" * len(cols)]
    for row in all_rows:
        cells = []
        for c in cols:
            v = row.get(c)
            cells.append("" if v is None else
                         (f"{v:.5g}" if isinstance(v, float) else str(v)))
        lines.append("| " + " | ".join(cells) + " |")
    table = "\n".join(lines) + "\n"
    _write_text(out / "compare.md", table)
    print(table, end="")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="density-softmax",
        description="Train and probe density-scaled softmax classifiers on toy data.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train the full pipeline and write reports")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("gen-data", help="generate and save the configured datasets")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=cmd_gen_data)

    surf = sub.add_parser("surface", help="probability/uncertainty surface grids")
    surf.add_argument("--model", required=True)
    surf.add_argument("--out", required=True)
    surf.add_argument("--bounds", default="-3,4,-3,4",
                      help="grid bounds as x0,x1,y0,y1")
    surf.add_argument("--resolution", type=int, default=200)
    surf.add_argument("--data", default=None,
                      help="optional data dir for a scatter overlay")
    surf.set_defaults(func=cmd_surface)

    hist = sub.add_parser("hist-likelihood", help="scaled-likelihood histograms per set")
    hist.add_argument("--model", required=True)
    hist.add_argument("--data", required=True, help="directory of <tag>.csv files")
    hist.add_argument("--sets", nargs="+", required=True)
    hist.add_argument("--hist-bins", type=int, default=30)
    hist.add_argument("--out", required=True)
    hist.set_defaults(func=cmd_hist_likelihood)

    rel = sub.add_parser("reliability", help="reliability diagram for one labeled set")
    rel.add_argument("--model", required=True)
    rel.add_argument("--set", required=True, help="dataset CSV path")
    rel.add_argument("--bins", type=int, default=15)
    rel.add_argument("--out", required=True)
    rel.set_defaults(func=cmd_reliability)

    bench = sub.add_parser("bench", help="parameter counts and per-sample latency")
    bench.add_argument("--models", nargs="+", required=True)
    bench.add_argument("--set", required=True)
    bench.add_argument("--warmup", type=int, default=50)
    bench.add_argument("--repetitions", type=int, default=1000)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)

    cmp_ = sub.add_parser("compare", help="ERM vs density-softmax vs ensemble table")
    cmp_.add_argument("--configs", nargs="+", required=True)
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--seed", type=int, default=None)
    cmp_.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("DS_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContainerError, DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PipelineError, TrainingDiverged, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
