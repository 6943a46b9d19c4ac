"""Command-line experiment harness.

Subcommands: run, surface, hist-likelihood, reliability, bench, compare,
gen-data. Exit codes: 0 success, 2 configuration/input error, 3 training or
runtime failure. Set DS_LOG=DEBUG|INFO|WARNING to control logging; an
unknown level exits 2.

`run` saves its models as model.dsm and model_erm.dsm, and `compare` as
<stem>_model.dsm, <stem>_model_erm.dsm and <stem>_model_ensemble.dsm, in
the binary container format of serialize.py; surface, hist-likelihood,
reliability and bench read such a file (--model, --models).

All artifacts are pure functions of (config, seeds): JSON is dumped with
sorted keys, CSV uses fixed formatting, containers write the same bytes for
the same model, and no file embeds a timestamp.
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
from .serialize import (CONTAINER_SUFFIX, ContainerError, container_kind,
                        density_softmax_container, ensemble_container, load_container,
                        save_container)
from .svg import heatmap_svg, histogram_svg, reliability_svg

log = logging.getLogger("density_softmax")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


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
    against iid_test, from one prediction per set. The ood report's auroc and
    aupr are its detection by max prob."""
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
    reports["ood"].auroc = detection["neg_max_prob"]["auroc"]
    reports["ood"].aupr = detection["neg_max_prob"]["aupr"]
    return reports, detection


# -- subcommands ----------------------------------------------------------------


def _write_sets(args) -> tuple[ExperimentConfig, dict[str, LabeledSet]]:
    """The config at --config (at --seed), and its sets, each written to
    <out>/data/<tag>.csv."""
    cfg = load_config(args.config, args.seed)
    sets = build_datasets(cfg)
    data = Path(args.out) / "data"
    data.mkdir(parents=True, exist_ok=True)
    for tag, dataset in sets.items():
        save_csv(dataset, data / f"{tag}.csv")
    return cfg, sets


def cmd_gen_data(args) -> int:
    _, sets = _write_sets(args)
    log.info("wrote %d datasets under %s", len(sets), Path(args.out) / "data")
    return EXIT_OK


def _run_pipeline(cfg: ExperimentConfig, sets: dict[str, LabeledSet]) -> PipelineResult:
    return train_pipeline(sets["train"], cfg.encoder, cfg.train, cfg.density,
                          cfg.reopt, cfg.k)


def cmd_run(args) -> int:
    cfg, sets = _write_sets(args)
    out = Path(args.out)
    result = _run_pipeline(cfg, sets)
    save_container(density_softmax_container(result.model), out / f"model{CONTAINER_SUFFIX}")
    save_container(density_softmax_container(result.erm_model),
                   out / f"model_erm{CONTAINER_SUFFIX}")

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
    lines = ["x,y," + ",".join(fields)]
    for i, (x, y) in enumerate(grid):
        vals = ",".join(format(fields[f][i], ".17g") for f in fields)
        lines.append(f"{x:.17g},{y:.17g},{vals}")
    _write_text(out / "surface.csv", "\n".join(lines) + "\n")

    for name in ("prob_class0", "variance", "entropy_bits", "u"):
        svg = heatmap_svg(fields[name].reshape(res, res), f"{name} surface",
                          points=overlay, bounds=(x0, x1, y0, y1))
        _write_text(out / f"surface_{name}.svg", svg)
    return EXIT_OK


def _load_overlay_points(model, data_dir: str) -> list:
    """Scatter overlay from a run's data directory: train points by class
    (grey outside {0, 1}), then OOD points in red."""
    points = []
    for tag, colors, other in (("train", {0: "#ff8800", 1: "#3366ff"}, "#555555"),
                               ("ood", {}, "#dd2222")):
        path = Path(data_dir) / f"{tag}.csv"
        if not path.exists():
            continue
        dataset = load_csv(path)
        _check_width(model, dataset, path)
        for (x, y), label in zip(dataset.features, dataset.labels):
            points.append((x, y, colors.get(int(label), other)))
    return points


def cmd_hist_likelihood(args) -> int:
    model = load_container(args.model)
    if not isinstance(model, DensitySoftmaxModel) or model.density is None:
        raise ConfigError("model", "likelihood histograms need a density-softmax container")
    base = Path(args.data)
    liks = {}
    for tag in args.sets:
        if tag in liks:
            raise ConfigError("sets", f"set tag {tag!r} is given twice")
        path = base / f"{tag}.csv"
        if not path.exists():
            raise ConfigError("sets", f"unknown set tag {tag!r} (no {path})")
        dataset = load_csv(path)
        _check_width(model, dataset, path)
        with _rows_of(path):
            liks[tag] = model.density.scaled_likelihood(model.encoder.encode(dataset.features))
    edges = np.linspace(0.0, 1.0, args.hist_bins + 1)
    counts = {tag: np.histogram(lik, bins=edges)[0] for tag, lik in liks.items()}
    out = Path(args.out)
    lines = ["set,bin_lo,bin_hi,count"]
    for tag, cnt in counts.items():
        for j, c in enumerate(cnt):
            lines.append(f"{tag},{edges[j]:.17g},{edges[j + 1]:.17g},{int(c)}")
    _write_text(out / "likelihood_hist.csv", "\n".join(lines) + "\n")
    _write_json(out / "likelihood_means.json",
                {tag: float(np.mean(lik)) for tag, lik in liks.items()})
    _write_text(out / "likelihood_hist.svg",
                histogram_svg(list(counts.items()), edges, "scaled likelihood by set"))
    return EXIT_OK


def cmd_reliability(args) -> int:
    model = load_container(args.model)
    dataset = load_csv(args.set)
    _check_width(model, dataset, args.set)
    if dataset.domain == "ood":
        raise ConfigError("set", "reliability diagrams need labeled data")
    outside = np.flatnonzero(dataset.labels >= model.k)
    if outside.size:
        row = outside[0]
        raise DataError(f"{args.set}: data row {row}: label {dataset.labels[row]} is not "
                        f"one of the model's {model.k} classes")
    with _rows_of(args.set):
        probs = model.predict(dataset.features).probs
    bins = M.reliability_bins(probs, dataset.labels, args.bins)
    ece = M.ece_from_bins(bins, dataset.n)
    out = Path(args.out)
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
    configs: dict[str, str] = {}  # file stem -> path; the stem names its artifacts
    for config_path in args.configs:
        stem = Path(config_path).stem
        if stem in configs:
            raise ConfigError("configs", f"{configs[stem]} and {config_path} share the "
                              f"file stem {stem!r}")
        configs[stem] = config_path
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # save_container does not make it
    all_rows = []
    for config_name, config_path in configs.items():
        cfg = load_config(config_path, args.seed)
        sets = build_datasets(cfg)
        result = _run_pipeline(cfg, sets)
        ensemble = ensemble_train(cfg.ensemble_size, result.erm_model, cfg.encoder,
                                  sets["train"], cfg.train)
        models = {"erm": result.erm_model, "density_softmax": result.model,
                  f"ensemble_{cfg.ensemble_size}": ensemble}
        save_container(density_softmax_container(result.model),
                       out / f"{config_name}_model{CONTAINER_SUFFIX}")
        save_container(density_softmax_container(result.erm_model),
                       out / f"{config_name}_model_erm{CONTAINER_SUFFIX}")
        save_container(ensemble_container(ensemble),
                       out / f"{config_name}_model_ensemble{CONTAINER_SUFFIX}")
        for name, model in models.items():
            reports, _ = _evaluate_model(model, name, sets, cfg.bins)
            for report in reports.values():
                doc = {"config": config_name, "model": name, **report.to_dict()}
                doc.pop("bins")
                all_rows.append(doc)
    _write_json(out / "compare.json", all_rows)
    cols = list(all_rows[0])  # config, model, then EvalReport's fields
    lines = ["| " + " | ".join(cols) + " |",
             "|" + "---|" * len(cols)]
    for row in all_rows:
        cells = ("" if v is None else (f"{v:.5g}" if isinstance(v, float) else str(v))
                 for v in row.values())
        lines.append("| " + " | ".join(cells) + " |")
    table = "\n".join(lines) + "\n"
    _write_text(out / "compare.md", table)
    print(table, end="")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


def _count(minimum: int):
    """An argparse type: an integer of at least minimum, so a bad count exits
    2 with an error that names its flag."""
    def count(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid count value"
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected a count >= {minimum}, got {value}")
        return value
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="density-softmax",
        description="Train and probe density-scaled softmax classifiers on toy data.")
    sub = parser.add_subparsers(dest="command", required=True)
    model_help = f"a model container ({CONTAINER_SUFFIX}) that run or compare wrote"

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
    surf.add_argument("--model", required=True, help=model_help)
    surf.add_argument("--out", required=True)
    surf.add_argument("--bounds", default="-3,4,-3,4",
                      help="grid bounds as x0,x1,y0,y1")
    surf.add_argument("--resolution", type=_count(1), default=200)
    surf.add_argument("--data", default=None,
                      help="optional data dir for a scatter overlay")
    surf.set_defaults(func=cmd_surface)

    hist = sub.add_parser("hist-likelihood", help="scaled-likelihood histograms per set")
    hist.add_argument("--model", required=True, help=model_help)
    hist.add_argument("--data", required=True, help="directory of <tag>.csv files")
    hist.add_argument("--sets", nargs="+", required=True)
    hist.add_argument("--hist-bins", type=_count(1), default=30)
    hist.add_argument("--out", required=True)
    hist.set_defaults(func=cmd_hist_likelihood)

    rel = sub.add_parser("reliability", help="reliability diagram for one labeled set")
    rel.add_argument("--model", required=True, help=model_help)
    rel.add_argument("--set", required=True, help="dataset CSV path")
    rel.add_argument("--bins", type=_count(1), default=15)
    rel.add_argument("--out", required=True)
    rel.set_defaults(func=cmd_reliability)

    bench = sub.add_parser("bench", help="parameter counts and per-sample latency")
    bench.add_argument("--models", nargs="+", required=True,
                       help=f"model containers ({CONTAINER_SUFFIX}) that run or compare wrote")
    bench.add_argument("--set", required=True)
    bench.add_argument("--warmup", type=_count(0), default=50)
    bench.add_argument("--repetitions", type=_count(1), default=1000)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=cmd_bench)

    cmp_ = sub.add_parser("compare", help="ERM vs density-softmax vs ensemble table")
    cmp_.add_argument("--configs", nargs="+", required=True)
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--seed", type=int, default=None)
    cmp_.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("DS_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: DS_LOG: unknown level {level!r}", file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContainerError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PipelineError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
