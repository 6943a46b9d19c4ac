"""Experiment configuration: JSON schema, validation, dataset construction.

Validation errors carry the dotted path of the offending field so the CLI
can report exactly what to fix. Every random draw derives from the single
top-level seed, which makes reruns reproduce artifacts byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import (DEFAULT_SHIFT_SCALES, LabeledSet, ShiftSpec, default_ood_center,
                   make_ood_cluster, make_two_moons, make_two_ovals, shift_suite)
from .density import FlowConfig
from .model import EncoderConfig, TrainConfig
from .optim import OptimizerSpec
from .predictor import DensityConfig, ReoptConfig

GENERATORS = ("two_moons", "two_ovals")


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class OodSpec:
    n: int = 500
    center: tuple[float, float] | None = None  # None = auto placement
    spread: float = 0.1
    sigmas: float = 6.0  # auto placement distance in train std units


@dataclass(frozen=True)
class DatasetSpec:
    generator: str = "two_moons"
    n_per_class: int = 500
    n_test_per_class: int = 500
    noise_sd: float = 0.1
    separation: float = 2.0  # two_ovals only
    ood: OodSpec = OodSpec()
    shift: ShiftSpec = ShiftSpec()


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    k: int = 2
    dataset: DatasetSpec = DatasetSpec()
    encoder: EncoderConfig = EncoderConfig()
    train: TrainConfig = TrainConfig()
    density: DensityConfig = DensityConfig()
    reopt: ReoptConfig = ReoptConfig()
    bins: int = 15
    ensemble_size: int = 4


def build_datasets(cfg: ExperimentConfig) -> dict[str, LabeledSet]:
    """All declared sets keyed by tag: train, iid_test, ood, shifted_1..5."""
    ds = cfg.dataset
    if ds.generator == "two_moons":
        train = make_two_moons(ds.n_per_class, ds.noise_sd, cfg.seed, "train")
        iid = make_two_moons(ds.n_test_per_class, ds.noise_sd, cfg.seed + 1000,
                             "iid_test")
    else:
        train = make_two_ovals(ds.n_per_class, ds.separation, ds.noise_sd,
                               cfg.seed, "train")
        iid = make_two_ovals(ds.n_test_per_class, ds.separation, ds.noise_sd,
                             cfg.seed + 1000, "iid_test")
    center = (np.asarray(ds.ood.center) if ds.ood.center is not None
              else default_ood_center(train, ds.ood.sigmas))
    ood = make_ood_cluster(ds.ood.n, center, ds.ood.spread, cfg.seed + 2000)
    sets = {"train": train, "iid_test": iid, "ood": ood}
    for shifted in shift_suite(iid, ds.shift, cfg.seed + 3000):
        sets[shifted.tag] = shifted
    return sets


# -- JSON parsing -------------------------------------------------------------


def _expect(doc: dict, path: str, key: str, types, default):
    val = doc.get(key, default)
    if val is default and default is not _REQUIRED:
        return val
    where = f"{path}.{key}" if path else key
    if val is _REQUIRED:
        raise ConfigError(where, "missing required field")
    if types is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, types) or isinstance(val, bool) and types is not bool:
        raise ConfigError(where, f"expected {getattr(types, '__name__', types)}, "
                                 f"got {type(val).__name__}")
    return val


class _Required:
    def __repr__(self):  # pragma: no cover
        return "<required>"


_REQUIRED = _Required()


def _build(path: str, cls, **fields):
    """cls(**fields), with a ValueError from its validation as a ConfigError."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _check_keys(doc: dict, path: str, allowed: set[str]):
    for key in doc:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(where, "unknown field")


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("", "config root must be a JSON object")
    _check_keys(doc, "", {"seed", "k", "dataset", "encoder", "train", "density",
                          "reopt", "metrics", "ensemble_size"})
    seed = _expect(doc, "", "seed", int, 0)
    k = _expect(doc, "", "k", int, 2)
    if k < 2:
        raise ConfigError("k", "need at least 2 classes")

    dd = _expect(doc, "", "dataset", dict, _REQUIRED)
    _check_keys(dd, "dataset", {"generator", "n_per_class", "n_test_per_class",
                                "noise_sd", "separation", "ood", "shift"})
    generator = _expect(dd, "dataset", "generator", str, _REQUIRED)
    if generator not in GENERATORS:
        raise ConfigError("dataset.generator", f"must be one of {GENERATORS}")
    od = _expect(dd, "dataset", "ood", dict, {})
    _check_keys(od, "dataset.ood", {"n", "center", "spread", "sigmas"})
    center = od.get("center")
    if center is not None:
        if (not isinstance(center, list) or len(center) != 2
                or not all(isinstance(c, (int, float)) for c in center)):
            raise ConfigError("dataset.ood.center", "expected [x, y]")
        center = (float(center[0]), float(center[1]))
    sd = _expect(dd, "dataset", "shift", dict, {})
    _check_keys(sd, "dataset.shift", {"kind", "scales"})
    scales = sd.get("scales", list(DEFAULT_SHIFT_SCALES))
    if (not isinstance(scales, list) or len(scales) != 5
            or not all(isinstance(s, (int, float)) for s in scales)):
        raise ConfigError("dataset.shift.scales", "expected 5 numbers")
    dataset = DatasetSpec(
        generator=generator,
        n_per_class=_expect(dd, "dataset", "n_per_class", int, 500),
        n_test_per_class=_expect(dd, "dataset", "n_test_per_class", int, 500),
        noise_sd=_expect(dd, "dataset", "noise_sd", float, 0.1),
        separation=_expect(dd, "dataset", "separation", float, 2.0),
        ood=OodSpec(n=_expect(od, "dataset.ood", "n", int, 500),
                    center=center,
                    spread=_expect(od, "dataset.ood", "spread", float, 0.1),
                    sigmas=_expect(od, "dataset.ood", "sigmas", float, 6.0)),
        shift=_build("dataset.shift", ShiftSpec,
                     kind=_expect(sd, "dataset.shift", "kind", str, "gaussian_noise"),
                     scales=tuple(float(s) for s in scales)),
    )

    ed = _expect(doc, "", "encoder", dict, {})
    _check_keys(ed, "encoder", {"input_dim", "width", "depth", "latent_dim",
                                "activation"})
    width = _expect(ed, "encoder", "width", int, 128)
    encoder = _build(
        "encoder", EncoderConfig,
        input_dim=_expect(ed, "encoder", "input_dim", int, 2),
        width=width,
        depth=_expect(ed, "encoder", "depth", int, 12),
        latent_dim=_expect(ed, "encoder", "latent_dim", int, width),
        activation=_expect(ed, "encoder", "activation", str, "relu"),
    )

    td = _expect(doc, "", "train", dict, {})
    _check_keys(td, "train", {"epochs", "batch_size", "optimizer",
                              "lr_decay_epochs", "lr_decay_ratio", "l2"})
    opt = _parse_optimizer(_expect(td, "train", "optimizer", dict, {}), "train.optimizer")
    decay = td.get("lr_decay_epochs", [])
    if not isinstance(decay, list) or not all(isinstance(e, int) for e in decay):
        raise ConfigError("train.lr_decay_epochs", "expected a list of ints")
    train = _build(
        "train", TrainConfig,
        epochs=_expect(td, "train", "epochs", int, 100),
        batch_size=_expect(td, "train", "batch_size", int, 128),
        optimizer=opt,
        lr_decay_epochs=tuple(decay),
        lr_decay_ratio=_expect(td, "train", "lr_decay_ratio", float, 1.0),
        l2=_expect(td, "train", "l2", float, 0.0),
        seed=seed,
    )

    dn = _expect(doc, "", "density", dict, {})
    _check_keys(dn, "density", {"kind", "bandwidth", "flow"})
    kind = _expect(dn, "density", "kind", str, "kde")
    if kind not in ("kde", "flow"):
        raise ConfigError("density.kind", "must be 'kde' or 'flow'")
    bandwidth = dn.get("bandwidth")
    if bandwidth is not None and not isinstance(bandwidth, (int, float)):
        raise ConfigError("density.bandwidth", "expected a number or null")
    fd = _expect(dn, "density", "flow", dict, {})
    _check_keys(fd, "density.flow", {"coupling_layers", "hidden_units",
                                     "hidden_layers", "epochs", "batch_size",
                                     "l2", "lr"})
    flow = FlowConfig(
        coupling_layers=_expect(fd, "density.flow", "coupling_layers", int, 4),
        hidden_units=_expect(fd, "density.flow", "hidden_units", int, 16),
        hidden_layers=_expect(fd, "density.flow", "hidden_layers", int, 4),
        epochs=_expect(fd, "density.flow", "epochs", int, 3000),
        batch_size=_expect(fd, "density.flow", "batch_size", int, 128),
        l2=_expect(fd, "density.flow", "l2", float, 0.01),
        optimizer=OptimizerSpec(kind="adam",
                                lr=_expect(fd, "density.flow", "lr", float, 1e-4)),
        seed=seed,
    )
    density = _build("density", DensityConfig, kind=kind,
                     bandwidth=None if bandwidth is None else float(bandwidth),
                     flow=flow)

    rd = _expect(doc, "", "reopt", dict, {})
    _check_keys(rd, "reopt", {"epochs", "batch_size", "lr", "reinit"})
    reopt = ReoptConfig(
        epochs=_expect(rd, "reopt", "epochs", int, 10),
        batch_size=_expect(rd, "reopt", "batch_size", int, 128),
        optimizer=OptimizerSpec(kind="adam",
                                lr=_expect(rd, "reopt", "lr", float, 1e-4)),
        reinit=_expect(rd, "reopt", "reinit", bool, False),
        seed=seed,
    )

    md = _expect(doc, "", "metrics", dict, {})
    _check_keys(md, "metrics", {"bins"})
    bins = _expect(md, "metrics", "bins", int, 15)
    if bins < 1:
        raise ConfigError("metrics.bins", "must be >= 1")
    ensemble_size = _expect(doc, "", "ensemble_size", int, 4)
    if ensemble_size < 2:
        raise ConfigError("ensemble_size", "an ensemble needs at least 2 members")

    return ExperimentConfig(
        seed=seed, k=k, dataset=dataset, encoder=encoder, train=train,
        density=density, reopt=reopt, bins=bins, ensemble_size=ensemble_size,
    )


def _parse_optimizer(doc: dict, path: str) -> OptimizerSpec:
    _check_keys(doc, path, {"kind", "lr", "momentum", "nesterov", "beta1",
                            "beta2", "eps"})
    kind = doc.get("kind", "adam")
    if kind not in ("adam", "sgd_momentum"):
        raise ConfigError(f"{path}.kind", "must be 'adam' or 'sgd_momentum'")
    return OptimizerSpec(
        kind=kind,
        lr=_expect(doc, path, "lr", float, 1e-4),
        momentum=_expect(doc, path, "momentum", float, 0.9),
        nesterov=_expect(doc, path, "nesterov", bool, True),
        beta1=_expect(doc, path, "beta1", float, 0.9),
        beta2=_expect(doc, path, "beta2", float, 0.999),
        eps=_expect(doc, path, "eps", float, 1e-8),
    )


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    if seed_override is not None:
        doc["seed"] = seed_override
    return parse_config(doc)
