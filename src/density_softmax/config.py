"""Experiment configuration: JSON schema, validation, dataset construction.

The JSON tree mirrors the dataclass tree: each JSON object is a config
dataclass, each key one of its fields, and the field's type says what the
value may be (a ``Literal`` lists the choices, a fixed-length tuple gives
the list length, an int is never a bool, a float also takes an int and is
never NaN or an infinity, which ``json`` reads from the tokens ``NaN`` and
``Infinity``).
Defaults live only in the dataclasses and value checks only in their
``__post_init__``; a ValueError raised there becomes a ConfigError naming
the object's dotted path, and a ConfigError raised there names a field by
its path within the object, which the parser prefixes with the object's.
There are three exceptions to the mirror:

* ``bins`` is written under ``"metrics"``: ``{"metrics": {"bins": 15}}``;
* ``train.seed`` is not a key: ``ExperimentConfig`` sets it to the
  top-level seed, which ``train_pipeline`` hands to every training stage,
  so every random draw derives from that single seed and reruns reproduce
  artifacts byte for byte;
* ``dataset`` and ``dataset.generator`` are required.

Validation errors carry the dotted path of the offending field so the CLI
can report exactly what to fix.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .data import (LabeledSet, ShiftSpec, class_count, default_ood_center,
                   make_ood_cluster, make_two_moons, make_two_ovals, shift_suite)
from .model import EncoderConfig, TrainConfig
from .predictor import DensityConfig, ReoptConfig


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


@dataclass(frozen=True)
class OodSpec:
    n: int = 500
    center: tuple[float, float] | None = None  # None = auto placement
    spread: float = 0.1
    sigmas: float = 6.0  # auto placement distance in train std units

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n", "must be >= 1")
        if not self.spread >= 0:
            raise ValueError("spread must be >= 0")


@dataclass(frozen=True)
class DatasetSpec:
    generator: Literal["two_moons", "two_ovals"] = "two_moons"
    n_per_class: int = 500
    n_test_per_class: int = 500
    noise_sd: float = 0.1
    separation: float = 2.0  # two_ovals only
    ood: OodSpec = OodSpec()
    shift: ShiftSpec = ShiftSpec()

    def __post_init__(self):
        for name in ("n_per_class", "n_test_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")
        if not self.noise_sd >= 0:
            raise ConfigError("noise_sd", "must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    dataset: DatasetSpec = DatasetSpec()
    encoder: EncoderConfig = EncoderConfig()
    train: TrainConfig = TrainConfig()
    density: DensityConfig = DensityConfig()
    reopt: ReoptConfig = ReoptConfig()
    bins: int = 15
    ensemble_size: int = 4

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed", "must be >= 0")
        object.__setattr__(self, "train", dataclasses.replace(self.train, seed=self.seed))
        if self.bins < 1:
            raise ConfigError("metrics.bins", "must be >= 1")
        if self.ensemble_size < 2:
            raise ConfigError("ensemble_size", "an ensemble needs at least 2 members")

    @property
    def k(self) -> int:
        """The class count, which the dataset's generator fixes."""
        return class_count(self.dataset.generator)


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

REQUIRED = ("dataset", "dataset.generator")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _value(tp, val, path: str):
    """val checked against the type hint tp (converted where JSON differs)."""
    if dataclasses.is_dataclass(tp):
        return _object(tp, val, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        if val is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _value(tp, val, path)
    if origin is Literal:
        if val not in args:
            raise ConfigError(path, f"must be one of {args}")
        return val
    if origin is tuple:  # every tuple in the tree has a fixed length
        if not isinstance(val, list) or len(val) != len(args):
            raise ConfigError(path, f"expected a list of {len(args)} {args[0].__name__}")
        return tuple(_value(t, v, path) for t, v in zip(args, val))
    if tp is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        if not abs(val) <= sys.float_info.max:
            raise ConfigError(path, f"expected a finite number, got {val!r}")
        return float(val)
    if not isinstance(val, tp) or isinstance(val, bool) and tp is not bool:
        raise ConfigError(path, f"expected {tp.__name__}, got {type(val).__name__}")
    return val


def _object(cls, doc, path: str):
    """cls built from a JSON object whose keys are its fields (not a nested seed)."""
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    hints = typing.get_type_hints(cls)
    keys = [f.name for f in dataclasses.fields(cls) if f.name != "seed" or not path]
    for key in doc:
        if key not in keys:
            raise ConfigError(_join(path, key), "unknown field")
    for key in keys:
        if _join(path, key) in REQUIRED and key not in doc:
            raise ConfigError(_join(path, key), "missing required field")
    fields = {key: _value(hints[key], doc[key], _join(path, key))
              for key in keys if key in doc}
    try:
        return cls(**fields)
    except ConfigError as exc:
        raise ConfigError(_join(path, exc.path), exc.message) from None
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def parse_config(doc: dict) -> ExperimentConfig:
    """The ExperimentConfig a JSON document describes; the first fault found
    raises a ConfigError naming its dotted path."""
    if not isinstance(doc, dict):
        raise ConfigError("", "config root must be a JSON object")
    doc = dict(doc)
    if "bins" in doc:
        raise ConfigError("bins", "unknown field")
    metrics = doc.pop("metrics", {})
    if not isinstance(metrics, dict):
        raise ConfigError("metrics", f"expected an object, got {type(metrics).__name__}")
    for key, val in metrics.items():
        if key != "bins":
            raise ConfigError(_join("metrics", key), "unknown field")
        doc["bins"] = _value(int, val, "metrics.bins")
    return _object(ExperimentConfig, doc, "")


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
        raise ConfigError(str(path), f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "config root must be a JSON object")
    if seed_override is not None:
        doc["seed"] = seed_override
    return parse_config(doc)
