"""Experiment configuration: every config dataclass, the JSON schema, and
dataset construction.

The JSON tree mirrors the dataclass tree: each JSON object is a config
dataclass and each key one of its fields. Defaults live only in the
dataclasses. A field's type says what it admits, and construction checks
it, so a config built in code is checked as a parsed one is: a ``Literal``
lists the choices, a fixed-length tuple gives the length, an int is never a
bool, a float also takes an int and is never NaN or an infinity (which
``json`` reads from the tokens ``NaN`` and ``Infinity``), a ``Bound`` gives
a number's lower bound, and a config field takes only that config. A fault
is a ConfigError naming the field; the parser prefixes the dotted path of
the object it was building, so the CLI reports exactly what to fix. Two
rules are written out by hand: ``ShiftSpec``'s scales increase, and
``ExperimentConfig`` hands its seed to ``train``.
There are three exceptions to the mirror:

* ``bins`` is written under ``"metrics"``: ``{"metrics": {"bins": 15}}``;
* ``train.seed`` is not a key: ``ExperimentConfig`` sets it to the
  top-level seed, which ``train_pipeline`` hands to every training stage,
  so every random draw derives from that single seed and reruns reproduce
  artifacts byte for byte;
* ``dataset`` and ``dataset.generator`` are required.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import types
import typing
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from .data import (DEFAULT_SHIFT_SCALES, LabeledSet, class_count, default_ood_center,
                   make_ood_cluster, make_two_moons, make_two_ovals, shift_suite)
from .layers import Activation


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


@dataclass(frozen=True)
class Bound:
    """``Annotated`` metadata: a number is >= low, or > low when strict."""

    low: int
    strict: bool = False


Count = Annotated[int, Bound(1)]
Natural = Annotated[int, Bound(0)]  # epochs and the seed
NonNegative = Annotated[float, Bound(0)]
Positive = Annotated[float, Bound(0, strict=True)]


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls, include_extras=True)


def _value(tp, val, path: str):
    """val checked against the type hint tp, and converted where the type
    asks (an int to a float, a list to a tuple)."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Annotated:
        val, bound = _value(args[0], val, path), args[1]
        if not (val > bound.low if bound.strict else val >= bound.low):
            raise ConfigError(path, f"must be {'>' if bound.strict else '>='} {bound.low}")
        return val
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
        if not isinstance(val, (list, tuple)) or len(val) != len(args):
            raise ConfigError(path, f"expected a list of {len(args)} {args[0].__name__}")
        return tuple(_value(t, v, path) for t, v in zip(args, val))
    if tp is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        if not abs(val) <= sys.float_info.max:
            raise ConfigError(path, f"expected a finite number, got {val!r}")
        return float(val)
    if not isinstance(val, tp) or isinstance(val, bool) and tp is not bool:
        raise ConfigError(path, f"expected {tp.__name__}, got {type(val).__name__}")
    return val


class Checked:
    """Base of the config dataclasses: construction checks each field
    against its type hint and stores the converted value."""

    def __post_init__(self):
        hints = _hints(type(self))
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _value(hints[f.name], getattr(self, f.name), f.name))


@dataclass(frozen=True)
class OptimizerSpec(Checked):
    """The learning rate of a training stage's Adam (``train.optimizer``)."""

    lr: Positive = 1e-4


@dataclass(frozen=True)
class EncoderConfig(Checked):
    width: Count = 128
    depth: Count = 12
    activation: Activation = "relu"


@dataclass(frozen=True)
class TrainConfig(Checked):
    epochs: Natural = 100
    batch_size: Count = 128
    optimizer: OptimizerSpec = OptimizerSpec()
    l2: NonNegative = 0.0
    seed: Natural = 0  # the run's seed: ExperimentConfig sets it, train_pipeline reads it


@dataclass(frozen=True)
class FlowConfig(Checked):
    coupling_layers: Count = 4
    hidden_units: Count = 16
    hidden_layers: Count = 4
    epochs: Natural = 3000
    batch_size: Count = 128
    l2: NonNegative = 0.01
    lr: Positive = 1e-4  # Adam


@dataclass(frozen=True)
class DensityConfig(Checked):
    """Which density estimator step 2 fits on the train latents."""

    kind: Literal["kde", "flow"] = "kde"
    bandwidth: Positive | None = None  # kde; None = Scott's rule
    flow: FlowConfig = FlowConfig()


@dataclass(frozen=True)
class ReoptConfig(Checked):
    epochs: Natural = 10
    batch_size: Count = 128
    lr: Positive = 1e-4  # Adam


@dataclass(frozen=True)
class OodSpec(Checked):
    n: Count = 500
    center: tuple[float, float] | None = None  # None = auto placement
    spread: NonNegative = 0.1
    sigmas: float = 6.0  # auto placement distance in train std units


@dataclass(frozen=True)
class ShiftSpec(Checked):
    """A shift family: kind plus a strictly increasing 5-level scale ladder."""

    kind: Literal["gaussian_noise", "rotation", "translation"] = "gaussian_noise"
    scales: tuple[float, float, float, float, float] = DEFAULT_SHIFT_SCALES

    def __post_init__(self):
        super().__post_init__()
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise ConfigError("scales", "must be strictly increasing")


@dataclass(frozen=True)
class DatasetSpec(Checked):
    generator: Literal["two_moons", "two_ovals"] = "two_moons"
    n_per_class: Count = 500
    n_test_per_class: Count = 500
    noise_sd: NonNegative = 0.1
    separation: float = 2.0  # two_ovals only
    ood: OodSpec = OodSpec()
    shift: ShiftSpec = ShiftSpec()


@dataclass(frozen=True)
class ExperimentConfig(Checked):
    seed: Natural = 0
    dataset: DatasetSpec = DatasetSpec()
    encoder: EncoderConfig = EncoderConfig()
    train: TrainConfig = TrainConfig()
    density: DensityConfig = DensityConfig()
    reopt: ReoptConfig = ReoptConfig()
    bins: Count = 15
    ensemble_size: Annotated[int, Bound(2)] = 4

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "train", dataclasses.replace(self.train, seed=self.seed))

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


def _object(cls, doc, path: str):
    """cls built from a JSON object whose keys are its fields (not a nested
    seed); a field that holds a config is built from its own object."""
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    hints = _hints(cls)
    keys = [f.name for f in dataclasses.fields(cls) if f.name != "seed" or not path]
    for key in doc:
        if key not in keys:
            raise ConfigError(_join(path, key), "unknown field")
    for key in keys:
        if _join(path, key) in REQUIRED and key not in doc:
            raise ConfigError(_join(path, key), "missing required field")
    fields = {key: _object(hints[key], doc[key], _join(path, key))
              if dataclasses.is_dataclass(hints[key]) else doc[key]
              for key in keys if key in doc}
    try:
        return cls(**fields)
    except ConfigError as exc:
        raise ConfigError(_join(path, exc.path), exc.message) from None


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
        doc["bins"] = _value(_hints(ExperimentConfig)["bins"], val, "metrics.bins")
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
