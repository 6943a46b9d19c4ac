"""Config parsing: a table of valid and invalid documents; errors name the
dotted path and reach the CLI as exit 2."""

import ast
import dataclasses
import json
import math
import types
import typing
from dataclasses import replace
from pathlib import Path

import pytest

from density_softmax import cli, config
from density_softmax.config import (ConfigError, DatasetSpec, DensityConfig, EncoderConfig,
                                    ExperimentConfig, FlowConfig, OodSpec, OptimizerSpec,
                                    ReoptConfig, ShiftSpec, TrainConfig, parse_config)

BASE = {"dataset": {"generator": "two_moons"}}


def with_(section: str, fields: dict) -> dict:
    doc = json.loads(json.dumps(BASE))
    doc.setdefault(section, {}).update(fields)
    return doc


class TestParseConfig:
    def test_optimizer_l2_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config(with_("train", {"optimizer": {"l2": 0.01}}))
        assert info.value.path == "train.optimizer.l2"

    # explicit ids keep each case's test id stable when its expected path changes
    @pytest.mark.parametrize("section, fields, path", [
        ("encoder", {"width": 0}, "encoder.width"),
        ("train", {"epochs": -1}, "train.epochs"),
        ("dataset", {"generator": "two_moons", "shift": {"scales": [1, 1, 2, 3, 4]}},
         "dataset.shift.scales"),
    ], ids=["encoder-fields0-encoder", "train-fields1-train", "dataset-fields2-dataset.shift"])
    def test_dataclass_validation_becomes_config_error(self, section, fields, path):
        with pytest.raises(ConfigError) as info:
            parse_config(with_(section, fields))
        assert info.value.path == path

    def test_single_member_ensemble_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config({**BASE, "ensemble_size": 1})
        assert info.value.path == "ensemble_size"

    @pytest.mark.parametrize("generator", ["two_moons", "two_ovals"])
    def test_class_count_comes_from_the_generator(self, generator):
        assert parse_config({"dataset": {"generator": generator}}).k == 2

    @pytest.mark.parametrize("bandwidth, message", [
        (math.inf, "expected a finite number, got inf"),
        (math.nan, "expected a finite number, got nan"),
        (0.0, "must be > 0"),
        (-1.0, "must be > 0"),
    ], ids=["inf", "nan", "0.0", "-1.0"])
    def test_density_config_refuses_a_bad_bandwidth(self, bandwidth, message):
        """A config built in code fails at construction, not later inside the
        pipeline as its density stage."""
        with pytest.raises(ConfigError, match=f"^bandwidth: {message}$"):
            DensityConfig(bandwidth=bandwidth)


class TestOneSeed:
    """The run's seed has one owner: ExperimentConfig hands it to train, so a
    config built or changed in code trains at the seed its data is drawn at."""

    def test_construction_sets_the_train_seed(self):
        assert ExperimentConfig(seed=5).train.seed == 5

    def test_replacing_the_seed_moves_the_train_seed(self):
        assert replace(parse_config({**BASE, "seed": 3}), seed=9).train.seed == 9

    def test_built_in_code_equals_parsed(self):
        built = ExperimentConfig(seed=5, dataset=DatasetSpec(generator="two_ovals"),
                                 train=TrainConfig(epochs=7))
        assert built == parse_config({"seed": 5, "dataset": {"generator": "two_ovals"},
                                      "train": {"epochs": 7}})


class TestCliExitCodes:
    def test_invalid_encoder_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(with_("encoder", {"width": 0})))
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG == 2
        assert "error: encoder.width: must be >= 1" in capsys.readouterr().err

    def test_nan_token_exits_2(self, tmp_path, capsys):
        """json reads the token NaN as a float; the config refuses it."""
        config = tmp_path / "nan.json"
        config.write_text('{"dataset": {"generator": "two_moons", "noise_sd": NaN}}')
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: dataset.noise_sd: expected a finite number, got nan\n")


# -- the contract table --------------------------------------------------------
#
# Each document either parses to the config the dataclasses build, or fails
# with a ConfigError naming the dotted path of the offending JSON value.


def _doc(dotted: str, value) -> dict:
    """BASE with the value at a dotted JSON path set (objects made as needed)."""
    doc = json.loads(json.dumps(BASE))
    *parents, key = dotted.split(".")
    node = doc
    for name in parents:
        node = node.setdefault(name, {})
    node[key] = value
    return doc


def _set(obj, dotted: str, value):
    """obj with the field at a dotted attribute path replaced."""
    head, _, rest = dotted.partition(".")
    return replace(obj, **{head: _set(getattr(obj, head), rest, value) if rest else value})


def _expect(*changes) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for dotted, value in changes:
        cfg = _set(cfg, dotted, value)
    return cfg


# Keys that are no longer settable (a second optimizer, Adam's constants, an
# LR schedule, a head re-init switch, a latent width that had to equal the
# encoder width and a class count that the generator fixes), each with the
# value it used to default to.
REMOVED = {
    "k": 2,
    "encoder.latent_dim": 128,
    "encoder.input_dim": 2,
    "train.optimizer.kind": "adam",
    "train.optimizer.momentum": 0.9,
    "train.optimizer.nesterov": True,
    "train.optimizer.beta1": 0.9,
    "train.optimizer.beta2": 0.999,
    "train.optimizer.eps": 1e-8,
    "train.lr_decay_epochs": [],
    "train.lr_decay_ratio": 1.0,
    "reopt.reinit": False,
}

VALID = [
    ({}, _expect()),
    ({"seed": 7}, _expect(("seed", 7), ("train.seed", 7))),
    ({"encoder": {"width": 8, "depth": 2}},
     _expect(("encoder", EncoderConfig(width=8, depth=2)))),
    ({"encoder": {"depth": 3, "width": 8}},
     _expect(("encoder", EncoderConfig(width=8, depth=3)))),
    ({"encoder": {"width": 8, "activation": "tanh"}},
     _expect(("encoder", EncoderConfig(width=8, activation="tanh")))),
    ({"metrics": {"bins": 10}}, _expect(("bins", 10))),
    ({"ensemble_size": 2}, _expect(("ensemble_size", 2))),
    ({"dataset": {"generator": "two_ovals", "separation": 3, "noise_sd": 0}},
     _expect(("dataset.generator", "two_ovals"), ("dataset.separation", 3.0),
             ("dataset.noise_sd", 0.0))),
    (_doc("dataset.ood.center", [1, 2.5]), _expect(("dataset.ood.center", (1.0, 2.5)))),
    (_doc("dataset.ood.center", None), _expect()),
    (_doc("dataset.ood", {"n": 16, "spread": 0.5, "sigmas": 8}),
     _expect(("dataset.ood.n", 16), ("dataset.ood.spread", 0.5),
             ("dataset.ood.sigmas", 8.0))),
    (_doc("dataset.shift", {"kind": "rotation", "scales": [1, 2, 3, 4, 5]}),
     _expect(("dataset.shift", ShiftSpec("rotation", (1.0, 2.0, 3.0, 4.0, 5.0))))),
    (_doc("train", {"epochs": 3, "batch_size": 16, "l2": 0.001}),
     _expect(("train.epochs", 3), ("train.batch_size", 16), ("train.l2", 0.001))),
    (_doc("train.optimizer", {}), _expect()),
    (_doc("train.optimizer", {"lr": 1}), _expect(("train.optimizer", OptimizerSpec(1.0)))),
    (_doc("density", {"kind": "kde", "bandwidth": 1}), _expect(("density.bandwidth", 1.0))),
    (_doc("density.bandwidth", None), _expect()),
    (_doc("density", {"kind": "flow", "flow": {
        "coupling_layers": 2, "hidden_units": 4, "hidden_layers": 1, "epochs": 5,
        "batch_size": 32, "l2": 0, "lr": 0.001}}),
     _expect(("density.kind", "flow"),
             ("density.flow", FlowConfig(2, 4, 1, 5, 32, 0.0, 0.001)))),
    (_doc("reopt", {"epochs": 3, "batch_size": 16, "lr": 0.01}),
     _expect(("reopt", ReoptConfig(3, 16, 0.01)))),
    (_doc("density.flow.epochs", 0), _expect(("density.flow.epochs", 0))),
    (_doc("reopt.epochs", 0), _expect(("reopt.epochs", 0))),
]

# A row's test id is its path, or its third entry where given, which keeps the
# id stable when the row's expected path changes (pytest numbers repeated ids).
INVALID = [
    ([], ""),
    ({}, "dataset"),
    ({"dataset": 3}, "dataset"),
    ({"dataset": {}}, "dataset.generator"),
    ({**BASE, "foo": 1}, "foo"),
    ({**BASE, "bins": 15}, "bins"),
    ({**BASE, "seed": 1.5}, "seed"),
    ({**BASE, "seed": True}, "seed"),
    ({**BASE, "seed": -3}, "seed"),  # numpy draws from non-negative seeds only
    ({**BASE, "k": 1}, "k"),
    ({**BASE, "k": "2"}, "k"),
    ({**BASE, "k": 3}, "k"),  # a class no generator draws
    ({**BASE, "ensemble_size": 1}, "ensemble_size"),
    ({**BASE, "ensemble_size": 2.0}, "ensemble_size"),
    ({**BASE, "metrics": {"bins": 0}}, "metrics.bins"),
    ({**BASE, "metrics": {"bins": "15"}}, "metrics.bins"),
    ({**BASE, "metrics": {"foo": 1}}, "metrics.foo"),
    ({**BASE, "metrics": 15}, "metrics"),
    (_doc("dataset.generator", "spiral"), "dataset.generator"),
    (_doc("dataset.generator", 1), "dataset.generator"),
    (_doc("dataset.foo", 1), "dataset.foo"),
    (_doc("dataset.n_per_class", True), "dataset.n_per_class"),
    (_doc("dataset.n_per_class", 1.5), "dataset.n_per_class"),
    (_doc("dataset.noise_sd", "0.1"), "dataset.noise_sd"),
    (_doc("dataset.noise_sd", True), "dataset.noise_sd"),
    (_doc("dataset.noise_sd", -1), "dataset.noise_sd"),
    (_doc("dataset.n_per_class", 0), "dataset.n_per_class"),
    (_doc("dataset.n_test_per_class", 0), "dataset.n_test_per_class"),
    (_doc("dataset.ood.n", 0), "dataset.ood.n"),
    (_doc("dataset.ood", []), "dataset.ood"),
    (_doc("dataset.ood.foo", 1), "dataset.ood.foo"),
    (_doc("dataset.ood.center", [1, 2, 3]), "dataset.ood.center"),
    (_doc("dataset.ood.center", [1]), "dataset.ood.center"),
    (_doc("dataset.ood.center", "1,2"), "dataset.ood.center"),
    (_doc("dataset.ood.center", [1, "2"]), "dataset.ood.center"),
    (_doc("dataset.ood.center", [True, 1]), "dataset.ood.center"),
    (_doc("dataset.shift.foo", 1), "dataset.shift.foo"),
    (_doc("dataset.shift.scales", [1, 2, 3, 4]), "dataset.shift.scales"),
    (_doc("dataset.shift.scales", [1, 2, 3, 4, 5, 6]), "dataset.shift.scales"),
    (_doc("dataset.shift.scales", 5), "dataset.shift.scales"),
    (_doc("dataset.shift.scales", [1, 2, 3, 4, "5"]), "dataset.shift.scales"),
    (_doc("dataset.shift.scales", [False, 1, 2, 3, 4]), "dataset.shift.scales"),
    (_doc("dataset.shift.scales", [5, 4, 3, 2, 1]), "dataset.shift.scales", "dataset.shift"),
    (_doc("dataset.shift.kind", "blur"), "dataset.shift.kind", "dataset.shift"),
    (_doc("dataset.shift.kind", 3), "dataset.shift.kind"),
    (_doc("encoder.foo", 1), "encoder.foo"),
    (_doc("encoder", None), "encoder"),
    (_doc("encoder", []), "encoder"),
    (_doc("encoder.depth", 0), "encoder.depth", "encoder"),
    (_doc("encoder.width", True), "encoder.width"),
    (_doc("encoder.activation", 1), "encoder.activation"),
    (_doc("encoder.activation", "foo"), "encoder.activation"),
    (_doc("encoder.width", 0), "encoder.width", "encoder"),
    (_doc("encoder", "wide"), "encoder"),
    (_doc("train.foo", 1), "train.foo"),
    (_doc("train.seed", 1), "train.seed"),
    (_doc("train.epochs", -1), "train.epochs", "train"),
    (_doc("train.batch_size", 0), "train.batch_size", "train"),
    (_doc("train.l2", "none"), "train.l2"),
    (_doc("train.optimizer", "adam"), "train.optimizer"),
    (_doc("train.optimizer.l2", 0.01), "train.optimizer.l2"),
    (_doc("train.optimizer.lr", "fast"), "train.optimizer.lr"),
    (_doc("density.foo", 1), "density.foo"),
    (_doc("density.kind", "gmm"), "density.kind"),
    (_doc("density.kind", None), "density.kind"),
    (_doc("density.bandwidth", "wide"), "density.bandwidth"),
    (_doc("density.bandwidth", True), "density.bandwidth"),
    (_doc("density.bandwidth", 0), "density.bandwidth", "density"),
    (_doc("density.bandwidth", -0.5), "density.bandwidth", "density"),
    (_doc("density.flow", 4), "density.flow"),
    (_doc("density.flow.seed", 1), "density.flow.seed"),
    (_doc("density.flow.optimizer", {"lr": 0.1}), "density.flow.optimizer"),
    (_doc("density.flow.lr", "slow"), "density.flow.lr"),
    (_doc("density.flow.epochs", 1.0), "density.flow.epochs"),
    (_doc("density.flow.epochs", -1), "density.flow.epochs", "density.flow"),
    (_doc("density.flow.batch_size", 0), "density.flow.batch_size", "density.flow"),
    (_doc("density.flow.coupling_layers", 0), "density.flow.coupling_layers",
     "density.flow"),
    (_doc("density.flow.hidden_units", 0), "density.flow.hidden_units", "density.flow"),
    (_doc("density.flow.hidden_layers", 0), "density.flow.hidden_layers",
     "density.flow"),
    (_doc("reopt.foo", 1), "reopt.foo"),
    (_doc("reopt.seed", 1), "reopt.seed"),
    (_doc("reopt.optimizer", {"lr": 0.1}), "reopt.optimizer"),
    (_doc("reopt.lr", None), "reopt.lr"),
    (_doc("reopt.epochs", -1), "reopt.epochs", "reopt"),
    (_doc("reopt.batch_size", 0), "reopt.batch_size", "reopt"),
    *((_doc(dotted, value), dotted) for dotted, value in REMOVED.items()),
    # an unknown key is refused before its value is read
    (_doc("train.lr_decay_epochs", "3"), "train.lr_decay_epochs"),
    (_doc("train.lr_decay_epochs", [3, 6]), "train.lr_decay_epochs"),
    (_doc("train.optimizer.kind", "sgd_momentum"), "train.optimizer.kind"),
]


# Numbers a config refuses, each with the path its error names: NaN and the
# infinities (json reads the tokens NaN and Infinity, and 1e999 as inf), an
# int too large for a float, and learning rates, penalties and spreads out
# of range.
BAD_NUMBERS = [
    ("dataset.noise_sd", math.nan, "dataset.noise_sd"),
    ("dataset.separation", -math.inf, "dataset.separation"),
    ("dataset.ood.sigmas", math.nan, "dataset.ood.sigmas"),
    ("dataset.ood.center", [1.0, math.inf], "dataset.ood.center"),
    ("dataset.shift.scales", [1, 2, 3, 4, math.inf], "dataset.shift.scales"),
    ("dataset.ood.spread", -0.1, "dataset.ood.spread"),
    ("train.optimizer.lr", math.nan, "train.optimizer.lr"),
    ("train.optimizer.lr", 0, "train.optimizer.lr"),
    ("train.optimizer.lr", -1e-3, "train.optimizer.lr"),
    ("train.l2", -5, "train.l2"),
    ("train.l2", 10**400, "train.l2"),
    ("density.bandwidth", math.inf, "density.bandwidth"),
    ("density.flow.lr", 0, "density.flow.lr"),
    ("density.flow.lr", math.inf, "density.flow.lr"),
    ("density.flow.l2", -0.01, "density.flow.l2"),
    ("reopt.lr", 0, "reopt.lr"),
    ("reopt.lr", math.nan, "reopt.lr"),
]

REJECTED = ([row[:2] for row in INVALID]
            + [(_doc(dotted, value), path) for dotted, value, path in BAD_NUMBERS])
REJECTED_IDS = ([row[-1] or "root" for row in INVALID]
                + [f"{dotted}={value!r}"[:40] for dotted, value, _ in BAD_NUMBERS])


class TestContractTable:
    @pytest.mark.parametrize("fields, expected", VALID)
    def test_valid_document_parses_to_dataclass_config(self, fields, expected):
        doc = json.loads(json.dumps(BASE))
        doc.update(fields)
        assert parse_config(doc) == expected

    @pytest.mark.parametrize("doc, path", REJECTED, ids=REJECTED_IDS)
    def test_invalid_document_names_the_path(self, doc, path):
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.path == path
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("dotted", REMOVED)
    def test_removed_key_exits_2(self, tmp_path, capsys, dotted):
        config = tmp_path / "removed.json"
        config.write_text(json.dumps(_doc(dotted, REMOVED[dotted])))
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {dotted}: unknown field\n"


    @pytest.mark.parametrize("dotted, value, message", [
        ("dataset.noise_sd", -1, "must be >= 0"),
        ("dataset.n_per_class", 0, "must be >= 1"),
        ("dataset.ood.n", 0, "must be >= 1"),
    ])
    def test_data_fault_exits_2_naming_its_path(self, tmp_path, capsys, dotted, value,
                                                message):
        """Checked at parse time, before any set is drawn."""
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(_doc(dotted, value)))
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {dotted}: {message}\n"


# Every value a config document can set, as parse_config reads the tree: a
# field holding a config dataclass is an object of further keys, train.seed
# is not a key, and bins is written under "metrics".
SETTABLE = [
    "seed",
    "dataset.generator", "dataset.n_per_class", "dataset.n_test_per_class",
    "dataset.noise_sd", "dataset.separation",
    "dataset.ood.n", "dataset.ood.center", "dataset.ood.spread", "dataset.ood.sigmas",
    "dataset.shift.kind", "dataset.shift.scales",
    "encoder.width", "encoder.depth", "encoder.activation",
    "train.epochs", "train.batch_size", "train.optimizer.lr", "train.l2",
    "density.kind", "density.bandwidth",
    "density.flow.coupling_layers", "density.flow.hidden_units",
    "density.flow.hidden_layers", "density.flow.epochs", "density.flow.batch_size",
    "density.flow.l2", "density.flow.lr",
    "reopt.epochs", "reopt.batch_size", "reopt.lr",
    "metrics.bins", "ensemble_size",
]


def settable_paths(cls, path: str = "") -> list[str]:
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        if f.name == "seed" and path:
            continue
        dotted = f"{path}.{f.name}" if path else f.name
        if dataclasses.is_dataclass(hints[f.name]):
            out += settable_paths(hints[f.name], dotted)
        else:
            out.append("metrics.bins" if dotted == "bins" else dotted)
    return out


def test_settable_config_values_are_pinned():
    assert len(SETTABLE) == 33
    assert settable_paths(ExperimentConfig) == SETTABLE


def refused(tp):
    """A value the field type tp refuses: one past its bound, or a string."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if typing.get_origin(tp) is typing.Annotated:
        bound = tp.__metadata__[0]
        return bound.low if bound.strict else bound.low - 1
    return "x"


@pytest.mark.parametrize("dotted", SETTABLE)
def test_a_refused_value_names_its_field(dotted):
    """Parsed, a bad value fails at its dotted path; given in code to the
    config that holds it, at its field name."""
    *parents, name = ("bins" if dotted == "metrics.bins" else dotted).split(".")
    owner = ExperimentConfig
    for parent in parents:
        owner = typing.get_type_hints(owner)[parent]
    value = refused(typing.get_type_hints(owner, include_extras=True)[name])
    with pytest.raises(ConfigError) as parsed:
        parse_config(_doc(dotted, value))
    assert parsed.value.path == dotted
    with pytest.raises(ConfigError) as built:
        owner(**{name: value})
    assert built.value.path == name
    assert built.value.message == parsed.value.message


@pytest.mark.parametrize("cls, field, value, message", [
    (DensityConfig, "kind", "kdee", "must be one of ('kde', 'flow')"),
    (DatasetSpec, "generator", "blobs", "must be one of ('two_moons', 'two_ovals')"),
    (EncoderConfig, "activation", "gelu", "must be one of ('relu', 'tanh', 'linear')"),
    (OodSpec, "sigmas", math.nan, "expected a finite number, got nan"),
    (FlowConfig, "epochs", True, "expected int, got bool"),
    (ExperimentConfig, "train", {"epochs": 3}, "expected TrainConfig, got dict"),
], ids=["kind", "generator", "activation", "sigmas", "epochs", "train"])
def test_a_config_built_in_code_is_checked_as_a_parsed_one(cls, field, value, message):
    with pytest.raises(ConfigError) as info:
        cls(**{field: value})
    assert str(info.value) == f"{field}: {message}"


def config_classes(cls) -> set:
    """cls and every config dataclass its fields hold, all the way down."""
    found = {cls}
    for tp in typing.get_type_hints(cls).values():
        if dataclasses.is_dataclass(tp):
            found |= config_classes(tp)
    return found


def test_the_config_surface_lives_in_one_module():
    """Every config class is defined in config.py, which imports none of the
    modules that read the configs."""
    assert {cls.__module__ for cls in config_classes(ExperimentConfig)} == {config.__name__}
    imported = set()
    for node in ast.walk(ast.parse(Path(config.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name.rsplit(".", 1)[-1] for name in imported if name} & {
        "model", "density", "predictor", "optim"}
