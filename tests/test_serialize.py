"""Model container round-trips must be exact."""

import json

import numpy as np
import pytest

from density_softmax import cli
from density_softmax.data import make_two_moons
from density_softmax.density import FlowConfig, FlowModel, ScaledDensity
from density_softmax.model import EncoderConfig, TrainConfig, init_model
from density_softmax.optim import OptimizerSpec
from density_softmax.predictor import (DensityConfig, DensitySoftmaxModel,
                                       ReoptConfig, ensemble_train, train_pipeline)
from density_softmax.serialize import (ContainerError, density_softmax_container,
                                       ensemble_container, load_container,
                                       save_container)

SMALL = EncoderConfig(input_dim=2, width=8, depth=2, latent_dim=8)
FAST = TrainConfig(epochs=5, batch_size=64,
                   optimizer=OptimizerSpec(kind="adam", lr=3e-3), seed=0)


@pytest.fixture(scope="module")
def pipeline_result():
    train = make_two_moons(80, 0.1, seed=0)
    return train, train_pipeline(train, SMALL, FAST, DensityConfig(kind="kde"),
                                 ReoptConfig(epochs=2, batch_size=64, seed=0))


class TestDensitySoftmaxContainer:
    def test_round_trip_predictions_bitwise(self, tmp_path, pipeline_result):
        train, result = pipeline_result
        path = tmp_path / "model.json"
        save_container(density_softmax_container(result.model), path)
        back = load_container(path)
        x = train.features[:20]
        np.testing.assert_array_equal(back.predict(x).probs,
                                      result.model.predict(x).probs)
        assert back.density.max_train_log_density == \
            result.model.density.max_train_log_density

    def test_version_field_required(self, tmp_path, pipeline_result):
        _, result = pipeline_result
        doc = density_softmax_container(result.model)
        del doc["version"]
        path = tmp_path / "noversion.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ContainerError, match="version"):
            load_container(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"version": 1, "kind": "mystery"}')
        with pytest.raises(ContainerError, match="kind"):
            load_container(path)

    def test_flow_density_round_trip(self, tmp_path):
        train = make_two_moons(130, 0.1, seed=1)
        result = train_pipeline(
            train, SMALL, FAST,
            DensityConfig(kind="flow", flow=FlowConfig(epochs=3, batch_size=128,
                                                       coupling_layers=2)),
            ReoptConfig(epochs=1, batch_size=64, seed=0))
        path = tmp_path / "flow_model.json"
        save_container(density_softmax_container(result.model), path)
        back = load_container(path)
        x = train.features[:10]
        np.testing.assert_array_equal(back.predict(x).probs,
                                      result.model.predict(x).probs)


class TestErmAndEnsembleContainers:
    def test_erm_round_trip(self, tmp_path, pipeline_result):
        train, result = pipeline_result
        erm = result.erm_model
        doc = density_softmax_container(erm)
        assert doc["kind"] == "erm" and "density" not in doc
        path = tmp_path / "erm.json"
        save_container(doc, path)
        back = load_container(path)
        x = train.features[:20]
        np.testing.assert_array_equal(back.predict(x).probs, erm.predict(x).probs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_erm_model_rejects_non_finite_row(self, pipeline_result, bad):
        train, result = pipeline_result
        x = train.features[:4].copy()
        x[2, 0] = bad
        with pytest.raises(ValueError, match="input row 2 is not finite"):
            result.erm_model.predict(x)

    def test_ensemble_round_trip(self, tmp_path):
        train = make_two_moons(40, 0.1, seed=0)
        ens = ensemble_train(2, SMALL, 2, train, FAST)
        path = tmp_path / "ens.json"
        save_container(ensemble_container(ens), path)
        back = load_container(path)
        x = train.features[:10]
        np.testing.assert_array_equal(back.predict(x).probs, ens.predict(x).probs)
        assert back.param_count() == ens.param_count()

    def test_save_is_deterministic(self, tmp_path, pipeline_result):
        _, result = pipeline_result
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_container(density_softmax_container(result.model), p1)
        save_container(density_softmax_container(result.model), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_previous_file_intact(self, tmp_path, pipeline_result):
        _, result = pipeline_result
        path = tmp_path / "model.json"
        save_container(density_softmax_container(result.model), path)
        before = path.read_bytes()
        doc = density_softmax_container(result.model)
        doc["z"] = np.float32(1.0)  # json fails on it after writing the rest
        with pytest.raises(TypeError):
            save_container(doc, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def _flow_doc(model, dim: int) -> dict:
    """model's container with a fresh dim-d coupling flow as its density."""
    flow = FlowModel.build(dim, FlowConfig(coupling_layers=2, hidden_layers=1))
    return density_softmax_container(DensitySoftmaxModel(
        encoder=model.encoder, classifier=model.classifier,
        density=ScaledDensity(inner=flow, max_train_log_density=0.0)))


def _drop_density(doc, model):
    del doc["density"]
    return doc


def _short_theta(doc, model):
    doc["classifier"]["theta"] = doc["classifier"]["theta"][:4]
    return doc


def _narrow_support(doc, model):
    doc["density"]["support"] = [row[:4] for row in doc["density"]["support"]]
    return doc


def _config_input_dim(doc, model):
    doc["encoder"]["config"]["input_dim"] = 3
    return doc


def _no_encoder_layers(doc, model):
    doc["encoder"]["layers"] = []
    return doc


def _flow_of_other_dim(doc, model):
    return _flow_doc(model, 4)


def _short_mask(doc, model):
    doc = _flow_doc(model, 8)
    doc["density"]["layers"][1]["mask"] = doc["density"]["layers"][1]["mask"][:6]
    return doc


class TestContainerValidation:
    """A malformed container fails in load_container with a ContainerError
    naming what is wrong, and the CLI exits 2; it never loads and then fails
    at predict time."""

    @pytest.mark.parametrize("corrupt, message", [
        (_drop_density, "missing key 'density'"),
        (_short_theta, r"theta has shape \(4, 2\), expected latent_dim x k = \(8, 2\)"),
        (_narrow_support, "kde density is 4-d, the encoder's latent_dim is 8"),
        (_flow_of_other_dim, "flow density is 4-d, the encoder's latent_dim is 8"),
        (_short_mask, "coupling layer 1 mask has length 6, the flow is 8-d"),
        (_config_input_dim, "encoder layers map 2 -> 8 columns, config says 3 -> 8"),
        (_no_encoder_layers, "encoder has no layers"),
    ], ids=["missing_key", "theta_shape", "kde_support_width", "flow_dim",
            "mask_length", "encoder_layers", "no_encoder_layers"])
    def test_rejected_at_load_and_cli_exits_2(self, tmp_path, pipeline_result,
                                              corrupt, message, capsys):
        _, result = pipeline_result
        doc = corrupt(density_softmax_container(result.model), result.model)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ContainerError, match=message):
            load_container(path)
        code = cli.main(["surface", "--model", str(path), "--out", str(tmp_path / "s")])
        assert code == 2
        assert message.replace("\\", "") in capsys.readouterr().err
