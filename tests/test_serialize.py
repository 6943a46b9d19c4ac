"""Model container round-trips must be exact."""

import json
from pathlib import Path

import numpy as np
import pytest

from density_softmax import cli
from density_softmax.data import make_two_moons
from density_softmax.density import FlowConfig, FlowModel, ScaledDensity
from density_softmax.model import EncoderConfig, TrainConfig, init_model
from density_softmax.optim import OptimizerSpec
from density_softmax.predictor import (DensityConfig, DensitySoftmaxModel,
                                       ReoptConfig, ensemble_train, train_pipeline)
from density_softmax.serialize import (CONTAINER_VERSION, ContainerError,
                                       _decode_array, _encode_array, _model_to_dict,
                                       density_softmax_container, ensemble_container,
                                       load_container, save_container)

DATA = Path(__file__).resolve().parent / "data"

SMALL = EncoderConfig(width=8, depth=2)
FAST = TrainConfig(epochs=5, batch_size=64,
                   optimizer=OptimizerSpec(lr=3e-3), seed=0)


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
        with pytest.raises(ContainerError, match="missing version field"):
            load_container(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"version": CONTAINER_VERSION, "kind": "mystery"}))
        with pytest.raises(ContainerError, match="unknown container kind 'mystery'"):
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


    def test_stored_flow_container_loads_predicts_and_saves_bit_for_bit(self, tmp_path):
        """data/flow_model_v2_expected.json holds the outputs of the version-2
        container data/flow_model_v2.json, written while the coupling layers
        kept their s-net and t-net as separate arrays beside a mask;
        data/flow_model_v3.json is the same model with the subnets stacked,
        and data/flow_model_v4.json the same again with the entries no
        output reads dropped: each first layer keeps its rows P, each last
        layer its columns T. It must load, predict the same bits and write
        the same bytes back."""
        model = load_container(DATA / "flow_model_v4.json")
        want = json.loads((DATA / "flow_model_v2_expected.json").read_text())
        pred = model.predict(_decode_array(want["x"], "x", 2))
        np.testing.assert_array_equal(pred.probs, _decode_array(want["probs"], "probs", 2))
        np.testing.assert_array_equal(pred.scaled_likelihood,
                                      _decode_array(want["scaled_likelihood"], "s", 1))
        path = tmp_path / "again.json"
        save_container(density_softmax_container(model), path)
        assert path.read_bytes() == (DATA / "flow_model_v4.json").read_bytes()


def _key_paths(node, path=()):
    """The path to every object key in a JSON document, parents first."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _key_paths(value, path + (i,))


class TestEveryStoredKeyIsRead:
    """A container stores no fact the loader ignores: deleting any one key
    of a saved container makes it fail to load."""

    @pytest.fixture(scope="class")
    def containers(self, pipeline_result):
        train, result = pipeline_result
        flow = train_pipeline(
            make_two_moons(130, 0.1, seed=1), SMALL, FAST,
            DensityConfig(kind="flow", flow=FlowConfig(epochs=1, batch_size=128,
                                                       coupling_layers=2, hidden_layers=1)),
            ReoptConfig(epochs=1, batch_size=64, seed=0))
        return {"kde": density_softmax_container(result.model),
                "flow": density_softmax_container(flow.model),
                "erm": density_softmax_container(result.erm_model),
                "ensemble": ensemble_container(ensemble_train(2, SMALL, 2, train, FAST))}

    @pytest.mark.parametrize("kind", ["kde", "flow", "erm", "ensemble"])
    def test_deleting_any_key_fails_to_load(self, tmp_path, containers, kind):
        doc = containers[kind]
        path = tmp_path / "model.json"
        paths = list(_key_paths(doc))
        assert len(paths) > 20
        for key_path in paths:
            broken = json.loads(json.dumps(doc))
            parent = broken
            for key in key_path[:-1]:
                parent = parent[key]
            del parent[key_path[-1]]
            path.write_text(json.dumps(broken))
            with pytest.raises(ContainerError):
                load_container(path)
                pytest.fail(f"{kind} container without {key_path} loaded")

    @pytest.mark.parametrize("kind", ["kde", "flow", "erm", "ensemble"])
    def test_adding_a_key_to_any_object_fails_to_load(self, tmp_path, containers, kind):
        """The converse: the loader reads no object with a key it does not
        know, whatever its depth, and names the key."""
        doc = containers[kind]
        path = tmp_path / "model.json"
        objects = [()] + [p for p in _key_paths(doc) if isinstance(_at(doc, p), dict)]
        assert len(objects) >= 9
        for key_path in objects:
            broken = json.loads(json.dumps(doc))
            _at(broken, key_path)["stray"] = 0
            path.write_text(json.dumps(broken))
            with pytest.raises(ContainerError, match="has unknown key 'stray'"):
                load_container(path)
                pytest.fail(f"{kind} container with a stray key at {key_path} loaded")

    def test_unknown_key_names_the_object_and_cli_exits_2(self, tmp_path, containers,
                                                          capsys):
        doc = json.loads(json.dumps(containers["ensemble"]))
        doc["members"][1]["version"] = CONTAINER_VERSION
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        message = "ensemble member 1 has unknown key 'version'"
        with pytest.raises(ContainerError, match=message):
            load_container(path)
        code = cli.main(["surface", "--model", str(path), "--out", str(tmp_path / "s")])
        assert code == 2
        assert message in capsys.readouterr().err


def _at(doc, key_path):
    for key in key_path:
        doc = doc[key]
    return doc


class TestArrayEncoding:
    EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]

    def test_extreme_values_round_trip_bit_for_bit(self, tmp_path):
        enc, clf = init_model(SMALL, 2, 2, seed=0)
        first = enc.net.layers[0]
        first.weight.data[0, :4] = self.EXTREMES
        first.bias.data[:4] = self.EXTREMES
        clf.theta.data[0, :] = [-0.0, 5e-324]
        path = tmp_path / "extreme.json"
        save_container(density_softmax_container(DensitySoftmaxModel(enc, clf)), path)
        back = load_container(path)
        pairs = [(back.classifier.theta, clf.theta)]
        for mine, theirs in zip(back.encoder.net.layers, enc.net.layers):
            pairs += [(mine.weight, theirs.weight), (mine.bias, theirs.bias)]
        for mine, theirs in pairs:
            assert mine.data.dtype == np.float64 and mine.data.flags.writeable
            np.testing.assert_array_equal(mine.data.view(np.uint64),
                                          theirs.data.view(np.uint64))

    def test_encode_decode_is_exact_for_any_shape(self):
        for a in (np.array(self.EXTREMES), np.arange(6.0).reshape(2, 3).T,
                  np.zeros((0, 3))):
            d = json.loads(json.dumps(_encode_array(a)))
            back = _decode_array(d, "a", a.ndim)
            assert back.shape == a.shape
            np.testing.assert_array_equal(back.view(np.uint64),
                                          np.ascontiguousarray(a).view(np.uint64))


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

    def test_binary_ensemble_surface_exits_0(self, tmp_path):
        train = make_two_moons(40, 0.1, seed=0)
        path = tmp_path / "ens.json"
        save_container(ensemble_container(ensemble_train(2, SMALL, 2, train, FAST)), path)
        code = cli.main(["surface", "--model", str(path), "--out", str(tmp_path / "s"),
                         "--resolution", "5"])
        assert code == 0
        lines = (tmp_path / "s" / "surface.csv").read_text().splitlines()
        assert len(lines) == 1 + 5 * 5

    @pytest.mark.parametrize("second, message", [
        (None, "an ensemble needs at least one member"),
        ((SMALL, 2, 3), "ensemble member 1 has k = 3, member 0 has k = 2"),
        ((SMALL, 3, 2),
         "ensemble member 1 has input_dim = 3, member 0 has input_dim = 2"),
    ], ids=["no_members", "k", "input_dim"])
    def test_inconsistent_ensemble_rejected_at_load(self, tmp_path, pipeline_result,
                                                    second, message, capsys):
        """second: (encoder config, input width, k) of a member beside the 2-class ERM
        model, or None for an ensemble with no members."""
        _, result = pipeline_result
        members = []
        if second is not None:
            enc, clf = init_model(*second, seed=0)
            members = [_model_to_dict(result.erm_model),
                       _model_to_dict(DensitySoftmaxModel(enc, clf))]
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"version": CONTAINER_VERSION, "kind": "ensemble",
                                    "members": members}))
        with pytest.raises(ContainerError, match=message):
            load_container(path)
        code = cli.main(["surface", "--model", str(path), "--out", str(tmp_path / "s")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_non_object_member_rejected_at_load(self, tmp_path, capsys):
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"version": CONTAINER_VERSION, "kind": "ensemble",
                                    "members": [[]]}))
        with pytest.raises(ContainerError, match="ensemble member 0 is not an object"):
            load_container(path)
        code = cli.main(["surface", "--model", str(path), "--out", str(tmp_path / "s")])
        assert code == 2
        assert "ensemble member 0 is not an object" in capsys.readouterr().err

    def test_stored_keys_are_the_documented_facts(self, pipeline_result):
        """Version 4 keeps no copy of a fact the loader works out again."""
        train, result = pipeline_result
        kde = density_softmax_container(result.model)
        assert set(kde) == {"version", "kind", "encoder", "classifier", "density"}
        assert set(kde["classifier"]) == {"theta"}
        assert set(kde["density"]) == {"kind", "support", "bandwidth", "max_train_log_density"}
        assert all(set(layer) == {"weight", "bias", "activation", "residual"}
                   for layer in kde["encoder"])
        flow = density_softmax_container(DensitySoftmaxModel(
            result.model.encoder, result.model.classifier,
            ScaledDensity(FlowModel.build(8, FlowConfig(coupling_layers=2)), 0.0)))
        assert set(flow["density"]) == {"kind", "layers", "max_train_log_density"}
        assert [[net[0]["weight"]["shape"], net[-1]["weight"]["shape"]]
                for net in flow["density"]["layers"]] == [[[2, 4, 16], [2, 16, 4]]] * 2
        ens = ensemble_container(ensemble_train(2, SMALL, 2, train, FAST))
        assert set(ens) == {"version", "kind", "members"}
        assert all(set(m) == {"kind", "encoder", "classifier"} for m in ens["members"])

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


def _sliced(d: dict, index) -> dict:
    """The stored array d with index applied, stored again."""
    return _encode_array(_decode_array(d, "test array", len(d["shape"]))[index])


def _short_theta(doc, model):
    doc["classifier"]["theta"] = _sliced(doc["classifier"]["theta"], slice(4))
    return doc


def _narrow_support(doc, model):
    doc["density"]["support"] = _sliced(doc["density"]["support"], (slice(None), slice(4)))
    return doc


def _encoder_layers_do_not_compose(doc, model):
    """The first encoder layer maps 2 -> 7 columns, the next reads 8."""
    first = doc["encoder"][0]
    first["weight"] = _sliced(first["weight"], (slice(None), slice(7)))
    first["bias"] = _sliced(first["bias"], slice(7))
    return doc


def _no_encoder_layers(doc, model):
    doc["encoder"] = []
    return doc


def _flow_of_other_dim(doc, model):
    return _flow_doc(model, 4)


def _no_flow_layers(doc, model):
    doc = _flow_doc(model, 8)
    doc["density"]["layers"] = []
    return doc


def _one_column_theta(doc, model):
    doc["classifier"]["theta"] = _sliced(doc["classifier"]["theta"], (slice(None), slice(1)))
    return doc


def _wide_subnet_input(doc, model):
    """Coupling layer 1's first layer reads 6 columns, not the 4 of its P."""
    doc = _flow_doc(model, 8)
    first = doc["density"]["layers"][1][0]
    weight = _decode_array(first["weight"], "test array", 3)
    first["weight"] = _encode_array(np.concatenate([weight, weight[:, :2]], axis=1))
    return doc


def _one_slot_stack(doc, model):
    """Coupling layer 1's first layer keeps only the s-net's slot."""
    doc = _flow_doc(model, 8)
    first = doc["density"]["layers"][1][0]
    first["weight"] = _sliced(first["weight"], slice(1))
    first["bias"] = _sliced(first["bias"], slice(1))
    return doc


def _nonlinear_stack_end(doc, model):
    doc = _flow_doc(model, 8)
    doc["density"]["layers"][1][-1]["activation"] = "tanh"
    return doc


def _erm_with_density(doc, model):
    doc["kind"] = "erm"
    return doc


def _short_bias(doc, model):
    doc["encoder"][0]["bias"] = _sliced(doc["encoder"][0]["bias"], slice(5))
    return doc


def _version_3(doc, model):
    """The stored version-3 container (dim -> dim coupling nets)."""
    return json.loads((DATA / "flow_model_v3.json").read_text())


def _version_2(doc, model):
    """The stored version-2 container (masks, separate subnets, encoder config)."""
    return json.loads((DATA / "flow_model_v2.json").read_text())


def _version_1(doc, model):
    """The same model as the version-1 format wrote it: arrays as nested lists."""
    def to_v1(node):
        if isinstance(node, dict) and "float64le" in node:
            return _decode_array(node, "test array", len(node["shape"])).tolist()
        if isinstance(node, dict):
            return {key: to_v1(value) for key, value in node.items()}
        return [to_v1(value) for value in node] if isinstance(node, list) else node
    return {**to_v1(doc), "version": 1}


def _base64_cut_short(doc, model):
    weight = doc["encoder"][1]["weight"]
    weight["float64le"] = weight["float64le"][:-4]
    return doc


def _base64_cut_mid_quad(doc, model):
    weight = doc["encoder"][1]["weight"]
    weight["float64le"] = weight["float64le"][:-1]
    return doc


def _not_base64(doc, model):
    bias = doc["encoder"][0]["bias"]
    bias["float64le"] = bias["float64le"][:4] + "!" + bias["float64le"][4:]
    return doc


def _shape_disagrees_with_bytes(doc, model):
    doc["classifier"]["theta"]["shape"] = [8, 3]
    return doc


def _flat_theta(doc, model):
    doc["classifier"]["theta"]["shape"] = [16]  # 16 floats: the byte count fits
    return doc


def _nested_list_support(doc, model):
    doc["density"]["support"] = model.density.inner.support.tolist()
    return doc


class TestContainerValidation:
    """A malformed container fails in load_container with a ContainerError
    naming what is wrong, and the CLI exits 2; it never loads and then fails
    at predict time."""

    @pytest.mark.parametrize("corrupt, message", [
        (_drop_density, "missing key 'density'"),
        (_short_theta, "classifier theta has 4 rows, the encoder's latent_dim is 8"),
        (_narrow_support, "kde density is 4-d, the encoder's latent_dim is 8"),
        (_flow_of_other_dim, "coupling layer 0 net maps 2 -> 2 columns; in the 8-d flow "
                             "its halves need 4 -> 4"),
        (_encoder_layers_do_not_compose,
         r"encoder: layer widths do not compose: \(2, 7\) -> \(8, 8\)"),
        (_no_encoder_layers, "encoder has no layers"),
        (_version_3, "unsupported container version 3; this build reads version 4, "
                     "so write the model again with `run`"),
        (_version_2, "unsupported container version 2; this build reads version 4, "
                     "so write the model again with `run`"),
        (_version_1, "unsupported container version 1; this build reads version 4, "
                     "so write the model again with `run`"),
        (_base64_cut_short, "encoder layer 1 weight holds 510 bytes, shape "
                            r"\[8, 8\] needs 512"),
        (_base64_cut_mid_quad, "encoder layer 1 weight is not valid base64"),
        (_not_base64, "encoder layer 0 bias is not valid base64"),
        (_shape_disagrees_with_bytes, r"classifier theta holds 128 bytes, shape \[8, 3\] "
                                      "needs 192"),
        (_flat_theta, r"classifier theta shape \[16\] is not a list of 2 non-negative "
                      "integers"),
        (_nested_list_support, r"kde support is not a \{shape, float64le\} object"),
        (_wide_subnet_input, "coupling layer 1 net maps 6 -> 4 columns; in the 8-d flow "
                             "its halves need 4 -> 4"),
        (_short_bias, r"encoder layer 0: bias has shape \(5,\), the layer has 8 units"),
        (_one_slot_stack, r"coupling layer 1 net layer 0 weight has shape \(1, 4, 16\), "
                          r"not a \(2, in, out\) stack"),
        (_no_flow_layers, "flow needs at least one coupling layer"),
        (_one_column_theta, "classifier theta has 1 column; a head needs at least 2 classes"),
        (_nonlinear_stack_end, "coupling layer 1 net last layer is tanh, not linear"),
        (_erm_with_density, "an erm container has no density, but this one carries one"),
    ], ids=["missing_key", "theta_shape", "kde_support_width", "flow_dim",
            "encoder_layers", "no_encoder_layers", "version_3", "version_2", "version_1",
            "base64_cut_short", "base64_cut_mid_quad", "not_base64", "shape_vs_bytes",
            "shape_ndim", "nested_list_array", "subnet_width", "bias_length",
            "subnet_shapes", "no_flow_layers", "theta_columns", "stack_end_activation",
            "erm_with_density"])
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
