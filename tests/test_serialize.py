"""Model container round-trips must be exact."""

import base64
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_float32_exact, erm_model, identity_projection

from density_softmax import cli
from density_softmax.config import (DensityConfig, EncoderConfig, FlowConfig, OptimizerSpec,
                                    ReoptConfig, TrainConfig)
from density_softmax.data import make_two_moons
from density_softmax.density import FlowModel, ScaledDensity
from density_softmax.model import init_model
from density_softmax.predictor import DensitySoftmaxModel, ensemble_train, train_pipeline
from density_softmax.serialize import (CONTAINER_SUFFIX, CONTAINER_VERSION, ContainerError,
                                       _model_to_dict, _read, density_softmax_container,
                                       ensemble_container, load_container, save_container)

DATA = Path(__file__).resolve().parent / "data"
STORED = DATA / f"flow_model_v8{CONTAINER_SUFFIX}"

SMALL = EncoderConfig(width=8, depth=2)
FAST = TrainConfig(epochs=5, batch_size=64,
                   optimizer=OptimizerSpec(lr=3e-3), seed=0)


@pytest.fixture(scope="module")
def pipeline_result():
    train = make_two_moons(80, 0.1, seed=0)
    return train, train_pipeline(train, SMALL, FAST, DensityConfig(kind="kde"),
                                 ReoptConfig(epochs=2, batch_size=64), 2)


class TestDensitySoftmaxContainer:
    def test_round_trip_predictions_bitwise(self, tmp_path, pipeline_result):
        train, result = pipeline_result
        path = tmp_path / "model.dsm"
        save_container(density_softmax_container(result.model), path)
        back = load_container(path)
        x = train.features[:20]
        np.testing.assert_array_equal(back.predict(x).probs,
                                      result.model.predict(x).probs)
        assert back.density.max_train_log_density == \
            result.model.density.max_train_log_density

    @pytest.mark.parametrize("which", ["model", "erm_model"])
    def test_loaded_model_holds_the_trained_arrays_and_predicts_bit_for_bit(
            self, tmp_path, pipeline_result, which):
        """The encoder and the ERM head, trained in float32, load as the same
        float64 arrays, so the loaded model serves the same bits."""
        train, result = pipeline_result
        model = getattr(result, which)
        path = tmp_path / "model.dsm"
        save_container(density_softmax_container(model), path)
        back = load_container(path)
        trained = [p.data for p in model.encoder.params() + model.classifier.params()]
        loaded = [p.data for p in back.encoder.params() + back.classifier.params()]
        for got, want in zip(loaded, trained):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)
        assert_float32_exact(loaded[:-1] if which == "model" else loaded)
        x = train.features
        np.testing.assert_array_equal(back.predict(x).probs, model.predict(x).probs)
        for row in range(3):
            np.testing.assert_array_equal(back.predict(x[row]).probs,
                                          model.predict(x[row]).probs)

    def test_version_field_required(self, tmp_path, pipeline_result):
        _, result = pipeline_result
        doc = density_softmax_container(result.model)
        del doc["version"]
        path = tmp_path / "noversion.dsm"
        save_container(doc, path)
        with pytest.raises(ContainerError, match="missing version field"):
            load_container(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "weird.dsm"
        save_container({"version": CONTAINER_VERSION, "kind": "mystery"}, path)
        with pytest.raises(ContainerError, match="unknown container kind 'mystery'"):
            load_container(path)

    def test_version_7_document_refused(self, tmp_path, capsys):
        """A version-7 container is one JSON line holding base64 arrays, so
        its header parses, and the version field alone refuses it."""
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"classifier": {"theta": {
            "float64le": base64.b64encode(np.zeros(4).tobytes()).decode("ascii"),
            "shape": [2, 2]}}, "encoder": {"activation": "relu", "layers": []},
            "kind": "erm", "version": 7}, sort_keys=True) + "\n")
        _refused(path, _old_version(7), capsys)

    def test_flow_density_round_trip(self, tmp_path):
        train = make_two_moons(130, 0.1, seed=1)
        result = train_pipeline(
            train, SMALL, FAST,
            DensityConfig(kind="flow", flow=FlowConfig(epochs=3, batch_size=128,
                                                       coupling_layers=2)),
            ReoptConfig(epochs=1, batch_size=64), 2)
        path = tmp_path / "flow_model.dsm"
        save_container(density_softmax_container(result.model), path)
        back = load_container(path)
        x = train.features[:10]
        np.testing.assert_array_equal(back.predict(x).probs,
                                      result.model.predict(x).probs)


    def test_stored_flow_container_loads_predicts_and_saves_bit_for_bit(self, tmp_path):
        """data/flow_model_v2_expected.json holds the outputs of a version-2
        container, written while the coupling layers kept their s-net and
        t-net as separate arrays beside a mask, as base64 arrays. STORED is
        the same model in the current layout: stacked subnets that store
        only the entries an output reads, no per-layer activation, and the
        identity projection on its 8-d latent (mean 0, directions I, scales
        1, residual_scale 1; no row has a residual), with every array's bits
        those of the version-7 file it was converted from. It must load,
        predict the same bits and write the same bytes back. The probs are
        the version-2 ones; the scaled likelihoods were re-recorded from the
        same x once the log-det became each row's sum of s over the 4
        transformed columns, not a zero-padded 8-wide row sum (3 of 38 rows
        moved by at most 8 ulp)."""
        model = load_container(STORED)
        want = json.loads((DATA / "flow_model_v2_expected.json").read_text())
        pred = model.predict(_b64_array(want["x"]))
        np.testing.assert_array_equal(pred.probs, _b64_array(want["probs"]))
        np.testing.assert_array_equal(pred.scaled_likelihood,
                                      _b64_array(want["scaled_likelihood"]))
        path = tmp_path / "again.dsm"
        save_container(density_softmax_container(model), path)
        assert path.read_bytes() == STORED.read_bytes()

    def test_stored_container_serves_its_weights_unrounded(self):
        """STORED was trained in float64: its weights are not float32
        values, and loading keeps every bit of them, so it still serves its
        recorded probs (see the test above)."""
        model = load_container(STORED)
        arrays = [p.data for p in model.encoder.params() + model.classifier.params()]
        assert {a.dtype for a in arrays} == {np.dtype(np.float64)}
        assert all(not np.array_equal(a.astype(np.float32), a) for a in arrays)
        want = json.loads((DATA / "flow_model_v2_expected.json").read_text())
        pred = model.predict(_b64_array(want["x"]))
        np.testing.assert_array_equal(pred.probs, _b64_array(want["probs"]))


def _b64_array(d: dict) -> np.ndarray:
    """An array stored as {"shape", "float64le": base64 of its little-endian
    bytes}, as data/flow_model_v2_expected.json stores them."""
    return np.frombuffer(base64.b64decode(d["float64le"]), "<f8").reshape(d["shape"])


def _edit_header(path: Path, edit) -> None:
    """Rewrite the container file at path with edit(header) applied to its
    parsed header line, in place; the payload stays as it was."""
    line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def _refused(path: Path, message: str, capsys) -> None:
    """Loading the container at path raises a ContainerError matching
    message, and the CLI exits 2 with it."""
    with pytest.raises(ContainerError, match=message):
        load_container(path)
    code = cli.main(["surface", "--model", str(path), "--out", str(path.parent / "s")])
    assert code == 2
    assert message.replace("\\", "") in capsys.readouterr().err


class TestFileLayout:
    def test_header_line_then_the_arrays_bytes_in_header_order(self, tmp_path,
                                                               pipeline_result):
        """The header lists each array as {shape, offset}, in sorted-key
        order, and the payload holds the arrays' little-endian float64
        bytes back to back in that order, with nothing before, between or
        after them."""
        _, result = pipeline_result
        model = result.model
        path = tmp_path / "model.dsm"
        save_container(density_softmax_container(model), path)
        line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        assert line.decode() == json.dumps(header, sort_keys=True)
        stored = [_at(header, p) for p in _key_paths(header)
                  if isinstance(_at(header, p), dict) and "offset" in _at(header, p)]
        arrays = [model.classifier.theta.data] + [
            getattr(model.density.inner, name) for name in ("directions", "mean", "support")
        ] + [a for layer in model.encoder.net.layers for a in (layer.bias.data,
                                                                layer.weight.data)]
        assert [d["shape"] for d in stored] == [list(a.shape) for a in arrays]
        assert payload == b"".join(np.asarray(a, "<f8").tobytes() for a in arrays)
        assert [d["offset"] for d in stored] == list(
            np.cumsum([0] + [a.nbytes for a in arrays[:-1]]))

    @pytest.mark.parametrize("which", ["model", "erm_model", "ensemble"])
    def test_save_load_save_writes_the_same_bytes(self, tmp_path, pipeline_result, which):
        train, result = pipeline_result
        if which == "ensemble":
            doc = ensemble_container(ensemble_train(2, result.erm_model, SMALL, train, FAST))
        else:
            doc = density_softmax_container(getattr(result, which))
        first, again = tmp_path / "first.dsm", tmp_path / "again.dsm"
        save_container(doc, first)
        back = load_container(first)
        save_container(ensemble_container(back) if which == "ensemble"
                       else density_softmax_container(back), again)
        assert again.read_bytes() == first.read_bytes()


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
    of a saved container's header makes it fail to load."""

    @pytest.fixture(scope="class")
    def containers(self, pipeline_result, tmp_path_factory):
        """Each kind's saved file, as bytes."""
        train, result = pipeline_result
        flow = train_pipeline(
            make_two_moons(130, 0.1, seed=1), SMALL, FAST,
            DensityConfig(kind="flow", flow=FlowConfig(epochs=1, batch_size=128,
                                                       coupling_layers=2, hidden_layers=1)),
            ReoptConfig(epochs=1, batch_size=64), 2)
        docs = {"kde": density_softmax_container(result.model),
                "flow": density_softmax_container(flow.model),
                "erm": density_softmax_container(result.erm_model),
                "ensemble": ensemble_container(
                    ensemble_train(2, result.erm_model, SMALL, train, FAST))}
        path = tmp_path_factory.mktemp("containers") / "model.dsm"
        saved = {}
        for kind, doc in docs.items():
            save_container(doc, path)
            saved[kind] = path.read_bytes()
        return saved

    @pytest.mark.parametrize("kind", ["kde", "flow", "erm", "ensemble"])
    def test_deleting_any_key_fails_to_load(self, tmp_path, containers, kind):
        path = tmp_path / "model.dsm"
        path.write_bytes(containers[kind])
        paths = list(_key_paths(_read(path)[0]))
        assert len(paths) > 20
        for key_path in paths:
            path.write_bytes(containers[kind])
            _edit_header(path, lambda header: _at(header, key_path[:-1]).pop(key_path[-1]))
            with pytest.raises(ContainerError):
                load_container(path)
                pytest.fail(f"{kind} container without {key_path} loaded")

    @pytest.mark.parametrize("kind", ["kde", "flow", "erm", "ensemble"])
    def test_adding_a_key_to_any_object_fails_to_load(self, tmp_path, containers, kind):
        """The converse: the loader reads no object with a key it does not
        know, whatever its depth, and names the key."""
        path = tmp_path / "model.dsm"
        path.write_bytes(containers[kind])
        header = _read(path)[0]
        objects = [()] + [p for p in _key_paths(header) if isinstance(_at(header, p), dict)]
        assert len(objects) >= 9
        for key_path in objects:
            path.write_bytes(containers[kind])
            _edit_header(path, lambda header: _at(header, key_path).update(stray=0))
            with pytest.raises(ContainerError, match="has unknown key 'stray'"):
                load_container(path)
                pytest.fail(f"{kind} container with a stray key at {key_path} loaded")

    def test_unknown_key_names_the_object_and_cli_exits_2(self, tmp_path, containers,
                                                          capsys):
        path = tmp_path / "model.dsm"
        path.write_bytes(containers["ensemble"])
        _edit_header(path, lambda header: header["members"][1].update(
            version=CONTAINER_VERSION))
        _refused(path, "ensemble member 1 has unknown key 'version'", capsys)


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
        path = tmp_path / "extreme.dsm"
        save_container(density_softmax_container(DensitySoftmaxModel(enc, clf)), path)
        back = load_container(path)
        pairs = [(back.classifier.theta, clf.theta)]
        for mine, theirs in zip(back.encoder.net.layers, enc.net.layers):
            pairs += [(mine.weight, theirs.weight), (mine.bias, theirs.bias)]
        for mine, theirs in pairs:
            assert mine.data.dtype == np.float64 and mine.data.flags.writeable
            np.testing.assert_array_equal(mine.data.view(np.uint64),
                                          theirs.data.view(np.uint64))

    def test_encode_decode_is_exact_for_any_shape(self, tmp_path):
        """Any array, C-ordered or not, empty, or float32, is written as its
        float64 value and read back as a writable copy of the same bits."""
        arrays = [np.array(self.EXTREMES), np.arange(6.0).reshape(2, 3).T, np.zeros((0, 3)),
                  np.arange(24.0).reshape(2, 3, 4)[:, ::2], np.float32([0.1, -3e38])]
        path = tmp_path / "arrays.dsm"
        save_container({"arrays": arrays}, path)
        header, payload = _read(path)
        for a, d in zip(arrays, header["arrays"]):
            back = payload.array(d, "a", a.ndim)
            assert back.shape == a.shape and back.dtype == np.float64
            assert back.flags.writeable and back.flags.c_contiguous
            np.testing.assert_array_equal(back.view(np.uint64),
                                          a.astype(np.float64).view(np.uint64))
        payload.check_tiled()


class TestErmAndEnsembleContainers:
    def test_erm_round_trip(self, tmp_path, pipeline_result):
        train, result = pipeline_result
        erm = result.erm_model
        doc = density_softmax_container(erm)
        assert doc["kind"] == "erm" and "density" not in doc
        path = tmp_path / "erm.dsm"
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
        ens = ensemble_train(2, erm_model(SMALL, train, FAST), SMALL, train, FAST)
        path = tmp_path / "ens.dsm"
        save_container(ensemble_container(ens), path)
        back = load_container(path)
        x = train.features[:10]
        np.testing.assert_array_equal(back.predict(x).probs, ens.predict(x).probs)
        assert back.param_count() == ens.param_count()

    def test_binary_ensemble_surface_exits_0(self, tmp_path):
        train = make_two_moons(40, 0.1, seed=0)
        path = tmp_path / "ens.dsm"
        ens = ensemble_train(2, erm_model(SMALL, train, FAST), SMALL, train, FAST)
        save_container(ensemble_container(ens), path)
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
        path = tmp_path / "ens.dsm"
        save_container({"version": CONTAINER_VERSION, "kind": "ensemble", "members": members},
                       path)
        _refused(path, message, capsys)

    def test_non_object_member_rejected_at_load(self, tmp_path, capsys):
        path = tmp_path / "ens.dsm"
        save_container({"version": CONTAINER_VERSION, "kind": "ensemble", "members": [[]]},
                       path)
        _refused(path, "ensemble member 0 is not an object", capsys)

    def test_stored_keys_are_the_documented_facts(self, pipeline_result):
        """Version 8 keeps no copy of a fact the loader works out again: no
        layer stores its activation or whether it is residual, the flow's
        width is its projection's, and the KDE stores its mean, directions,
        support and bandwidth, with no scales and no residual scale."""
        train, result = pipeline_result
        kde = density_softmax_container(result.model)
        assert set(kde) == {"version", "kind", "encoder", "classifier", "density"}
        assert set(kde["classifier"]) == {"theta"}
        assert set(kde["density"]) == {"kind", "mean", "directions", "support", "bandwidth",
                                       "max_train_log_density"}
        r = result.model.density.inner.directions.shape[0]
        assert {key: kde["density"][key].shape for key in ("mean", "directions", "support")
                } == {"mean": (8,), "directions": (r, 8), "support": (train.n, r)}
        assert set(kde["encoder"]) == {"activation", "layers"}
        assert all(set(layer) == {"weight", "bias"} for layer in kde["encoder"]["layers"])
        flow = density_softmax_container(DensitySoftmaxModel(
            result.model.encoder, result.model.classifier,
            ScaledDensity(FlowModel.build(identity_projection(8), FlowConfig(coupling_layers=2), 0),
                          0.0)))
        assert set(flow["density"]) == {"kind", "projection", "layers",
                                        "max_train_log_density"}
        projection = flow["density"]["projection"]
        assert {key: value.shape for key, value in projection.items()
                if key != "residual_scale"} == {"mean": (8,), "directions": (8, 8), "scales": (8,)}
        assert projection["residual_scale"] == 1.0
        assert [[net[0]["weight"].shape, net[-1]["weight"].shape]
                for net in flow["density"]["layers"]] == [[(2, 4, 16), (2, 16, 4)]] * 2
        assert all(set(layer) == {"weight", "bias"}
                   for net in flow["density"]["layers"] for layer in net)
        ens = ensemble_container(ensemble_train(2, result.erm_model, SMALL, train, FAST))
        assert set(ens) == {"version", "kind", "members"}
        assert all(set(m) == {"kind", "encoder", "classifier"} for m in ens["members"])

    def test_save_is_deterministic(self, tmp_path, pipeline_result):
        _, result = pipeline_result
        p1, p2 = tmp_path / "a.dsm", tmp_path / "b.dsm"
        save_container(density_softmax_container(result.model), p1)
        save_container(density_softmax_container(result.model), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_leaves_previous_file_intact(self, tmp_path, pipeline_result,
                                                     monkeypatch):
        """A header that does not encode fails before anything is written; a
        write that fails once the file is complete leaves no temporary file
        behind either."""
        _, result = pipeline_result
        path = tmp_path / "model.dsm"
        save_container(density_softmax_container(result.model), path)
        before = path.read_bytes()
        doc = density_softmax_container(result.model)
        doc["z"] = np.float32(1.0)  # json cannot encode it
        with pytest.raises(TypeError):
            save_container(doc, path)
        assert path.read_bytes() == before

        def full_disk(src, dst):
            raise OSError("No space left on device")
        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError, match="No space left"):
            save_container(density_softmax_container(result.erm_model), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.dsm"]


def _flow_doc(model, dim: int) -> dict:
    """model's container with a fresh coupling flow over the identity
    projection of a dim-d latent as its density (model's latent is 8-d)."""
    flow = FlowModel.build(identity_projection(dim),
                           FlowConfig(coupling_layers=2, hidden_layers=1), 0)
    return density_softmax_container(DensitySoftmaxModel(
        encoder=model.encoder, classifier=model.classifier,
        density=ScaledDensity(inner=flow, max_train_log_density=0.0)))


# A corrupter writes a malformed container of the KDE model to a path:
# corrupt(path, model). Most edit the container document before it is saved
# (_saved); the others edit the saved file's header line or bytes (_in_file).


def _saved(corrupt_doc):
    """The corrupter that saves corrupt_doc(doc, model), where doc is
    model's container document."""
    def corrupt(path, model):
        save_container(corrupt_doc(density_softmax_container(model), model), path)
    return corrupt


def _in_file(edit):
    """The corrupter that saves model's container and then rewrites the
    file's bytes as edit(bytes)."""
    def corrupt(path, model):
        save_container(density_softmax_container(model), path)
        path.write_bytes(edit(path.read_bytes()))
    return corrupt


def _in_header(edit):
    """The corrupter that saves model's container and then applies edit to
    the parsed header line (_edit_header)."""
    def corrupt(path, model):
        save_container(density_softmax_container(model), path)
        _edit_header(path, edit)
    return corrupt


@_saved
def _drop_density(doc, model):
    del doc["density"]
    return doc


@_saved
def _short_theta(doc, model):
    doc["classifier"]["theta"] = doc["classifier"]["theta"][:4]
    return doc


@_saved
def _narrow_support(doc, model):
    doc["density"]["support"] = doc["density"]["support"][:, :4]
    return doc


@_saved
def _kde_directions_one_column_short(doc, model):
    """KDE directions of shape (r, d - 1) beside the d-wide mean."""
    doc["density"]["directions"] = doc["density"]["directions"][:, :7]
    return doc


@_saved
def _kde_directions_one_row_long(doc, model):
    """KDE directions of shape (r + 1, d) beside the r-column support."""
    rows = doc["density"]["directions"]
    doc["density"]["directions"] = np.vstack([rows, rows[:1]])
    return doc


def _non_finite(value, *key_path, flow: bool = False):
    """A corrupter storing the array at key_path with value as its first
    entry, in the KDE model's container or, with flow, in a flow model's."""
    @_saved
    def corrupt(doc, model):
        if flow:
            doc = _flow_doc(model, 8)
        a = _at(doc, key_path).copy()  # the document holds the model's own arrays
        a.flat[0] = value
        _at(doc, key_path[:-1])[key_path[-1]] = a
        return doc
    return corrupt


@_saved
def _kde_of_other_width(doc, model):
    """A KDE whose projection reads 4 latent columns of the 8-d latent."""
    density = doc["density"]
    density["mean"] = density["mean"][:4]
    density["directions"] = density["directions"][:, :4]
    return doc


@_saved
def _encoder_layers_do_not_compose(doc, model):
    """The first encoder layer maps 2 -> 7 columns, the next reads 8."""
    first = doc["encoder"]["layers"][0]
    first["weight"] = first["weight"][:, :7]
    first["bias"] = first["bias"][:7]
    return doc


@_saved
def _no_encoder_layers(doc, model):
    doc["encoder"]["layers"] = []
    return doc


@_saved
def _unknown_activation(doc, model):
    doc["encoder"]["activation"] = "gelu"
    return doc


@_saved
def _flow_of_other_dim(doc, model):
    """The coupling layers of a 4-d flow behind the 8-d projection."""
    doc = _flow_doc(model, 8)
    doc["density"]["layers"] = _flow_doc(model, 4)["density"]["layers"]
    return doc


@_saved
def _no_flow_layers(doc, model):
    doc = _flow_doc(model, 8)
    doc["density"]["layers"] = []
    return doc


@_saved
def _one_column_theta(doc, model):
    doc["classifier"]["theta"] = doc["classifier"]["theta"][:, :1]
    return doc


@_saved
def _wide_subnet_input(doc, model):
    """Coupling layer 1's first layer reads 6 columns, not the 4 of its P."""
    doc = _flow_doc(model, 8)
    first = doc["density"]["layers"][1][0]
    first["weight"] = np.concatenate([first["weight"], first["weight"][:, :2]], axis=1)
    return doc


@_saved
def _one_slot_stack(doc, model):
    """Coupling layer 1's first layer keeps only the s-net's slot."""
    doc = _flow_doc(model, 8)
    first = doc["density"]["layers"][1][0]
    first["weight"] = first["weight"][:1]
    first["bias"] = first["bias"][:1]
    return doc


@_saved
def _erm_with_density(doc, model):
    doc["kind"] = "erm"
    return doc


@_saved
def _short_bias(doc, model):
    first = doc["encoder"]["layers"][0]
    first["bias"] = first["bias"][:5]
    return doc


def _version(number: int):
    """A corrupter giving the stored current container with only its version
    field set to number: the loader reads that field alone before it
    refuses an old version."""
    def corrupt(path, model):
        path.write_bytes(STORED.read_bytes())
        _edit_header(path, lambda header: header.update(version=number))
    return corrupt


def _old_version(number: int) -> str:
    return (f"unsupported container version {number}; this build reads version 8, "
            "so write the model again with `run`")


@_saved
def _projection_of_other_width(doc, model):
    """A projection that reads 4 latent columns of the 8-d latent."""
    doc = _flow_doc(model, 8)
    projection = doc["density"]["projection"]
    projection["mean"] = projection["mean"][:4]
    projection["directions"] = projection["directions"][:, :4]
    return doc


@_saved
def _projection_short_scales(doc, model):
    doc = _flow_doc(model, 8)
    projection = doc["density"]["projection"]
    projection["scales"] = projection["scales"][:7]
    return doc


@_saved
def _projection_zero_scale(doc, model):
    doc = _flow_doc(model, 8)
    doc["density"]["projection"]["scales"] = np.eye(8)[0]
    return doc


def _stored_as(value, *key_path):
    """A corrupter storing value at key_path of a flow model's container."""
    @_saved
    def corrupt(doc, model):
        doc = _flow_doc(model, 8)
        _at(doc, key_path[:-1])[key_path[-1]] = value
        return doc
    return corrupt


@_in_file
def _truncated_file(data):
    """The file without its last float: the last array in header order (the
    encoder's last weight) runs past the payload."""
    return data[:-8]


@_in_file
def _truncated_mid_value(data):
    return data[:-1]


@_in_file
def _trailing_byte(data):
    return data + b"\0"


@_in_file
def _header_without_newline(data):
    return data.split(b"\n", 1)[0]


@_in_file
def _header_not_utf8(data):
    return b"\xff" + data


@_in_file
def _header_not_json(data):
    return b"{kind: erm}\n" + data.split(b"\n", 1)[1]


def _theta(**fields):
    """A corrupter setting fields of theta's {shape, offset} object; theta
    comes first in the header and the payload, at offset 0."""
    return _in_header(lambda header: header["classifier"]["theta"].update(fields))


@_in_header
def _overlapping_ranges(header):
    """The KDE directions start 8 bytes inside theta's range."""
    header["density"]["directions"]["offset"] -= 8


def _gap(path, model):
    """8 bytes that no array reads before the encoder's last weight, the
    last array of the payload."""
    save_container(density_softmax_container(model), path)
    last = header_at = None

    def shift_last(header):
        nonlocal last, header_at
        header_at = header["encoder"]["layers"][-1]["weight"]
        last = header_at["offset"]
        header_at["offset"] += 8
    _edit_header(path, shift_last)
    data = path.read_bytes()
    end = data.index(b"\n") + 1 + last
    path.write_bytes(data[:end] + bytes(8) + data[end:])


@_saved
def _flat_theta(doc, model):
    doc["classifier"]["theta"] = doc["classifier"]["theta"].reshape(16)
    return doc


@_saved
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
        (_narrow_support, r"kde directions have shape \(8, 8\); a support of shape "
                          r"\(160, 4\) over a 8-d mean needs \(4, 8\)"),
        (_flow_of_other_dim, "coupling layer 0 net maps 2 -> 2 columns; in the 8-d flow "
                             "its halves need 4 -> 4"),
        (_encoder_layers_do_not_compose,
         r"encoder: layer widths do not compose: \(2, 7\) -> \(8, 8\)"),
        (_no_encoder_layers, "encoder has no layers"),
        (_version(3), _old_version(3)),
        (_version(2), _old_version(2)),
        (_version(1), _old_version(1)),
        (_truncated_file, "encoder layer 2 weight reads payload bytes 11776..12288, past the "
                           "payload's end at 12280"),
        (_truncated_mid_value, "encoder layer 2 weight reads payload bytes 11776..12288, past "
                                "the payload's end at 12287"),
        (_header_not_utf8, "header line is not UTF-8: 'utf-8' codec can't decode byte 0xff in "
                             "position 0: invalid start byte"),
        (_theta(shape=[8, 3]), "kde directions reads payload bytes 128..640, which overlap "
                                      "the bytes up to 192 that classifier theta reads"),
        (_flat_theta, r"classifier theta shape \[16\] is not a list of 2 non-negative "
                      "integers"),
        (_nested_list_support, r"kde support is not a \{shape, offset\} object"),
        (_wide_subnet_input, "coupling layer 1 net maps 6 -> 4 columns; in the 8-d flow "
                             "its halves need 4 -> 4"),
        (_short_bias, r"encoder: bias has shape \(5,\), a weight of shape \(2, 8\) needs "
                      r"\(8,\)"),
        (_one_slot_stack, r"coupling layer 1 net layer 0 weight has shape \(1, 4, 16\), "
                          r"not a \(2, in, out\) stack"),
        (_no_flow_layers, "flow needs at least one coupling layer"),
        (_one_column_theta, "classifier theta has 1 column; a head needs at least 2 classes"),
        (_erm_with_density, "an erm container has no density, but this one carries one"),
        (_version(4), _old_version(4)),
        (_unknown_activation, "encoder: unknown activation 'gelu'"),
        (_version(5), _old_version(5)),
        (_projection_of_other_width,
         "flow projection reads 4 latent columns, the encoder's latent_dim is 8"),
        (_projection_short_scales, r"projection directions have shape \(8, 8\); 7 scales "
                                   r"over a 8-d mean need \(7, 8\)"),
        (_projection_zero_scale, "projection scales must be positive and finite"),
        (_stored_as(5, "encoder", "layers", 0), "encoder layer 0 is not an object"),
        (_stored_as(3, "density", "layers", 1), "flow layer 1 is not a list"),
        (_stored_as([], "encoder"), "encoder is not an object"),
        (_stored_as([], "density", "projection"), "flow projection is not an object"),
        (_stored_as(0.0, "density", "projection", "residual_scale"),
         "projection residual_scale must be positive and finite"),
        (_stored_as("1", "density", "projection", "residual_scale"),
         "flow projection residual_scale is '1', not a finite number"),
        (_version(6), _old_version(6)),
        (_kde_of_other_width, "kde density is 4-d, the encoder's latent_dim is 8"),
        (_kde_directions_one_column_short, r"kde directions have shape \(8, 7\); a support "
                                           r"of shape \(160, 8\) over a 8-d mean needs "
                                           r"\(8, 8\)"),
        (_kde_directions_one_row_long, r"kde directions have shape \(9, 8\); a support of "
                                       r"shape \(160, 8\) over a 8-d mean needs \(8, 8\)"),
        (_non_finite(np.nan, "encoder", "layers", 1, "weight"),
         "encoder layer 1 weight holds a NaN or an infinity"),
        (_non_finite(np.inf, "classifier", "theta"),
         "classifier theta holds a NaN or an infinity"),
        (_non_finite(np.nan, "density", "support"), "kde support holds a NaN or an infinity"),
        (_non_finite(-np.inf, "density", "projection", "directions", flow=True),
         "flow projection directions holds a NaN or an infinity"),
        (_non_finite(np.nan, "density", "layers", 0, 1, "weight", flow=True),
         "flow layer 0 layer 1 weight holds a NaN or an infinity"),
        (_version(7), _old_version(7)),
        (_trailing_byte, "payload bytes 12288..12289 are read by no array"),
        (_overlapping_ranges, "kde directions reads payload bytes 120..632, which overlap the "
                                "bytes up to 128 that classifier theta reads"),
        (_gap, "payload bytes 11776..11784 are read by no array"),
        (_theta(offset=-8), r"classifier theta offset -8 is not a non-negative integer"),
        (_theta(offset=0.0), r"classifier theta offset 0.0 is not a non-negative integer"),
        (_theta(offset=False), r"classifier theta offset False is not a non-negative "
                               "integer"),
        (_theta(shape=[8, -2]), r"classifier theta shape \[8, -2\] is not a list of 2 "
                                "non-negative integers"),
        (_header_without_newline, "no header line: the file holds no newline"),
        (_header_not_json, r"header line is not JSON: Expecting property name enclosed in "
                            r"double quotes: line 1 column 2 \(char 1\)"),
    ], ids=["missing_key", "theta_shape", "kde_support_width", "flow_dim",
            "encoder_layers", "no_encoder_layers", "version_3", "version_2", "version_1",
            "truncated_file", "truncated_mid_value", "header_not_utf8", "shape_vs_bytes",
            "shape_ndim", "nested_list_array", "subnet_width", "bias_length",
            "subnet_shapes", "no_flow_layers", "theta_columns", "erm_with_density",
            "version_4", "unknown_activation", "version_5", "projection_width",
            "projection_scales_length", "projection_zero_scale", "encoder_layer_type",
            "coupling_net_type", "encoder_type", "projection_type",
            "projection_zero_residual_scale", "projection_residual_scale_type", "version_6",
            "kde_width", "kde_directions_width", "kde_directions_rows",
            "non_finite_encoder_weight", "non_finite_theta", "non_finite_kde_support",
            "non_finite_projection", "non_finite_coupling_weight", "version_7",
            "trailing_byte", "overlapping_ranges", "gap", "offset_negative", "offset_float",
            "offset_bool", "shape_negative", "header_without_newline", "header_not_json"])
    def test_rejected_at_load_and_cli_exits_2(self, tmp_path, pipeline_result,
                                              corrupt, message, capsys):
        _, result = pipeline_result
        path = tmp_path / "bad.dsm"
        corrupt(path, result.model)
        _refused(path, message, capsys)

    @pytest.mark.parametrize("key, value", [
        ("max_train_log_density", float("nan")), ("max_train_log_density", float("-inf")),
        ("max_train_log_density", float("inf")), ("max_train_log_density", "0.5"),
        ("max_train_log_density", True), ("bandwidth", "3.5"), ("bandwidth", True),
        ("bandwidth", float("nan")), ("bandwidth", 10**400),
    ], ids=["max_nan", "max_-inf", "max_inf", "max_string", "max_bool", "bandwidth_string",
            "bandwidth_bool", "bandwidth_nan", "bandwidth_beyond_float"])
    def test_scalar_that_is_not_a_finite_number_rejected(self, tmp_path, pipeline_result,
                                                         key, value, capsys):
        """A density scalar must be a finite JSON number: NaN crashed predict,
        -Infinity scaled every row to s = 1, and a string or a bool passed
        for a number."""
        _, result = pipeline_result
        doc = density_softmax_container(result.model)
        doc["density"][key] = value
        path = tmp_path / "bad.dsm"
        save_container(doc, path)
        _refused(path, re.escape(f"density {key} is {value!r}, not a finite number"), capsys)

    def test_integer_scalars_load(self, tmp_path, pipeline_result):
        _, result = pipeline_result
        doc = density_softmax_container(result.model)
        doc["density"].update(bandwidth=1, max_train_log_density=0)
        path = tmp_path / "ints.dsm"
        save_container(doc, path)
        density = load_container(path).density
        assert (density.inner.bandwidth, density.max_train_log_density) == (1.0, 0.0)
