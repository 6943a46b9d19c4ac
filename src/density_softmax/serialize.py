"""Versioned JSON model containers with exact float round-trip.

A container is one JSON document. Every float64 array in it (dense weights
and biases, the classifier's theta, the KDE support) is an object
``{"shape": [...], "float64le": "<base64>"}``: the array's raw
little-endian IEEE-754 bytes, base64-encoded. Save -> load therefore
reproduces every parameter bit for bit by construction (the bytes are the
bits, -0.0, subnormals and the largest finite value included), and neither
side turns a weight into a Python float or its decimal repr. Scalars
(bandwidth, max_train_log_density) stay JSON numbers.

Version 4, the only version read, stores each fact once: the "kind"
("density_softmax" or "erm"), the "encoder" as a list of dense layers,
"classifier.theta" and, for "density_softmax" only, the "density": a KDE's
support and bandwidth, or a flow's "layers", one stacked net per coupling
layer with (2, in, out) weights (slot 0 the s-net, slot 1 the t-net), plus
max_train_log_density. A coupling net maps its layer's |P| pass-through
columns to its |T| transformed ones, so it stores no weight that no output
reads. An "ensemble" holds its "members", model containers without the
version field. The loader works out and checks the rest: the input and
latent widths from the encoder's end layers, the class count from theta's
columns (at least 2, latent-width rows), the flow's width from the latents
(each coupling net maps its layer's halves of it through a linear last
layer), each coupling layer's halves from its index and the subnets' last
activations from ``density.FINAL``. Another version is refused with a
ContainerError; ``run`` writes the same model again as version 4. So is a
key the loader does not read, in any object of the document: a stale or
hand-added fact could otherwise disagree with the model silently.
"""

from __future__ import annotations

import base64
import json
import math
import os
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .density import FlowModel, KdeModel, ScaledDensity
from .layers import Dense, DenseNet
from .model import Classifier, Encoder
from .predictor import DensitySoftmaxModel, Ensemble

CONTAINER_VERSION = 4


class ContainerError(ValueError):
    pass


def _known(d: dict, what: str, keys: tuple[str, ...]) -> dict:
    """d, once each of its keys is one of keys; what names it in errors."""
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ContainerError(f"{what} has unknown key {unknown[0]!r}")
    return d


def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "float64le": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(d: dict, what: str, ndim: int) -> np.ndarray:
    """The writable float64 array stored in d; what names it in errors."""
    if not isinstance(d, dict):
        raise ContainerError(f"{what} is not a {{shape, float64le}} object")
    shape = _known(d, what, ("shape", "float64le"))["shape"]
    if not (isinstance(shape, list) and len(shape) == ndim
            and all(type(n) is int and n >= 0 for n in shape)):
        raise ContainerError(f"{what} shape {shape!r} is not a list of "
                             f"{ndim} non-negative integers")
    try:
        raw = base64.b64decode(d["float64le"], validate=True)
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"{what} is not valid base64: {exc}") from None
    needed = 8 * math.prod(shape)
    if len(raw) != needed:
        raise ContainerError(f"{what} holds {len(raw)} bytes, shape {shape} needs {needed}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _dense_to_dict(layer: Dense) -> dict:
    return {
        "weight": _encode_array(layer.weight.data),
        "bias": None if layer.bias is None else _encode_array(layer.bias.data),
        "activation": layer.activation,
        "residual": layer.residual,
    }


def _dense_from_dict(d: dict, what: str, stacked: bool) -> Dense:
    """A layer, or with ``stacked`` a (2, in, out) stack of two."""
    _known(d, what, ("weight", "bias", "activation", "residual"))
    weight = Tensor(_decode_array(d["weight"], f"{what} weight", 3 if stacked else 2))
    bias = (None if d["bias"] is None
            else Tensor(_decode_array(d["bias"], f"{what} bias", 3 if stacked else 1)))
    try:
        return Dense(weight=weight, bias=bias, activation=d["activation"],
                     residual=bool(d["residual"]))
    except ValueError as exc:
        raise ContainerError(f"{what}: {exc}") from None


def _net_to_list(net: DenseNet) -> list:
    return [_dense_to_dict(layer) for layer in net.layers]


def _net_from_list(layers: list, what: str, stacked: bool = False) -> DenseNet:
    dense = [_dense_from_dict(d, f"{what} layer {i}", stacked) for i, d in enumerate(layers)]
    try:
        return DenseNet(dense)
    except ValueError as exc:
        raise ContainerError(f"{what}: {exc}") from None


def _density_to_dict(density: ScaledDensity) -> dict:
    inner = density.inner
    if isinstance(inner, KdeModel):
        body = {"kind": "kde", "support": _encode_array(inner.support),
                "bandwidth": inner.bandwidth}
    elif isinstance(inner, FlowModel):
        body = {"kind": "flow", "layers": [_net_to_list(layer.net) for layer in inner.layers]}
    else:  # pragma: no cover
        raise ContainerError(f"unknown density type {type(inner).__name__}")
    body["max_train_log_density"] = density.max_train_log_density
    return body


def _density_from_dict(d: dict, latent_dim: int) -> ScaledDensity:
    if d["kind"] == "kde":
        _known(d, "density", ("kind", "support", "bandwidth", "max_train_log_density"))
        inner: KdeModel | FlowModel = KdeModel(
            support=_decode_array(d["support"], "kde support", 2),
            bandwidth=float(d["bandwidth"]))
        if inner.dim != latent_dim:
            raise ContainerError(f"kde density is {inner.dim}-d, "
                                 f"the encoder's latent_dim is {latent_dim}")
    elif d["kind"] == "flow":
        _known(d, "density", ("kind", "layers", "max_train_log_density"))
        # the flow is as wide as the latents it models
        inner = FlowModel(latent_dim, [_net_from_list(layers, f"flow layer {i}", True)
                                       for i, layers in enumerate(d["layers"])])
    else:
        raise ContainerError(f"unknown density kind {d['kind']!r}")
    return ScaledDensity(inner=inner,
                         max_train_log_density=float(d["max_train_log_density"]))


def container_kind(model: DensitySoftmaxModel | Ensemble) -> str:
    """The "kind" field of the model's container: "erm", "density_softmax"
    or "ensemble"."""
    if isinstance(model, Ensemble):
        return "ensemble"
    return "erm" if model.density is None else "density_softmax"


def _model_to_dict(model: DensitySoftmaxModel) -> dict:
    doc = {
        "kind": container_kind(model),
        "encoder": _net_to_list(model.encoder.net),
        "classifier": {"theta": _encode_array(model.classifier.theta.data)},
    }
    if model.density is not None:
        doc["density"] = _density_to_dict(model.density)
    return doc


def density_softmax_container(model: DensitySoftmaxModel) -> dict:
    """The model's container; kind "erm", with no density key, if it has no
    density."""
    return {"version": CONTAINER_VERSION, **_model_to_dict(model)}


def ensemble_container(ensemble: Ensemble) -> dict:
    """The members' containers under one version field."""
    return {
        "version": CONTAINER_VERSION,
        "kind": "ensemble",
        "members": [_model_to_dict(m) for m in ensemble.members],
    }


def save_container(container: dict, path) -> None:
    """Write the container through a sibling temporary file that replaces
    path only once it is complete, so a failed dump leaves the previous
    file as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(container, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_container(path):
    """Load any container kind; returns the reconstructed model object.

    A malformed container raises ContainerError naming the missing key, the
    array whose bytes do not decode to its shape, or the part whose shape
    does not fit the rest of the model.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
        if "version" not in doc:
            raise ContainerError("missing version field")
        if doc["version"] != CONTAINER_VERSION:
            raise ContainerError(
                f"unsupported container version {doc['version']}; this build reads "
                f"version {CONTAINER_VERSION}, so write the model again with `run`")
        return _from_dict({key: value for key, value in doc.items() if key != "version"})
    except KeyError as exc:
        raise ContainerError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # ContainerError is a ValueError
        raise ContainerError(f"{path}: {exc}") from exc


def _from_dict(doc: dict):
    """The model of a container body: the document without its version."""
    if doc.get("kind") == "ensemble":
        members = _known(doc, "container", ("kind", "members"))["members"]
        for i, member in enumerate(members):
            if not isinstance(member, dict):
                raise ContainerError(f"ensemble member {i} is not an object")
        return Ensemble([_model_from_dict(m, f"ensemble member {i}")
                         for i, m in enumerate(members)])
    return _model_from_dict(doc, "container")


def _model_from_dict(doc: dict, what: str) -> DensitySoftmaxModel:
    kind = doc.get("kind")
    if kind not in ("density_softmax", "erm"):
        raise ContainerError(f"unknown container kind {kind!r}")
    if kind == "erm" and "density" in doc:
        raise ContainerError("an erm container has no density, but this one carries one")
    _known(doc, what, ("kind", "encoder", "classifier", "density"))
    encoder = Encoder(_net_from_list(doc["encoder"], "encoder"))
    classifier = _known(doc["classifier"], "classifier", ("theta",))
    theta = _decode_array(classifier["theta"], "classifier theta", 2)
    if theta.shape[0] != encoder.latent_dim:
        raise ContainerError(f"classifier theta has {theta.shape[0]} rows, "
                             f"the encoder's latent_dim is {encoder.latent_dim}")
    if theta.shape[1] < 2:
        raise ContainerError(f"classifier theta has {theta.shape[1]} column; "
                             "a head needs at least 2 classes")
    density = (None if kind == "erm"
               else _density_from_dict(doc["density"], encoder.latent_dim))
    return DensitySoftmaxModel(encoder, Classifier(Tensor(theta)), density)
