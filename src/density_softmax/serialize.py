"""Versioned JSON model containers with exact float round-trip.

A container is one JSON document. Every float64 array in it (dense weights
and biases, the classifier's theta, the KDE support, the coupling masks) is
an object ``{"shape": [...], "float64le": "<base64>"}``: the array's raw
little-endian IEEE-754 bytes, base64-encoded. Save -> load therefore
reproduces every parameter bit for bit by construction (the bytes are the
bits, -0.0, subnormals and the largest finite value included), and neither
side turns a weight into a Python float or its decimal repr. Scalars
(bandwidth, max_train_log_density, config integers) stay JSON numbers.

The encoder config keeps an "input_dim" entry, which must equal the first
layer's input width, and a "latent_dim" entry, which must equal its width. Version 2 is the only version read; a version-1 container (nested lists
of decimal floats) is refused with a ContainerError, and ``run`` writes the
same model again as version 2.
"""

from __future__ import annotations

import base64
import json
import math
import os
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .density import CouplingLayer, FlowModel, KdeModel, ScaledDensity
from .layers import Dense, DenseNet
from .model import Classifier, Encoder, EncoderConfig
from .predictor import DensitySoftmaxModel, Ensemble

CONTAINER_VERSION = 2


class ContainerError(ValueError):
    pass


def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "float64le": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(d: dict, what: str, ndim: int) -> np.ndarray:
    """The writable float64 array stored in d; what names it in errors."""
    if not isinstance(d, dict):
        raise ContainerError(f"{what} is not a {{shape, float64le}} object")
    shape = d["shape"]
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


def _dense_from_dict(d: dict, what: str) -> Dense:
    weight = Tensor(_decode_array(d["weight"], f"{what} weight", 2))
    bias = None if d["bias"] is None else Tensor(_decode_array(d["bias"], f"{what} bias", 1))
    try:
        return Dense(weight=weight, bias=bias, activation=d["activation"],
                     residual=bool(d["residual"]))
    except ValueError as exc:
        raise ContainerError(f"{what}: {exc}") from None


def _net_to_list(net: DenseNet) -> list:
    return [_dense_to_dict(layer) for layer in net.layers]


def _net_from_list(layers: list, what: str) -> DenseNet:
    return DenseNet([_dense_from_dict(d, f"{what} layer {i}") for i, d in enumerate(layers)])


def _encoder_to_dict(encoder: Encoder) -> dict:
    cfg = encoder.config
    return {
        "config": {"input_dim": encoder.input_dim, "width": cfg.width,
                   "depth": cfg.depth, "latent_dim": cfg.width,
                   "activation": cfg.activation},
        "layers": _net_to_list(encoder.net),
    }


def _encoder_from_dict(d: dict) -> Encoder:
    fields = dict(d["config"])
    # the residual blocks keep the width, so the format's latent_dim must equal it
    latent_dim = fields.pop("latent_dim")
    input_dim = fields.pop("input_dim")
    config = EncoderConfig(**fields)
    if latent_dim != config.width:
        raise ContainerError(f"encoder latent_dim {latent_dim!r} is not its width "
                             f"{config.width}")
    net = _net_from_list(d["layers"], "encoder")
    if not net.layers:
        raise ContainerError("encoder has no layers")
    maps = (net.layers[0].weight.data.shape[0], net.layers[-1].weight.data.shape[1])
    if maps != (input_dim, config.width):
        raise ContainerError(f"encoder layers map {maps[0]} -> {maps[1]} columns, "
                             f"config says {input_dim} -> {config.width}")
    return Encoder(config, net)


def _classifier_from_dict(d: dict, latent_dim: int, k: int) -> Classifier:
    theta = _decode_array(d["theta"], "classifier theta", 2)
    if theta.shape != (latent_dim, k):
        raise ContainerError(f"classifier theta has shape {theta.shape}, "
                             f"expected latent_dim x k = {(latent_dim, k)}")
    return Classifier(Tensor(theta))


def _density_to_dict(density: ScaledDensity) -> dict:
    inner = density.inner
    if isinstance(inner, KdeModel):
        body = {"kind": "kde", "support": _encode_array(inner.support),
                "bandwidth": inner.bandwidth}
    elif isinstance(inner, FlowModel):
        body = {"kind": "flow", "dim": inner.dim,
                "layers": [{"mask": _encode_array(layer.mask),
                            "s_net": _net_to_list(layer.s_net),
                            "t_net": _net_to_list(layer.t_net)}
                           for layer in inner.layers]}
    else:  # pragma: no cover
        raise ContainerError(f"unknown density type {type(inner).__name__}")
    body["max_train_log_density"] = density.max_train_log_density
    return body


def _density_from_dict(d: dict, latent_dim: int) -> ScaledDensity:
    if d["kind"] == "kde":
        inner: KdeModel | FlowModel = KdeModel(
            support=_decode_array(d["support"], "kde support", 2),
            bandwidth=float(d["bandwidth"]))
    elif d["kind"] == "flow":
        dim = int(d["dim"])
        layers = []
        for i, ld in enumerate(d["layers"]):
            what = f"flow layer {i}"
            mask = _decode_array(ld["mask"], f"{what} mask", 1)
            FlowModel.check_mask(i, mask, dim)  # before the subnets are held to it
            s_net = _net_from_list(ld["s_net"], f"{what} s_net")
            t_net = _net_from_list(ld["t_net"], f"{what} t_net")
            try:
                layers.append(CouplingLayer(mask=mask, s_net=s_net, t_net=t_net))
            except ValueError as exc:
                raise ContainerError(f"{what}: {exc}") from None
        inner = FlowModel(dim, layers)
    else:
        raise ContainerError(f"unknown density kind {d['kind']!r}")
    if inner.dim != latent_dim:
        raise ContainerError(f"{d['kind']} density is {inner.dim}-d, "
                             f"the encoder's latent_dim is {latent_dim}")
    return ScaledDensity(inner=inner,
                         max_train_log_density=float(d["max_train_log_density"]))


def container_kind(model: DensitySoftmaxModel | Ensemble) -> str:
    """The "kind" field of the model's container: "erm", "density_softmax"
    or "ensemble"."""
    if isinstance(model, Ensemble):
        return "ensemble"
    return "erm" if model.density is None else "density_softmax"


def density_softmax_container(model: DensitySoftmaxModel) -> dict:
    """The model's container; kind "erm", with no density key, if it has no
    density."""
    doc = {
        "version": CONTAINER_VERSION,
        "kind": container_kind(model),
        "k": model.k,
        "encoder": _encoder_to_dict(model.encoder),
        "classifier": {"theta": _encode_array(model.classifier.theta.data)},
    }
    if model.density is not None:
        doc["density"] = _density_to_dict(model.density)
    return doc


def ensemble_container(ensemble: Ensemble) -> dict:
    return {
        "version": CONTAINER_VERSION,
        "kind": "ensemble",
        "members": [density_softmax_container(m) for m in ensemble.members],
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
        return _from_dict(doc)
    except KeyError as exc:
        raise ContainerError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # ContainerError is a ValueError
        raise ContainerError(f"{path}: {exc}") from exc


def _from_dict(doc: dict):
    if doc.get("kind") == "ensemble":
        members = doc["members"]
        for i, member in enumerate(members):
            if not isinstance(member, dict):
                raise ContainerError(f"ensemble member {i} is not an object")
        return Ensemble([_model_from_dict(m) for m in members])
    return _model_from_dict(doc)


def _model_from_dict(doc: dict) -> DensitySoftmaxModel:
    kind = doc.get("kind")
    if kind not in ("density_softmax", "erm"):
        raise ContainerError(f"unknown container kind {kind!r}")
    encoder = _encoder_from_dict(doc["encoder"])
    latent_dim = encoder.config.width
    classifier = _classifier_from_dict(doc["classifier"], latent_dim, int(doc["k"]))
    density = (None if kind == "erm"
               else _density_from_dict(doc["density"], latent_dim))
    return DensitySoftmaxModel(encoder, classifier, density)
