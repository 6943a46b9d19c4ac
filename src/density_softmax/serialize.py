"""Versioned JSON model containers with exact float round-trip.

Weights are stored as nested lists; json emits full-precision reprs of
float64 values, so save -> load reproduces every parameter bit for bit.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .density import CouplingLayer, FlowModel, KdeModel, ScaledDensity
from .layers import Dense, DenseNet
from .model import Classifier, Encoder, EncoderConfig
from .predictor import DensitySoftmaxModel, Ensemble

CONTAINER_VERSION = 1


class ContainerError(ValueError):
    pass


def _dense_to_dict(layer: Dense) -> dict:
    return {
        "weight": layer.weight.data.tolist(),
        "bias": None if layer.bias is None else layer.bias.data.tolist(),
        "activation": layer.activation,
        "residual": layer.residual,
    }


def _dense_from_dict(d: dict) -> Dense:
    return Dense(
        weight=Tensor(np.array(d["weight"], dtype=np.float64)),
        bias=None if d["bias"] is None else Tensor(np.array(d["bias"], dtype=np.float64)),
        activation=d["activation"],
        residual=bool(d["residual"]),
    )


def _net_to_list(net: DenseNet) -> list:
    return [_dense_to_dict(layer) for layer in net.layers]


def _net_from_list(layers: list) -> DenseNet:
    return DenseNet([_dense_from_dict(d) for d in layers])


def _encoder_to_dict(encoder: Encoder) -> dict:
    cfg = encoder.config
    return {
        "config": {"input_dim": cfg.input_dim, "width": cfg.width,
                   "depth": cfg.depth, "latent_dim": cfg.latent_dim,
                   "activation": cfg.activation},
        "layers": _net_to_list(encoder.net),
    }


def _encoder_from_dict(d: dict) -> Encoder:
    config = EncoderConfig(**d["config"])
    net = _net_from_list(d["layers"])
    if not net.layers:
        raise ContainerError("encoder has no layers")
    maps = (net.layers[0].weight.data.shape[0], net.layers[-1].weight.data.shape[1])
    if maps != (config.input_dim, config.latent_dim):
        raise ContainerError(f"encoder layers map {maps[0]} -> {maps[1]} columns, "
                             f"config says {config.input_dim} -> {config.latent_dim}")
    return Encoder(config, net)


def _classifier_from_dict(d: dict, latent_dim: int, k: int) -> Classifier:
    theta = np.array(d["theta"], dtype=np.float64)
    if theta.shape != (latent_dim, k):
        raise ContainerError(f"classifier theta has shape {theta.shape}, "
                             f"expected latent_dim x k = {(latent_dim, k)}")
    return Classifier(Tensor(theta))


def _density_to_dict(density: ScaledDensity) -> dict:
    inner = density.inner
    if isinstance(inner, KdeModel):
        body = {"kind": "kde", "support": inner.support.tolist(),
                "bandwidth": inner.bandwidth}
    elif isinstance(inner, FlowModel):
        body = {"kind": "flow", "dim": inner.dim,
                "layers": [{"mask": layer.mask.tolist(),
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
            support=np.array(d["support"], dtype=np.float64),
            bandwidth=float(d["bandwidth"]))
    elif d["kind"] == "flow":
        layers = [CouplingLayer(mask=np.array(ld["mask"], dtype=np.float64),
                                s_net=_net_from_list(ld["s_net"]),
                                t_net=_net_from_list(ld["t_net"]))
                  for ld in d["layers"]]
        inner = FlowModel(int(d["dim"]), layers)
    else:
        raise ContainerError(f"unknown density kind {d['kind']!r}")
    if inner.dim != latent_dim:
        raise ContainerError(f"{d['kind']} density is {inner.dim}-d, "
                             f"the encoder's latent_dim is {latent_dim}")
    return ScaledDensity(inner=inner,
                         max_train_log_density=float(d["max_train_log_density"]))


def density_softmax_container(model: DensitySoftmaxModel) -> dict:
    """The model's container; kind "erm", with no density key, if it has no
    density."""
    doc = {
        "version": CONTAINER_VERSION,
        "kind": "erm" if model.density is None else "density_softmax",
        "k": model.k,
        "encoder": _encoder_to_dict(model.encoder),
        "classifier": {"theta": model.classifier.theta.data.tolist()},
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

    A malformed container raises ContainerError naming the missing key or
    the part whose shape does not fit the rest of the model.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
        if "version" not in doc:
            raise ContainerError("missing version field")
        if doc["version"] != CONTAINER_VERSION:
            raise ContainerError(f"unsupported container version {doc['version']}")
        return _from_dict(doc)
    except KeyError as exc:
        raise ContainerError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # ContainerError is a ValueError
        raise ContainerError(f"{path}: {exc}") from exc


def _from_dict(doc: dict):
    kind = doc.get("kind")
    if kind in ("density_softmax", "erm"):
        encoder = _encoder_from_dict(doc["encoder"])
        latent_dim = encoder.config.latent_dim
        classifier = _classifier_from_dict(doc["classifier"], latent_dim, int(doc["k"]))
        density = (None if kind == "erm"
                   else _density_from_dict(doc["density"], latent_dim))
        return DensitySoftmaxModel(encoder, classifier, density)
    if kind == "ensemble":
        return Ensemble([_from_dict(m) for m in doc["members"]])
    raise ContainerError(f"unknown container kind {kind!r}")
