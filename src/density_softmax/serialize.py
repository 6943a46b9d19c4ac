"""Versioned JSON model containers with exact float round-trip.

A container is one JSON document. Every float64 array in it (dense weights
and biases, the classifier's theta, the projections, the KDE support) is
an object ``{"shape": [...], "float64le": "<base64>"}``: the array's raw
little-endian IEEE-754 bytes, base64-encoded. Save -> load therefore
reproduces every parameter bit for bit by construction (the bytes are the
bits, -0.0, subnormals and the largest finite value included), and neither
side turns a weight into a Python float or its decimal repr. An array
holding a NaN or an infinity is refused at load, named by its key. Scalars
(bandwidth, max_train_log_density, residual_scale) stay finite JSON
numbers.

Version 7, the only version read, stores arrays and no layout: the "kind"
("density_softmax" or "erm"), the "encoder" as its "activation" and its
"layers", "classifier.theta" and, for "density_softmax" only, the
"density": its max_train_log_density and either

* a KDE's "mean" (d,) and "directions" (r, d), which map a d-wide latent
  to its r top principal coordinates, its "support" (n, r), the train
  rows' coordinates, and its "bandwidth", the fields of ``KdeModel``; the
  augmented support that the kernel's GEMM reads is worked out again at
  load; or
* a flow's "projection" (``FlowModel.projection``: its "mean" (d,),
  "directions" (r, d) and "scales" (r,), which map a d-wide latent to the
  r coordinates the coupling layers model, and its "residual_scale", the
  width of the Gaussian on a row's distance off them) and "layers", one
  stacked net per coupling layer with (2, in, out) weights (slot 0 the
  s-net, slot 1 the t-net).

Each layer is a {weight, bias}. A coupling net maps its layer's |P|
pass-through columns to its |T| transformed ones, so it stores no weight
that no output reads. An "ensemble" holds its "members", model containers
without the version field. The loader lays each net out with the function
that builds it fresh, ``model.encoder_net`` or ``density.coupling_net``,
and works out and checks the rest: the input and latent widths from the
encoder's end layers, the class count from theta's columns (at least 2,
latent-width rows), each projection's width against the latent width, the
KDE's directions against its mean and support, the flow's scales and
residual_scale (positive), the flow's width from the projection's r and
each coupling layer's halves from its index. Another version, 1 to 6
included, is refused with a ContainerError after reading the version field
alone; ``run`` writes the same model again as version 7. So is a key the
loader does not read, in any object of the document, and an object or a
list stored as another JSON type, each named by its key: a stale or
hand-added fact could otherwise disagree with the model silently.
"""

from __future__ import annotations

import base64
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .autodiff import Tensor
from .density import FlowModel, KdeModel, LatentProjection, ScaledDensity, coupling_net
from .layers import DenseNet
from .model import Classifier, Encoder, encoder_net
from .predictor import DensitySoftmaxModel, Ensemble

CONTAINER_VERSION = 7

PROJECTION_ARRAYS = ("mean", "directions", "scales")  # and the scalar residual_scale


class ContainerError(ValueError):
    pass


def _object(d, what: str) -> dict:
    """d, once it is a JSON object; what names it in errors."""
    if not isinstance(d, dict):
        raise ContainerError(f"{what} is not an object")
    return d


def _known(d, what: str, keys: tuple[str, ...]) -> dict:
    """d, once it is an object each of whose keys is one of keys; what
    names it in errors."""
    unknown = sorted(set(_object(d, what)) - set(keys))
    if unknown:
        raise ContainerError(f"{what} has unknown key {unknown[0]!r}")
    return d


def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "float64le": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(d: dict, what: str, ndim: int) -> np.ndarray:
    """The writable, finite float64 array stored in d; what names it in errors."""
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
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(a).all():
        raise ContainerError(f"{what} holds a NaN or an infinity")
    return a


def _finite_number(d: dict, key: str, what: str = "density") -> float:
    """d[key] as a float, once it is a finite JSON number; a bool, a
    string, NaN or an infinity raises a ContainerError naming what and key."""
    value = d[key]
    # a comparison, not float(): an int too large for a float compares False
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ContainerError(f"{what} {key} is {value!r}, not a finite number")
    return float(value)


def _net_to_list(net: DenseNet) -> list:
    return [{"weight": _encode_array(layer.weight.data), "bias": _encode_array(layer.bias.data)}
            for layer in net.layers]


def _list(value, what: str) -> list:
    """value, once it is a JSON list; what names it in errors."""
    if not isinstance(value, list):
        raise ContainerError(f"{what} is not a list")
    return value


def _net_from_list(layers, what: str, build: Callable[[list], DenseNet],
                   stacked: bool = False) -> DenseNet:
    """The net that build lays out over the stored layers' (weight, bias)
    pairs, with ``stacked`` (2, in, out) weights and (2, 1, out) biases."""
    pairs = []
    for i, d in enumerate(_list(layers, what)):
        name = f"{what} layer {i}"
        _known(d, name, ("weight", "bias"))
        pairs.append((Tensor(_decode_array(d["weight"], f"{name} weight", 3 if stacked else 2)),
                      Tensor(_decode_array(d["bias"], f"{name} bias", 3 if stacked else 1))))
    try:
        return build(pairs)
    except ValueError as exc:
        raise ContainerError(f"{what}: {exc}") from None


def _density_to_dict(density: ScaledDensity) -> dict:
    inner = density.inner
    if isinstance(inner, KdeModel):
        body = {"kind": "kde", "bandwidth": inner.bandwidth,
                **{name: _encode_array(getattr(inner, name))
                   for name in ("mean", "directions", "support")}}
    elif isinstance(inner, FlowModel):
        projection = inner.projection
        body = {"kind": "flow",
                "projection": {**{name: _encode_array(getattr(projection, name))
                                  for name in PROJECTION_ARRAYS},
                               "residual_scale": projection.residual_scale},
                "layers": [_net_to_list(layer.net) for layer in inner.layers]}
    else:  # pragma: no cover
        raise ContainerError(f"unknown density type {type(inner).__name__}")
    body["max_train_log_density"] = density.max_train_log_density
    return body


def _density_from_dict(d, latent_dim: int) -> ScaledDensity:
    if _object(d, "density")["kind"] == "kde":
        _known(d, "density", ("kind", "mean", "directions", "support", "bandwidth",
                              "max_train_log_density"))
        inner: KdeModel | FlowModel = KdeModel(
            _decode_array(d["mean"], "kde mean", 1),
            _decode_array(d["directions"], "kde directions", 2),
            _decode_array(d["support"], "kde support", 2), _finite_number(d, "bandwidth"))
        if inner.dim != latent_dim:
            raise ContainerError(f"kde density is {inner.dim}-d, "
                                 f"the encoder's latent_dim is {latent_dim}")
    elif d["kind"] == "flow":
        _known(d, "density", ("kind", "projection", "layers", "max_train_log_density"))
        stored = _known(d["projection"], "flow projection",
                        PROJECTION_ARRAYS + ("residual_scale",))

        def array(name: str, ndim: int) -> np.ndarray:
            return _decode_array(stored[name], f"flow projection {name}", ndim)

        projection = LatentProjection(array("mean", 1), array("directions", 2),
                                      array("scales", 1),
                                      _finite_number(stored, "residual_scale", "flow projection"))
        if projection.mean.size != latent_dim:
            raise ContainerError(f"flow projection reads {projection.mean.size} latent "
                                 f"columns, the encoder's latent_dim is {latent_dim}")
        # the flow is as wide as the coordinates it models
        inner = FlowModel(projection,
                          [_net_from_list(layers, f"flow layer {i}", coupling_net, stacked=True)
                           for i, layers in enumerate(_list(d["layers"], "flow layers"))])
    else:
        raise ContainerError(f"unknown density kind {d['kind']!r}")
    return ScaledDensity(inner=inner,
                         max_train_log_density=_finite_number(d, "max_train_log_density"))


def container_kind(model: DensitySoftmaxModel | Ensemble) -> str:
    """The "kind" field of the model's container: "erm", "density_softmax"
    or "ensemble"."""
    if isinstance(model, Ensemble):
        return "ensemble"
    return "erm" if model.density is None else "density_softmax"


def _model_to_dict(model: DensitySoftmaxModel) -> dict:
    doc = {
        "kind": container_kind(model),
        # every encoder layer has the one activation (model.encoder_net)
        "encoder": {"activation": model.encoder.net.layers[0].activation,
                    "layers": _net_to_list(model.encoder.net)},
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
    try:
        with open(path, encoding="utf-8") as fh:
            doc = _object(json.load(fh), "container")
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
        members = _list(_known(doc, "container", ("kind", "members"))["members"],
                        "ensemble members")
        return Ensemble([_model_from_dict(m, f"ensemble member {i}")
                         for i, m in enumerate(members)])
    return _model_from_dict(doc, "container")


def _model_from_dict(doc, what: str) -> DensitySoftmaxModel:
    kind = _object(doc, what).get("kind")
    if kind not in ("density_softmax", "erm"):
        raise ContainerError(f"unknown container kind {kind!r}")
    if kind == "erm" and "density" in doc:
        raise ContainerError("an erm container has no density, but this one carries one")
    _known(doc, what, ("kind", "encoder", "classifier", "density"))
    stored = _known(doc["encoder"], "encoder", ("activation", "layers"))
    encoder = Encoder(_net_from_list(stored["layers"], "encoder",
                                     lambda pairs: encoder_net(pairs, stored["activation"])))
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
