"""Versioned binary model containers with exact float round-trip.

A container is one file: a header line, then a payload. The header line is
one JSON document with sorted keys, ended by a newline. Every float64 array
of the model (dense weights and biases, the classifier's theta, the
projections, the KDE support) appears in it as an object ``{"shape": [...],
"offset": n}``, and the payload holds the arrays' raw little-endian
IEEE-754 bytes, back to back, in the order the header lists them: each
array's bytes start n bytes into the payload. Save -> load therefore
reproduces every parameter bit for bit by construction (the bytes are the
bits, -0.0, subnormals and the largest finite value included), and neither
side turns a weight into a Python float, its decimal repr or a text encoding
of its bytes. Since the header sorts its keys and the payload follows the
header's order, saving a model twice writes the same bytes. Scalars
(bandwidth, max_train_log_density, residual_scale) stay finite JSON numbers
in the header.

The arrays' byte ranges must tile the payload: every range lies inside it,
no two overlap, and every payload byte lies in one. A range that runs past
the payload, an offset that is not a non-negative integer, a shape that is
not a list of non-negative integers of the array's rank, payload bytes that
no array reads (a gap, or a trailing byte) and two ranges that overlap are
each refused with a ContainerError naming the array or the container, as is
a file with no header line or whose header line is not UTF-8 JSON. An array
holding a NaN or an infinity is refused at load, named by its key.

Version 8, the only version read, stores arrays and no layout: the "kind"
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
each coupling layer's halves from its index. Another version, 1 to 7
included, is refused with a ContainerError after reading the version field
alone (a file of version 7 or older is one JSON line with no payload);
``run`` writes the same model again as version 8. So is a key the loader
does not read, in any object of the header, and an object or a list stored
as another JSON type, each named by its key: a stale or hand-added fact
could otherwise disagree with the model silently.
"""

from __future__ import annotations

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

CONTAINER_VERSION = 8
CONTAINER_SUFFIX = ".dsm"  # the file name suffix of the containers the CLI writes

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


def _header(container: dict) -> tuple[bytes, list[np.ndarray]]:
    """The header line of container, without its newline, with each array
    in it replaced by its {shape, offset} object; and the arrays, as
    little-endian float64, in the order the header lists them."""
    arrays: list[np.ndarray] = []
    size = 0

    def place(node):
        nonlocal size
        if isinstance(node, np.ndarray):
            a = np.ascontiguousarray(node, dtype="<f8")
            arrays.append(a)
            size += a.nbytes
            return {"shape": list(a.shape), "offset": size - a.nbytes}
        if isinstance(node, dict):  # in the order json.dumps sorts the keys
            return {key: place(node[key]) for key in sorted(node)}
        if isinstance(node, list):
            return [place(value) for value in node]
        return node

    return json.dumps(place(container), sort_keys=True).encode("utf-8"), arrays


class _Payload:
    """The bytes after a container's header line, and the [start, end)
    byte range of each array read from them so far."""

    def __init__(self, data: memoryview):
        self.data = data
        self.ranges: list[tuple[int, int, str]] = []  # start, end, the array's name

    def array(self, d, what: str, ndim: int) -> np.ndarray:
        """The writable, finite float64 array that the {shape, offset}
        object d places in the payload; what names it in errors."""
        if not isinstance(d, dict):
            raise ContainerError(f"{what} is not a {{shape, offset}} object")
        _known(d, what, ("shape", "offset"))
        shape, offset = d["shape"], d["offset"]
        if not (isinstance(shape, list) and len(shape) == ndim
                and all(type(n) is int and n >= 0 for n in shape)):
            raise ContainerError(f"{what} shape {shape!r} is not a list of "
                                 f"{ndim} non-negative integers")
        if type(offset) is not int or offset < 0:
            raise ContainerError(f"{what} offset {offset!r} is not a non-negative integer")
        count = math.prod(shape)
        end = offset + 8 * count
        if end > len(self.data):
            raise ContainerError(f"{what} reads payload bytes {offset}..{end}, past the "
                                 f"payload's end at {len(self.data)}")
        self.ranges.append((offset, end, what))
        a = np.frombuffer(self.data, "<f8", count, offset).astype(np.float64).reshape(shape)
        if not np.isfinite(a).all():
            raise ContainerError(f"{what} holds a NaN or an infinity")
        return a

    def check_tiled(self) -> None:
        """Refuse payload bytes that no array read, or that two arrays read."""
        covered, last = 0, ""  # the ranges so far tile [0, covered); last ends it
        for start, end, what in sorted(self.ranges):
            if start < covered:
                raise ContainerError(f"{what} reads payload bytes {start}..{end}, which "
                                     f"overlap the bytes up to {covered} that {last} reads")
            if start > covered:
                raise ContainerError(f"payload bytes {covered}..{start} are read by no array")
            covered, last = end, what
        if covered < len(self.data):
            raise ContainerError(f"payload bytes {covered}..{len(self.data)} are read by "
                                 "no array")


def _finite_number(d: dict, key: str, what: str = "density") -> float:
    """d[key] as a float, once it is a finite JSON number; a bool, a
    string, NaN or an infinity raises a ContainerError naming what and key."""
    value = d[key]
    # a comparison, not float(): an int too large for a float compares False
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ContainerError(f"{what} {key} is {value!r}, not a finite number")
    return float(value)


def _net_to_list(net: DenseNet) -> list:
    return [{"weight": layer.weight.data, "bias": layer.bias.data} for layer in net.layers]


def _list(value, what: str) -> list:
    """value, once it is a JSON list; what names it in errors."""
    if not isinstance(value, list):
        raise ContainerError(f"{what} is not a list")
    return value


def _net_from_list(layers, what: str, build: Callable[[list], DenseNet], payload: _Payload,
                   stacked: bool = False) -> DenseNet:
    """The net that build lays out over the stored layers' (weight, bias)
    pairs, with ``stacked`` (2, in, out) weights and (2, 1, out) biases."""
    pairs = []
    for i, d in enumerate(_list(layers, what)):
        name = f"{what} layer {i}"
        _known(d, name, ("weight", "bias"))
        pairs.append((Tensor(payload.array(d["weight"], f"{name} weight", 3 if stacked else 2)),
                      Tensor(payload.array(d["bias"], f"{name} bias", 3 if stacked else 1))))
    try:
        return build(pairs)
    except ValueError as exc:
        raise ContainerError(f"{what}: {exc}") from None


def _density_to_dict(density: ScaledDensity) -> dict:
    inner = density.inner
    if isinstance(inner, KdeModel):
        body = {"kind": "kde", "bandwidth": inner.bandwidth,
                **{name: getattr(inner, name) for name in ("mean", "directions", "support")}}
    elif isinstance(inner, FlowModel):
        projection = inner.projection
        body = {"kind": "flow",
                "projection": {**{name: getattr(projection, name) for name in PROJECTION_ARRAYS},
                               "residual_scale": projection.residual_scale},
                "layers": [_net_to_list(layer.net) for layer in inner.layers]}
    else:  # pragma: no cover
        raise ContainerError(f"unknown density type {type(inner).__name__}")
    body["max_train_log_density"] = density.max_train_log_density
    return body


def _density_from_dict(d, latent_dim: int, payload: _Payload) -> ScaledDensity:
    if _object(d, "density")["kind"] == "kde":
        _known(d, "density", ("kind", "mean", "directions", "support", "bandwidth",
                              "max_train_log_density"))
        inner: KdeModel | FlowModel = KdeModel(
            payload.array(d["mean"], "kde mean", 1),
            payload.array(d["directions"], "kde directions", 2),
            payload.array(d["support"], "kde support", 2), _finite_number(d, "bandwidth"))
        if inner.dim != latent_dim:
            raise ContainerError(f"kde density is {inner.dim}-d, "
                                 f"the encoder's latent_dim is {latent_dim}")
    elif d["kind"] == "flow":
        _known(d, "density", ("kind", "projection", "layers", "max_train_log_density"))
        stored = _known(d["projection"], "flow projection",
                        PROJECTION_ARRAYS + ("residual_scale",))

        def array(name: str, ndim: int) -> np.ndarray:
            return payload.array(stored[name], f"flow projection {name}", ndim)

        projection = LatentProjection(array("mean", 1), array("directions", 2),
                                      array("scales", 1),
                                      _finite_number(stored, "residual_scale", "flow projection"))
        if projection.mean.size != latent_dim:
            raise ContainerError(f"flow projection reads {projection.mean.size} latent "
                                 f"columns, the encoder's latent_dim is {latent_dim}")
        # the flow is as wide as the coordinates it models
        inner = FlowModel(projection,
                          [_net_from_list(layers, f"flow layer {i}", coupling_net, payload,
                                          stacked=True)
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
        "classifier": {"theta": model.classifier.theta.data},
    }
    if model.density is not None:
        doc["density"] = _density_to_dict(model.density)
    return doc


def density_softmax_container(model: DensitySoftmaxModel) -> dict:
    """The model's container document, holding the model's own arrays (not
    copies) where the file holds {shape, offset} objects; kind "erm", with
    no density key, if it has no density."""
    return {"version": CONTAINER_VERSION, **_model_to_dict(model)}


def ensemble_container(ensemble: Ensemble) -> dict:
    """The members' container documents under one version field."""
    return {
        "version": CONTAINER_VERSION,
        "kind": "ensemble",
        "members": [_model_to_dict(m) for m in ensemble.members],
    }


def save_container(container: dict, path) -> None:
    """Write the container document: its header line, then its arrays'
    bytes. The file goes through a sibling temporary file that replaces path
    only once it is complete, so a failed save leaves the previous file as
    it was."""
    header, arrays = _header(container)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header + b"\n")
            for a in arrays:
                fh.write(a)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read(path) -> tuple[dict, _Payload]:
    """The header of the container file at path, and its payload."""
    data = Path(path).read_bytes()
    end = data.find(b"\n")
    if end < 0:
        raise ContainerError("no header line: the file holds no newline")
    try:
        header = json.loads(data[:end].decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ContainerError(f"header line is not UTF-8: {exc}") from None
    except ValueError as exc:
        raise ContainerError(f"header line is not JSON: {exc}") from None
    return _object(header, "container"), _Payload(memoryview(data)[end + 1:])


def load_container(path):
    """Load any container kind; returns the reconstructed model object.

    A malformed container raises ContainerError naming the missing key, the
    array whose bytes do not tile the payload, or the part whose shape does
    not fit the rest of the model.
    """
    try:
        doc, payload = _read(path)
        if "version" not in doc:
            raise ContainerError("missing version field")
        if doc["version"] != CONTAINER_VERSION:
            raise ContainerError(
                f"unsupported container version {doc['version']}; this build reads "
                f"version {CONTAINER_VERSION}, so write the model again with `run`")
        model = _from_dict({key: value for key, value in doc.items() if key != "version"},
                           payload)
        payload.check_tiled()
        return model
    except KeyError as exc:
        raise ContainerError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # ContainerError is a ValueError
        raise ContainerError(f"{path}: {exc}") from exc


def _from_dict(doc: dict, payload: _Payload):
    """The model of a container body: the header without its version."""
    if doc.get("kind") == "ensemble":
        members = _list(_known(doc, "container", ("kind", "members"))["members"],
                        "ensemble members")
        return Ensemble([_model_from_dict(m, f"ensemble member {i}", payload)
                         for i, m in enumerate(members)])
    return _model_from_dict(doc, "container", payload)


def _model_from_dict(doc, what: str, payload: _Payload) -> DensitySoftmaxModel:
    kind = _object(doc, what).get("kind")
    if kind not in ("density_softmax", "erm"):
        raise ContainerError(f"unknown container kind {kind!r}")
    if kind == "erm" and "density" in doc:
        raise ContainerError("an erm container has no density, but this one carries one")
    _known(doc, what, ("kind", "encoder", "classifier", "density"))
    stored = _known(doc["encoder"], "encoder", ("activation", "layers"))
    encoder = Encoder(_net_from_list(stored["layers"], "encoder",
                                     lambda pairs: encoder_net(pairs, stored["activation"]),
                                     payload))
    classifier = _known(doc["classifier"], "classifier", ("theta",))
    theta = payload.array(classifier["theta"], "classifier theta", 2)
    if theta.shape[0] != encoder.latent_dim:
        raise ContainerError(f"classifier theta has {theta.shape[0]} rows, "
                             f"the encoder's latent_dim is {encoder.latent_dim}")
    if theta.shape[1] < 2:
        raise ContainerError(f"classifier theta has {theta.shape[1]} column; "
                             "a head needs at least 2 classes")
    density = (None if kind == "erm"
               else _density_from_dict(doc["density"], encoder.latent_dim, payload))
    return DensitySoftmaxModel(encoder, Classifier(Tensor(theta)), density)
