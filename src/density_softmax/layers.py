"""Dense layers and small feed-forward stacks with optional residual links.

Each layer owns two parameter Tensors, a weight and a bias: float32 in a
trained encoder, which ERM steps and ``Encoder.encode`` serves in that
dtype, and float64 in a coupling net. The kernels compute in their inputs'
dtype, and a workspace's arrays take its array's. Each network's layout is
built in one place, fresh or loaded: the encoder's by
``model.encoder_net``, a coupling net's by ``density.coupling_net``.

``forward`` is the one forward step, for inference and training alike.
Without a workspace it works in place on its fresh matmul output. Given a
``DenseWorkspace``, the arrays a fit makes once per batch size, each
layer writes its activation and its residual sum into the workspace, so the
arrays the backward reads stay as they were. ``backward`` walks the
workspace once and writes each parameter's gradient, one product per
parameter, with ``out=`` into the ``grad`` view the optimizer bound (see
``autodiff``); its scratch is the workspace's. The L2 penalty is no
layer's: ``optim.L2Penalty`` adds it over the optimizer's packed weights.
The tests hold the kernels to the per-op oracle tape, bit for bit in values
and every gradient.

A layer may also be stacked: weight (k, in, out) and bias (k, 1, out) hold k
same-shaped layers, and every product broadcasts over the leading axis
(``swapaxes(-1, -2)`` transposes, ``sum(axis=-2)`` reduces the batch), so one
matmul runs the k gemms. A 2-D input feeds every slot. The coupling flow
stacks its s-net and t-net this way; on 2-D arrays the operations are the
unstacked ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, get_args

import numpy as np

from .autodiff import Tensor, bound_grad

Activation = Literal["relu", "tanh", "linear"]
ACTIVATIONS = get_args(Activation)


def apply_activation(h: np.ndarray, activation: str, out=None) -> np.ndarray:
    if activation == "relu":
        return np.maximum(h, 0.0, out=out)
    if activation == "tanh":
        return np.tanh(h, out=out)
    return h  # linear; Dense admits only ACTIVATIONS


def activation_grad(g: np.ndarray, a: np.ndarray, activation: str, out: np.ndarray
                    ) -> np.ndarray:
    """g times the derivative of ``activation`` at its output a, written to out."""
    if activation == "relu":
        return np.multiply(g, a > 0.0, out=out)
    if activation == "tanh":
        np.multiply(a, a, out=out)
        np.subtract(1.0, out, out=out)
        return np.multiply(g, out, out=out)
    out[...] = g
    return out


def fan_in_uniform(rng: np.random.Generator, in_dim: int, out_dim: int) -> np.ndarray:
    """Scaled-uniform init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(in_dim)
    return rng.uniform(-bound, bound, size=(in_dim, out_dim))


@dataclass
class Dense:
    """Affine layer y = act(x W + b) with an optional residual connection
    (requires equal input/output width). A stacked layer has weight
    (k, in, out) and bias (k, 1, out)."""

    weight: Tensor
    bias: Tensor
    activation: Activation
    residual: bool = False

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        shape = self.weight.data.shape
        if self.residual and shape[-2] != shape[-1]:
            raise ValueError(f"residual layer needs equal input/output width, not {shape}")
        units = shape[-1]
        want = (units,) if len(shape) == 2 else (shape[0], 1, units)
        if self.bias.data.shape != want:
            raise ValueError(f"bias has shape {self.bias.data.shape}, a weight of shape "
                             f"{shape} needs {want}")

    def forward(self, x: np.ndarray, arrays: LayerArrays | None = None) -> np.ndarray:
        """act(x W + b), plus x for a residual layer. Without arrays the
        activation works in place on the fresh matmul output, and so does the
        residual sum. Given the layer's training arrays (see ``DenseWorkspace``),
        the product and activation go to ``arrays.act``, which the backward
        reads (the relu mask and the tanh derivative both follow from the
        activation), and the residual sum to ``arrays.out``."""
        h = np.matmul(x, self.weight.data, out=None if arrays is None else arrays.act)
        h += self.bias.data
        a = apply_activation(h, self.activation, out=h)
        if not self.residual:
            return a
        return np.add(x, a, out=a if arrays is None else arrays.out)

    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]


@dataclass
class DenseNet:
    """Ordered stack of Dense layers; consecutive widths must compose."""

    layers: list[Dense] = field(default_factory=list)

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weight.data.shape[-1] != nxt.weight.data.shape[-2]:
                raise ValueError(
                    f"layer widths do not compose: {prev.weight.data.shape} -> "
                    f"{nxt.weight.data.shape}"
                )

    def forward(self, x: np.ndarray, work: DenseWorkspace | None = None) -> np.ndarray:
        """The stack's output. Given a workspace, x must be its input array,
        and every layer writes into the workspace's arrays what ``backward`` reads."""
        if work is None:
            for layer in self.layers:
                x = layer.forward(x)
            return x
        if x is not work.x:
            raise ValueError("a workspace's forward runs on its own input array")
        for layer, arrays in zip(self.layers, work.layers):
            x = layer.forward(x, arrays)
        return x

    def backward(self, work: DenseWorkspace, g: np.ndarray, input_grad: bool = True
                 ) -> np.ndarray | None:
        """Given the workspace of the last forward and g = d(loss)/d(output),
        write every parameter's gradient into its bound ``grad`` and return
        d(loss)/d(input), or None when ``input_grad`` is false. Each product
        goes with ``out=`` straight into the gradient or into the
        workspace's scratch; g is only read. The returned array is the workspace's, rewritten
        by its next backward."""
        if not work.bound:
            work.bind(self)
        for i in range(len(self.layers) - 1, -1, -1):
            layer, a = self.layers[i], work.layers[i]
            gh = g if a.gh is None else activation_grad(g, a.act, layer.activation, a.gh)
            np.add.reduce(gh, axis=-2, keepdims=gh.ndim > 2, out=a.grad_b)
            np.matmul(a.x_t, gh, out=a.grad_w)
            if i == 0 and not input_grad:
                return None
            gx = np.matmul(gh, a.w_t, out=a.gx)
            g = np.add(g, gx, out=gx) if layer.residual else gx
        return g

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params())

    def weight_tensors(self) -> list[Tensor]:
        """Weight matrices only, the ones the L2 term reads."""
        return [layer.weight for layer in self.layers]

    def bias_tensors(self) -> list[Tensor]:
        return [layer.bias for layer in self.layers]


class LayerArrays:
    """One layer's arrays in a ``DenseWorkspace``: the forward's activation
    ``act`` and residual sum ``out``, the transpose ``x_t`` of the layer's
    input, the backward's scratch ``gh`` (None for a linear layer, whose gh
    is g itself) and ``gx``; and, once bound, the weight's transpose ``w_t``
    and the gradient views ``grad_w`` and ``grad_b``."""

    __slots__ = ("act", "out", "x_t", "gh", "gx", "w_t", "grad_w", "grad_b")


class DenseWorkspace:
    """A DenseNet's training arrays on one input array ``x``, in x's dtype,
    made once per fit for each batch size, so the net's walk in a step
    allocates no array (the relu mask ``a > 0`` aside) and looks nothing up:
    the forward writes each layer's activation into the workspace, and the
    backward reads it there. A layer's forward arrays are its own. The backward's scratch is
    shared between the layers of one shape: one ``gh``, and two ``gx``
    taking turns, since a layer's backward reads only the ``gx`` of the
    layer above it. The first backward binds the weights' transposes and the
    parameters' gradient views, after the optimizer has packed them
    (``bound_grad`` names a parameter it did not bind); they stay bound for
    the fit, as ``Adam.step`` checks. So a workspace belongs to the one
    optimizer it first bound to: under another one its backward would write
    into the first one's gradient views."""

    def __init__(self, net: DenseNet, x: np.ndarray):
        self.x = x
        self.bound = False
        self.layers: list[LayerArrays] = []
        dtype, scratch = x.dtype, {}

        def shared(shape: tuple, role: str) -> np.ndarray:
            if (shape, role) not in scratch:
                scratch[shape, role] = np.empty(shape, dtype)
            return scratch[shape, role]

        last = len(net.layers) - 1
        for i, layer in enumerate(net.layers):
            w = layer.weight.data.shape
            out = np.broadcast_shapes(x.shape[:-2], w[:-2]) + (x.shape[-2], w[-1])
            a = LayerArrays()
            a.x_t = x.swapaxes(-1, -2)
            a.act = np.empty(out, dtype)
            a.out = np.empty(out, dtype) if layer.residual else None
            a.gh = None if layer.activation == "linear" else shared(out, "gh")
            a.gx = shared(out[:-1] + (w[-2],), "gx" + str((last - i) % 2))
            self.layers.append(a)
            x = a.act if a.out is None else a.out

    def bind(self, net: DenseNet) -> None:
        """Bind each layer's weight transpose and gradient views, top layer
        first, bias before weight, as the backward walks them."""
        for i in range(len(net.layers) - 1, -1, -1):
            layer, a = net.layers[i], self.layers[i]
            a.grad_b = bound_grad(layer.bias, f"dense layer {i} bias")
            a.grad_w = bound_grad(layer.weight, f"dense layer {i} weight")
            a.w_t = layer.weight.data.swapaxes(-1, -2)
        self.bound = True
