"""Dense layers and small feed-forward stacks with optional residual links.

Each layer owns two parameter Tensors, a weight and a bias: float32 while
ERM steps the encoder, float64 in every later stage and at inference. The
kernels compute in their inputs' dtype, and the backward's scratch buffers
take the gradient's. Each network's layout is built in one place, fresh or
loaded: the encoder's by ``model.encoder_net``, a coupling net's by
``density.coupling_net``.

``forward`` is the one forward step, for inference and training alike.
Without a cache it works in place on its fresh matmul output. Given a cache
list, each layer also appends its input and activation, and its residual sum
goes out of place, so the cached arrays stay as they were.
``backward_cached`` walks that cache once and writes each parameter's
gradient, one product per parameter, with ``out=`` into the ``grad`` view
the optimizer bound (see ``autodiff``); no gradient array is allocated per
parameter. ``l2_value``/``l2_backward`` are the L2 penalty, whose gradient
adds onto the written one in place; the loss nodes ``erm_loss`` and
``FlowModel.nll_loss`` call them. The tests hold them to the per-op oracle
tape, bit for bit in values and every gradient.

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

    def forward(self, x: np.ndarray, cache: list | None = None) -> np.ndarray:
        """act(x W + b), plus x for a residual layer. The activation works in
        place on the fresh matmul output. Given a cache list, the layer
        appends (x, activation), which ``DenseNet.backward_cached`` reads (the
        relu mask and the tanh derivative both follow from the activation),
        and the residual sum goes to a new array."""
        h = x @ self.weight.data
        h += self.bias.data
        a = apply_activation(h, self.activation, out=h)
        if cache is not None:
            cache.append((x, a))
            return x + a if self.residual else a
        if self.residual:
            a += x
        return a

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

    def forward(self, x: np.ndarray, cache: list | None = None) -> np.ndarray:
        """The stack's output. Given a cache list, every layer appends what
        ``backward_cached`` needs."""
        for layer in self.layers:
            x = layer.forward(x, cache)
        return x

    def backward_cached(self, cache: list, g: np.ndarray, input_grad: bool = True
                        ) -> np.ndarray | None:
        """Given g = d(loss)/d(output), write every parameter's gradient into
        its bound ``grad`` and return d(loss)/d(input), or None when
        ``input_grad`` is false. Each product goes with ``out=`` straight
        into the gradient. g is only read; the activation-derivative products
        and the residual sums go to two buffers reused from layer to layer."""
        gh_buf = sum_buf = None
        for i in range(len(self.layers) - 1, -1, -1):
            layer, (x, a) = self.layers[i], cache[i]
            if layer.activation == "linear":
                gh = g
            else:
                if gh_buf is None or gh_buf.shape != g.shape:
                    gh_buf = np.empty_like(g)
                gh = activation_grad(g, a, layer.activation, gh_buf)
            np.add.reduce(gh, axis=-2, keepdims=gh.ndim > 2,
                          out=bound_grad(layer.bias, f"dense layer {i} bias"))
            np.matmul(x.swapaxes(-1, -2), gh,
                      out=bound_grad(layer.weight, f"dense layer {i} weight"))
            if i == 0 and not input_grad:
                return None
            gx = gh @ layer.weight.data.swapaxes(-1, -2)
            if layer.residual:
                if sum_buf is None or sum_buf.shape != g.shape:
                    sum_buf = np.empty_like(g)
                g = np.add(g, gx, out=sum_buf)
            else:
                g = gx
        return g

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params())

    def weight_tensors(self) -> list[Tensor]:
        """Weight matrices only (biases excluded), for l2 penalties."""
        return [layer.weight for layer in self.layers]


def l2_value(weights: list[np.ndarray], coefficient: float) -> float:
    """coefficient * sum(w^2), summed array by array in list order."""
    total = (weights[0] * weights[0]).sum()
    for w in weights[1:]:
        total = total + (w * w).sum()
    return total * float(coefficient)


def l2_backward(weights: list[Tensor], coefficient: float) -> None:
    """Add coefficient * 2w to each weight's gradient, in place; the data
    gradient is written there first."""
    k = float(coefficient)
    for i, w in enumerate(weights):
        grad = bound_grad(w, f"L2 weight {i}")
        grad += k * (2.0 * w.data)
