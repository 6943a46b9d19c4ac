"""SGD-with-momentum and Adam parameter updates.

On its first step an optimizer packs its parameters into one contiguous
float64 vector and rebinds each parameter's ``data`` to a view of it; its
state (momentum, or Adam's two moments) lives in vectors of the same
layout. A step gathers the gradients into one vector and then updates every
parameter with a few vectorized passes, whatever the number of parameters.
The passes walk the vectors in chunks of CHUNK elements, so the half-dozen
arrays one chunk's passes touch stay in cache from one pass to the next.
Every update is elementwise, so the result is bit for bit the one a
per-parameter loop gives.

There is no optimizer-level weight decay: the training loops put L2 in the
loss (``train.l2``, ``density.flow.l2``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .autodiff import Tensor

# Elements per optimizer pass: 256 KiB of float64 per array.
CHUNK = 32768


class _Packed:
    """Parameters packed into one vector, plus a gradient vector and a
    one-chunk scratch."""

    def __init__(self, params: list[Tensor]):
        self.params = list(params)
        self.data = np.concatenate([np.ravel(p.data) for p in self.params])
        self.grad = np.empty_like(self.data)
        size = self.data.size
        scratch = np.empty(min(size, CHUNK))
        # (slice of the vectors, scratch of its length); the last is shorter
        self.chunks = [(slice(lo, lo + CHUNK), scratch[:min(CHUNK, size - lo)])
                       for lo in range(0, size, CHUNK)]
        for p, view in zip(self.params, self.views(self.data)):
            p.data = view
        self.data_views = [p.data for p in self.params]
        self.grad_views = self.views(self.grad)

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a vector laid out like ``data``."""
        out, start = [], 0
        for p in self.params:
            size = p.data.size
            out.append(flat[start:start + size].reshape(p.data.shape))
            start += size
        return out

    def state(self) -> np.ndarray:
        """A zero state vector laid out like ``data``."""
        return np.zeros_like(self.data)

    def gather(self, params: list[Tensor]) -> np.ndarray:
        """Copy the parameters' gradients into ``grad``."""
        if len(params) != len(self.params) or any(
                p is not q for p, q in zip(params, self.params)):
            raise ValueError("an optimizer steps the parameter list it first stepped")
        for p, data, grad in zip(self.params, self.data_views, self.grad_views):
            if p.data is not data:
                raise ValueError("parameter data was rebound after the first step")
            g = p.grad
            if g.shape != data.shape:
                raise ValueError("gradient/parameter shape mismatch")
            grad[...] = g
        return self.grad


@dataclass
class SgdMomentum:
    lr: float
    momentum: float = 0.0
    nesterov: bool = False
    _packed: _Packed | None = field(default=None, repr=False)
    _velocity: np.ndarray | None = field(default=None, repr=False)

    def step(self, params: list[Tensor]) -> None:
        if not params:
            return
        if self._packed is None:
            self._packed = _Packed(params)
            self._velocity = self._packed.state()
        pk = self._packed
        g = pk.gather(params)
        for c, update in pk.chunks:
            gc, v = g[c], self._velocity[c]
            v *= self.momentum
            v += gc
            if self.nesterov:
                np.multiply(v, self.momentum, out=update)
                update += gc
                update *= self.lr
            else:
                np.multiply(v, self.lr, out=update)
            pk.data[c] -= update


@dataclass
class Adam:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _t: int = 0
    _packed: _Packed | None = field(default=None, repr=False)
    _m: np.ndarray | None = field(default=None, repr=False)
    _v: np.ndarray | None = field(default=None, repr=False)

    def step(self, params: list[Tensor]) -> None:
        self._t += 1
        if not params:
            return
        if self._packed is None:
            self._packed = _Packed(params)
            self._m = self._packed.state()
            self._v = self._packed.state()
        pk = self._packed
        g = pk.gather(params)
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for c, tmp in pk.chunks:
            gc, m, v = g[c], self._m[c], self._v[c]
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            m *= self.beta1
            np.multiply(gc, 1.0 - self.beta1, out=tmp)
            m += tmp
            v *= self.beta2
            np.multiply(gc, 1.0 - self.beta2, out=tmp)
            tmp *= gc
            v += tmp
            # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps); g is spent, its
            # buffer holds the denominator
            np.divide(m, b1t, out=tmp)
            tmp *= self.lr
            denom = gc
            np.divide(v, b2t, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            tmp /= denom
            pk.data[c] -= tmp


Optimizer = SgdMomentum | Adam


@dataclass(frozen=True)
class OptimizerSpec:
    """Serializable optimizer choice; build() yields a fresh stateful instance."""

    kind: Literal["adam", "sgd_momentum"] = "adam"
    lr: float = 1e-4
    momentum: float = 0.9
    nesterov: bool = True
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def build(self) -> Optimizer:
        if self.kind == "adam":
            return Adam(lr=self.lr, beta1=self.beta1, beta2=self.beta2, eps=self.eps)
        if self.kind == "sgd_momentum":
            return SgdMomentum(lr=self.lr, momentum=self.momentum,
                               nesterov=self.nesterov)
        raise ValueError(f"unknown optimizer kind {self.kind!r}")
