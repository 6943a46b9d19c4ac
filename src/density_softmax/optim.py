"""Adam parameter updates at a fixed learning rate.

Adam packs the parameters it is built with into one contiguous vector of
their dtype (float32 for ERM, float64 for the flow and re-optimization) and
rebinds each parameter's ``data`` to a view of it, and its ``grad`` to the
same view of a gradient vector; the two moments and the scratch share the
dtype and the layout. The loss rules write every gradient into those views,
so a step updates every parameter straight from the packed gradient with a
few vectorized passes, whatever the number of parameters. The passes walk
the vectors in chunks of CHUNK bytes per array, so the half-dozen arrays one
chunk's passes touch stay in cache from one pass to the next. Every update is
elementwise, so the result is bit for bit the one a per-parameter loop
gives. A step leaves its denominator in the gradient vector, so every step's
rules write it afresh.

There is no optimizer-level weight decay: the training loops put L2 in the
loss (``train.l2``, ``density.flow.l2``).
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor

# Bytes per array per optimizer pass, whatever the dtype: 32,768 float64
# or 65,536 float32 elements.
CHUNK = 256 * 1024

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def _views(flat: np.ndarray, shapes: list[tuple]) -> list[np.ndarray]:
    """Views of flat, one per shape, laid out back to back."""
    out, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[start:start + size].reshape(shape))
        start += size
    return out


class Adam:
    """Adam over a fixed parameter list, packed into one vector at
    construction, plus the gradient vector and a one-chunk scratch."""

    def __init__(self, params: list[Tensor], lr: float):
        self.lr = lr
        self.t = 0
        self.params = list(params)
        self.data = np.concatenate([np.ravel(p.data) for p in self.params])
        self.grad = np.empty_like(self.data)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        size, chunk = self.data.size, CHUNK // self.data.itemsize
        scratch = np.empty(min(size, chunk), dtype=self.data.dtype)
        # (slice of the vectors, scratch of its length); the last is shorter
        self.chunks = [(slice(lo, lo + chunk), scratch[:min(chunk, size - lo)])
                       for lo in range(0, size, chunk)]
        shapes = [p.data.shape for p in self.params]
        self.data_views = _views(self.data, shapes)
        self.grad_views = _views(self.grad, shapes)
        for p, data, grad in zip(self.params, self.data_views, self.grad_views):
            p.data, p.grad = data, grad

    def step(self) -> None:
        for p, data, grad in zip(self.params, self.data_views, self.grad_views):
            if p.data is not data or p.grad is not grad:
                raise ValueError("parameter data or grad was rebound after packing")
        self.t += 1
        g = self.grad
        b1t = 1.0 - BETA1**self.t
        b2t = 1.0 - BETA2**self.t
        for c, tmp in self.chunks:
            gc, m, v = g[c], self.m[c], self.v[c]
            # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
            m *= BETA1
            np.multiply(gc, 1.0 - BETA1, out=tmp)
            m += tmp
            v *= BETA2
            np.multiply(gc, 1.0 - BETA2, out=tmp)
            tmp *= gc
            v += tmp
            # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps); g is spent, its
            # buffer holds the denominator
            np.divide(m, b1t, out=tmp)
            tmp *= self.lr
            denom = gc
            np.divide(v, b2t, out=denom)
            np.sqrt(denom, out=denom)
            denom += EPS
            tmp /= denom
            self.data[c] -= tmp
