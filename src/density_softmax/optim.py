"""Adam parameter updates at a fixed learning rate, and the L2 penalty.

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

There is no optimizer-level weight decay: L2 (``train.l2``,
``density.flow.l2``) is a term of the loss. The training loop hands Adam the
weight matrices first, net by net, and the biases after, so the weights fill
one prefix of its vectors, and :class:`L2Penalty` adds the term's value and
gradient over that prefix.
"""

from __future__ import annotations

import itertools
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


class L2Penalty:
    """coefficient * sum(w^2) over the weight matrices an Adam packed first.

    ``nets`` lists each net's weights, and the optimizer's parameters must
    begin with them in that order, so they fill one prefix of its vectors:
    the gradient 2 * coefficient * w is one pass over it. A weight of shape
    (k, in, out) stacks the matrices of k subnets; a 2-D weight is one. The
    value squares the prefix once and sums each matrix alone (a run of
    equal-sized matrices in one reduction over its rows), then adds the sums
    one after another, net by net and subnet by subnet: for ERM the
    encoder's weights, then the head's; for a coupling layer the s-net's,
    then the t-net's.
    """

    def __init__(self, opt: Adam, nets: list[list[Tensor]], coefficient: float):
        weights = [w for net in nets for w in net]
        for i, w in enumerate(weights):
            if i >= len(opt.params) or opt.params[i] is not w:
                raise ValueError(f"L2 weight {i} is not the optimizer's parameter {i}; "
                                 "it must pack the L2 weights first")
        self.coefficient = float(coefficient)
        size = sum(w.data.size for w in weights)
        self.data, self.grad = opt.data[:size], opt.grad[:size]
        self.scratch = np.empty_like(self.data)
        sizes: list[int] = []  # each matrix's size, in packed order
        order: list[int] = []  # the matrices' indices, in summing order
        for net in nets:
            slots = {w.data.shape[0] if w.data.ndim == 3 else 1 for w in net}
            if len(slots) != 1:
                raise ValueError(f"a net's weights stack {sorted(slots)} subnets; "
                                 "the L2 term needs one count per net")
            k, first = slots.pop(), len(sizes)
            for w in net:
                sizes += [w.data.size // k] * k
            order += [first + i * k + slot for slot in range(k) for i in range(len(net))]
        self.order = np.array(order)
        self.sums = np.empty(len(sizes), self.data.dtype)
        self.ordered = np.empty_like(self.sums)
        self.runs = []  # (rows of equal-sized matrices, their sums)
        start = index = 0
        for width, run in itertools.groupby(sizes):
            count = len(list(run))
            self.runs.append((self.scratch[start:start + count * width].reshape(count, width),
                              self.sums[index:index + count]))
            start, index = start + count * width, index + count

    def add_to(self, loss) -> np.floating:
        """loss plus the penalty of the current weights, added in their dtype
        (the loss node holds float64; ERM's loss is float32-valued)."""
        np.multiply(self.data, self.data, out=self.scratch)
        for rows, sums in self.runs:
            np.add.reduce(rows, axis=1, out=sums)
        np.take(self.sums, self.order, out=self.ordered)
        total = np.add.accumulate(self.ordered, out=self.ordered)[-1]
        return self.data.dtype.type(loss) + total * self.coefficient

    def backward(self) -> None:
        """Add 2 * coefficient * w to each weight's gradient, in place; the
        data term's rule writes the gradient there first."""
        term = np.multiply(self.data, 2.0, out=self.scratch)
        term *= self.coefficient
        self.grad += term
