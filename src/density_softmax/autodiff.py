"""Minimal reverse-mode automatic differentiation on float64 arrays.

A ``Tensor`` wraps a numpy array and records the operation that made it,
forming a DAG. Calling :meth:`Tensor.backward` on a scalar node walks the
graph in reverse topological order and runs each node's backward rule.

Gradients are lazy: a node holds no gradient until its first contribution
arrives, an untouched ``grad`` reads as zeros, and nodes that received no
gradient are skipped. The first contribution is stored as is and later ones
add out of place, so an array handed to several nodes is never written
through.

The training hot paths are fused nodes with hand-written backward rules:
``DenseNet.forward_tape`` (one node per dense stack), ``FlowModel.nll_loss``
(one node per flow loss), ``layers.l2_loss`` and ``softmax_cross_entropy``
below. The generic primitives here (matmul, broadcast add, elementwise
mul/exp/tanh/relu, square, sum) build the small classifier heads and serve
the tests as the per-op oracle that the fused nodes must match bit for bit.
Everything is float64; re-evaluating an identical graph yields
bitwise-identical gradients.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "softmax_cross_entropy"]


def _as_f64(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr


class Tensor:
    """Node in the computation graph: value, accumulated gradient, backward rule."""

    __slots__ = ("data", "_grad", "_parents", "_backward")

    def __init__(self, data, parents=()):
        self.data = _as_f64(data)
        self._grad = None
        self._parents = tuple(parents)
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros while no contribution has arrived."""
        return np.zeros_like(self.data) if self._grad is None else self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

    def accumulate(self, g: np.ndarray) -> None:
        """Add one gradient contribution (never in place, see the module doc)."""
        self._grad = g if self._grad is None else self._grad + g

    def zero_grad(self) -> None:
        self._grad = None

    # -- graph construction ------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        out = Tensor(self.data + other.data, (self, other))

        def backward():
            self.accumulate(_unbroadcast(out.grad, self.data.shape))
            other.accumulate(_unbroadcast(out.grad, other.data.shape))

        out._backward = backward
        return out

    def __sub__(self, other: "Tensor") -> "Tensor":
        out = Tensor(self.data - other.data, (self, other))

        def backward():
            self.accumulate(_unbroadcast(out.grad, self.data.shape))
            other.accumulate(-_unbroadcast(out.grad, other.data.shape))

        out._backward = backward
        return out

    def __mul__(self, other: "Tensor") -> "Tensor":
        out = Tensor(self.data * other.data, (self, other))

        def backward():
            self.accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            other.accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

        out._backward = backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        out = Tensor(self.data @ other.data, (self, other))

        def backward():
            self.accumulate(out.grad @ other.data.T)
            other.accumulate(self.data.T @ out.grad)

        out._backward = backward
        return out

    def scale(self, c: float) -> "Tensor":
        """Multiply by a python scalar constant (not a graph node)."""
        c = float(c)
        out = Tensor(self.data * c, (self,))

        def backward():
            self.accumulate(out.grad * c)

        out._backward = backward
        return out

    def mul_const(self, c) -> "Tensor":
        """Elementwise multiply by a constant array (masks, frozen scales)."""
        c = _as_f64(c)
        out = Tensor(self.data * c, (self,))

        def backward():
            self.accumulate(_unbroadcast(out.grad * c, self.data.shape))

        out._backward = backward
        return out

    def add_const(self, c) -> "Tensor":
        c = _as_f64(c)
        out = Tensor(self.data + c, (self,))

        def backward():
            self.accumulate(_unbroadcast(out.grad, self.data.shape))

        out._backward = backward
        return out

    def relu(self) -> "Tensor":
        out = Tensor(np.maximum(self.data, 0.0), (self,))

        def backward():
            self.accumulate(out.grad * (self.data > 0.0))

        out._backward = backward
        return out

    def tanh(self) -> "Tensor":
        t = np.tanh(self.data)
        out = Tensor(t, (self,))

        def backward():
            self.accumulate(out.grad * (1.0 - t * t))

        out._backward = backward
        return out

    def exp(self) -> "Tensor":
        e = np.exp(self.data)
        out = Tensor(e, (self,))

        def backward():
            self.accumulate(out.grad * e)

        out._backward = backward
        return out

    def square(self) -> "Tensor":
        out = Tensor(self.data * self.data, (self,))

        def backward():
            self.accumulate(out.grad * (2.0 * self.data))

        out._backward = backward
        return out

    def sum(self) -> "Tensor":
        out = Tensor(self.data.sum(), (self,))

        def backward():
            self.accumulate(out.grad * np.ones_like(self.data))

        out._backward = backward
        return out

    # -- backward pass -----------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into every node reachable from self.

        ``self`` must be a scalar. Gradients add onto whatever is already in
        ``.grad``, so call :meth:`zero_grad` on parameters between steps.
        Nodes that no gradient reached are skipped.
        """
        if self.data.ndim != 0:
            raise ValueError("backward() requires a scalar loss node")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = self.grad + 1.0
        for node in reversed(order):
            if node._backward is not None and node._grad is not None:
                node._backward()


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Fused primitive: forward uses max-shifted log-sum-exp, backward is the
    closed form (softmax - onehot) / n. Shift invariance of softmax makes
    treating the per-row max as a constant exact.
    """
    labels = np.asarray(labels)
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match {n} logit rows")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label index out of range")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    losses = lse - shifted[np.arange(n), labels]
    out = Tensor(losses.mean(), (logits,))

    def backward():
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(n), labels] -= 1.0
        logits.accumulate(out.grad * probs / n)

    out._backward = backward
    return out
