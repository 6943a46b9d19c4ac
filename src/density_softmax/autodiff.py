"""Parameters and loss nodes: one scalar loss node per training step.

A ``Tensor`` is a parameter (a float64 array and its accumulated gradient)
or the scalar loss of one training step, which also carries a hand-written
backward rule. Each stage builds one such node per step, with no graph
behind it: ``erm_loss`` (encoder stack, head cross-entropy and L2),
``head_cross_entropy`` under the scaled likelihood s (re-optimization) and
``FlowModel.nll_loss``. :meth:`Tensor.backward` runs the rule with upstream
gradient 1.0. A rule takes that gradient as an argument and holds no
reference to its node, so a step leaves no reference cycle behind.

Gradients are lazy: an untouched ``grad`` reads as zeros, and the first
contribution is stored as is while later ones add out of place, so an array
handed to several parameters is never written through. A general per-op
tape exists only in the tests, as the oracle the rules must match bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["Tensor"]


class Tensor:
    """A parameter (``rule`` None) or a scalar loss node with its backward rule."""

    __slots__ = ("data", "_grad", "_rule")

    def __init__(self, data, rule: Callable[[float], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self._grad = None
        self._rule = rule

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros while no contribution has arrived."""
        return np.zeros_like(self.data) if self._grad is None else self._grad

    def accumulate(self, g: np.ndarray) -> None:
        """Add one gradient contribution (never in place, see the module doc)."""
        self._grad = g if self._grad is None else self._grad + g

    def zero_grad(self) -> None:
        self._grad = None

    def backward(self) -> None:
        """Add d(self)/d(parameter) to every parameter's gradient.

        Gradients add onto whatever is already in ``.grad``, so call
        :meth:`zero_grad` on parameters between steps.
        """
        if self._rule is None:
            raise ValueError("backward() needs a loss node; this tensor has no rule")
        self._rule(1.0)
