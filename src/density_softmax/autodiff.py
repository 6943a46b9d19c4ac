"""Parameters and loss nodes: one scalar loss node per training step.

A ``Tensor`` is a parameter (an array and its gradient buffer) or the
scalar loss of one training step, which also carries a hand-written backward
rule. A parameter holds a float64 array, except the encoder's: ERM steps
the encoder and head in float32 (``model.erm_train``) and leaves the
encoder's arrays in float32, which it serves in (``Encoder.encode``); the
head widens back, and every later stage steps in float64. Each stage builds
one such node per step, with no graph behind it: ``erm_loss`` (encoder
stack and head cross-entropy), ``head_cross_entropy`` under the scaled
likelihood s (re-optimization) and ``FlowModel.nll_loss``. Each node is a
data term: the training loop adds the L2 term itself
(``optim.L2Penalty``). :meth:`Tensor.backward` runs the rule, which takes
no argument: the loss is the end of the graph, so its upstream gradient is
1.0. A rule holds no reference to its node, so a step
leaves no cycle.

Gradients are written once: a parameter's ``grad`` is None until an
optimizer binds it to a view of its packed gradient vector (``optim.Adam``).
A rule writes each parameter's data gradient into that view in place,
overwriting the last step's, and the loop's L2 term then adds to the
weights' views, so there is nothing to clear between steps. A rule finds
each view through ``bound_grad``, which raises ValueError naming a
parameter no optimizer bound; a training workspace (``layers.DenseWorkspace``)
does so once, at its first backward, and keeps the views for the fit. A
general per-op tape exists only in the tests, as the oracle the rules must
match bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["Tensor", "bound_grad"]


class Tensor:
    """A parameter (``rule`` None) or a scalar loss node with its backward rule.

    The constructor stores float64; ``model.narrow`` rebinds ``data`` to
    float32, for the length of ERM for the head and from then on for the
    encoder, and a rule's gradient takes the dtype of ``data``."""

    __slots__ = ("data", "grad", "rule")

    def __init__(self, data, rule: Callable[[], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.rule = rule

    def backward(self) -> None:
        """Write d(self)/d(parameter) into every parameter's bound ``grad``."""
        if self.rule is None:
            raise ValueError("backward() needs a loss node; this tensor has no rule")
        self.rule()


def bound_grad(p: Tensor, what: str) -> np.ndarray:
    """p's gradient buffer, which a rule writes into; a parameter that no
    optimizer bound raises ValueError naming it (``what``)."""
    if p.grad is None:
        raise ValueError(f"{what} has no bound gradient buffer; bind the parameters "
                         "to an optimizer (optim.Adam) before backward()")
    return p.grad
