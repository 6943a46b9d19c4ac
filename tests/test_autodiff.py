"""The program's Tensor, and the per-op oracle tape in tape_reference.py
against central finite differences.

The oracle is what the fused training nodes are held to bit for bit, so its
own primitives are checked here against numeric gradients.
"""

import numpy as np
import pytest

from density_softmax.autodiff import Tensor
from tape_reference import Node, softmax_cross_entropy

from conftest import assert_grads_close, bind_grads, central_difference_grad


class TestPrimitives:
    def test_matmul_grad(self, rng):
        w = Node(rng.normal(size=(3, 4)))
        x = rng.normal(size=(5, 3))

        def loss():
            return float((x @ w.data).sum())

        out = (Node(x) @ w).sum()
        out.backward()
        assert_grads_close([w.grad], central_difference_grad(loss, [w]))

    def test_linear_loss_gradient_is_input_structure(self):
        # loss = sum(x @ W) with x fixed: dL/dW[i, j] = sum_n x[n, i]
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = Node(np.zeros((2, 3)))
        loss = (Node(x) @ w).sum()
        loss.backward()
        expected = np.repeat(x.sum(axis=0)[:, None], 3, axis=1)
        np.testing.assert_array_equal(w.grad, expected)

    def test_broadcast_add_bias(self, rng):
        b = Node(rng.normal(size=4))
        x = rng.normal(size=(6, 4))

        def loss():
            return float(np.tanh(x + b.data).sum())

        out = (Node(x) + b).tanh().sum()
        out.backward()
        assert_grads_close([b.grad], central_difference_grad(loss, [b]))

    @pytest.mark.parametrize("op", ["relu", "tanh", "exp", "square"])
    def test_unary_ops(self, rng, op):
        v = Node(rng.normal(size=(4, 3)) + 0.1)  # nudge off relu kink

        def loss():
            x = v.data
            fn = {"relu": lambda a: np.maximum(a, 0.0), "tanh": np.tanh,
                  "exp": np.exp, "square": np.square}[op]
            return float(fn(x).sum())

        out = getattr(v, op)().sum()
        out.backward()
        assert_grads_close([v.grad], central_difference_grad(loss, [v]))

    def test_mul_and_scale(self, rng):
        a = Node(rng.normal(size=(3, 3)))
        b = Node(rng.normal(size=(3, 3)))

        def loss():
            return float((a.data * b.data * 2.5).sum())

        out = (a * b).scale(2.5).sum()
        out.backward()
        assert_grads_close([a.grad, b.grad],
                           central_difference_grad(loss, [a, b]))

    def test_mul_const_mask(self, rng):
        mask = np.array([1.0, 0.0, 1.0])
        v = Node(rng.normal(size=(4, 3)))

        def loss():
            return float((v.data * mask).sum())

        out = v.mul_const(mask).sum()
        out.backward()
        assert_grads_close([v.grad], central_difference_grad(loss, [v]))


class TestGraphSemantics:
    def test_disconnected_parameter_gets_zero_gradient(self, rng):
        used = Node(rng.normal(size=(2, 2)))
        unused = Node(rng.normal(size=(2, 2)))
        loss = used.square().sum()
        used.zero_grad(), unused.zero_grad()
        loss.backward()
        np.testing.assert_array_equal(unused.grad, np.zeros((2, 2)))

    def test_reused_node_accumulates(self, rng):
        # y = x * x via the same node twice must match d(x^2) = 2x
        x = Node(rng.normal(size=(3,)))
        loss = (x * x).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)

    def test_untouched_grad_reads_zero_and_is_not_allocated(self, rng):
        x = Node(rng.normal(size=(2, 3)))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))
        assert x._grad is None

    def test_node_without_incoming_grad_is_skipped(self, rng):
        a = Node(rng.normal(size=(2, 2)))
        b = a.relu()
        cut = Node(b.data, (b,))  # consumer with no backward rule: b gets no grad
        cut.sum().backward()
        assert b._grad is None and a._grad is None

    def test_shared_contribution_is_not_written_through(self, rng):
        # s = x + y hands the same array to x and y; x then takes a second
        # contribution, which must not leak into y's gradient.
        x = Node(rng.normal(size=3))
        y = Node(rng.normal(size=3))
        ((x + y) + x).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
        np.testing.assert_array_equal(y.grad, np.ones(3))

    def test_backward_requires_scalar(self, rng):
        x = Node(rng.normal(size=(2, 2)))
        with pytest.raises(ValueError):
            (x + x).backward()

    def test_identical_graph_twice_gives_bitwise_identical_grads(self, rng):
        w = Node(rng.normal(size=(4, 4)))
        x = rng.normal(size=(8, 4))

        def run():
            w.zero_grad()
            ((Node(x) @ w).relu().square().sum()).backward()
            return w.grad.copy()

        g1, g2 = run(), run()
        np.testing.assert_array_equal(g1, g2)


class TestSoftmaxCrossEntropy:
    def test_matches_finite_differences(self, rng):
        logits = Node(rng.normal(size=(6, 4)))
        labels = rng.integers(0, 4, size=6)

        def loss():
            u = logits.data
            shifted = u - u.max(axis=1, keepdims=True)
            lse = np.log(np.exp(shifted).sum(axis=1))
            return float((lse - shifted[np.arange(6), labels]).mean())

        out = softmax_cross_entropy(logits, labels)
        out.backward()
        assert_grads_close([logits.grad], central_difference_grad(loss, [logits]))

    def test_label_out_of_range(self, rng):
        logits = Node(rng.normal(size=(2, 3)))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.array([0, 3]))

    def test_value_on_uniform_logits(self):
        logits = Node(np.zeros((5, 4)))
        out = softmax_cross_entropy(logits, np.zeros(5, dtype=int))
        assert out.data == pytest.approx(np.log(4.0), abs=1e-12)


class TestTwoLayerNetOracle:
    def test_random_two_layer_net_all_parameters(self, rng):
        """Analytic vs central-difference gradients on a 2-layer net."""
        w1 = Node(rng.normal(size=(3, 5)))
        b1 = Node(rng.normal(size=5))
        w2 = Node(rng.normal(size=(5, 2)))
        x = rng.normal(size=(7, 3))
        labels = rng.integers(0, 2, size=7)
        params = [w1, b1, w2]

        def forward():
            h = np.maximum(x @ w1.data + b1.data, 0.0)
            u = h @ w2.data
            shifted = u - u.max(axis=1, keepdims=True)
            lse = np.log(np.exp(shifted).sum(axis=1))
            return float((lse - shifted[np.arange(7), labels]).mean())

        h = ((Node(x) @ w1) + b1).relu()
        loss = softmax_cross_entropy(h @ w2, labels)
        loss.backward()
        numeric = central_difference_grad(forward, params)
        assert_grads_close([p.grad for p in params], numeric)


class TestTensor:
    """The program's Tensor: a parameter or a loss node with its rule."""

    def test_backward_on_a_parameter_raises(self, rng):
        with pytest.raises(ValueError, match="no rule"):
            Tensor(rng.normal(size=3)).backward()

    def test_loss_node_runs_its_rule_with_unit_upstream(self, rng):
        p = Tensor(rng.normal(size=3))
        assert p.grad is None  # no buffer until an optimizer binds one
        bind_grads([p])
        runs = []

        def rule():  # a loss node's upstream gradient is 1.0, so a rule takes none
            runs.append(1)
            p.grad[...] = p.data

        Tensor(0.5, rule).backward()
        assert runs == [1]
        np.testing.assert_array_equal(p.grad, p.data)
