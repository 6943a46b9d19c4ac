"""Dense layers, residual stacks, and optimizer update rules."""

import numpy as np
import pytest

from density_softmax.autodiff import Tensor
from density_softmax.layers import Dense, DenseNet, DenseWorkspace
from density_softmax.optim import Adam, L2Penalty

from conftest import assert_grads_close, bind_grads, central_difference_grad, dense
from tape_reference import Node, dense_forward_tape


class TestDense:
    def test_forward_matches_tape_forward(self, rng):
        layer = dense(rng, 3, 5, "tanh")
        x = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(layer.forward(x),
                                      dense_forward_tape(layer, Node(x)).data)

    def test_residual_requires_square(self, rng):
        with pytest.raises(ValueError, match=r"not \(3, 5\)"):
            dense(rng, 3, 5, "relu", residual=True)

    def test_residual_forward(self, rng):
        layer = dense(rng, 4, 4, "relu", residual=True)
        x = rng.normal(size=(2, 4))
        inner = np.maximum(x @ layer.weight.data + layer.bias.data, 0.0)
        np.testing.assert_array_equal(layer.forward(x), x + inner)

    def test_unknown_activation(self, rng):
        with pytest.raises(ValueError):
            dense(rng, 2, 2, "gelu")

    def test_zero_init_is_identity_under_residual(self, rng):
        layer = Dense(Tensor(np.zeros((3, 3))), Tensor(np.zeros(3)), "relu", residual=True)
        x = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(layer.forward(x), x)


class TestDenseNet:
    def test_width_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            DenseNet([dense(rng, 2, 3, "relu"), dense(rng, 4, 2, "relu")])

    def test_param_count(self, rng):
        net = DenseNet([dense(rng, 2, 4, "relu"), dense(rng, 4, 3, "linear")])
        assert net.param_count() == 2 * 4 + 4 + 4 * 3 + 3

    def test_gradients_through_residual_stack(self, rng):
        net = DenseNet([dense(rng, 3, 3, "relu", residual=True),
                        dense(rng, 3, 3, "tanh")])
        x = rng.normal(size=(4, 3))
        params = bind_grads(net.params())

        def loss():
            return float(np.square(net.forward(x)).sum())

        work = DenseWorkspace(net, x)
        y = net.forward(x, work)
        net.backward(work, 2.0 * y, input_grad=False)
        assert_grads_close([p.grad for p in params],
                           central_difference_grad(loss, params))

    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("random_bias", [False, True])
    def test_in_place_forward_matches_training_forward(self, rng, activation,
                                                      residual, random_bias):
        net = DenseNet([dense(rng, 4, 4, activation, residual) for _ in range(3)])
        if random_bias:  # a fresh layer's bias is zero
            for layer in net.layers:
                layer.bias.data[...] = rng.normal(size=4)
        # without a workspace the residual sum runs in place, with one into it
        x = rng.normal(size=(5, 4))
        before = x.copy()
        outputs = [net.forward(x), net.forward(x, DenseWorkspace(net, x))]
        np.testing.assert_array_equal(outputs[0], outputs[1])
        np.testing.assert_array_equal(x, before)

    def test_l2_penalty_value_and_grad(self, rng):
        net = DenseNet([dense(rng, 2, 3, "relu"), dense(rng, 3, 2, "relu")])
        weights = net.weight_tensors()
        opt = Adam(weights + net.bias_tensors(), lr=0.1)
        opt.grad[...] = 0.0  # the data gradient the penalty adds onto
        penalty = L2Penalty(opt, [weights], 0.01)
        assert penalty.add_to(0.0) == pytest.approx(
            0.01 * sum(np.square(w.data).sum() for w in weights))
        penalty.backward()

        def loss():
            return float(0.01 * sum(np.square(w.data).sum() for w in weights))

        assert_grads_close([w.grad for w in weights],
                           central_difference_grad(loss, weights))


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        for g in (0.5, -3.0, 100.0):
            p = Tensor(np.array(1.0))
            opt = Adam([p], lr=1e-3)
            p.grad[...] = g
            opt.step()
            step = p.data - 1.0
            assert np.sign(step) == -np.sign(g)
            assert abs(step) == pytest.approx(1e-3, rel=1e-4)

    def test_zero_grads_leave_params(self, rng):
        p = Tensor(rng.normal(size=4))
        before = p.data.copy()
        opt = Adam([p], lr=0.1)
        p.grad[...] = 0.0
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_state_shapes_mirror_params(self, rng):
        p = Tensor(rng.normal(size=(2, 5)))
        opt = Adam([p], lr=0.01)
        p.grad[...] = rng.normal(size=(2, 5))
        opt.step()
        assert opt.m.shape == opt.v.shape == (10,)
        assert p.data.base is opt.data and p.grad.base is opt.grad

    def test_rebound_grad_rejected(self, rng):
        p = Tensor(rng.normal(size=(2, 2)))
        opt = Adam([p], lr=0.1)
        p.grad = np.zeros((2, 2))
        with pytest.raises(ValueError, match="rebound"):
            opt.step()
