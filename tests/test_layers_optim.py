"""Dense layers, residual stacks, and optimizer update rules."""

import numpy as np
import pytest

from density_softmax.autodiff import Tensor
from density_softmax.layers import Dense, DenseNet, l2_backward, l2_value
from density_softmax.optim import Adam, OptimizerSpec, SgdMomentum

from conftest import assert_grads_close, central_difference_grad
from tape_reference import Node, dense_forward_tape


class TestDense:
    def test_forward_matches_tape_forward(self, rng):
        layer = Dense.init(rng, 3, 5, "tanh")
        x = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(layer.forward(x),
                                      dense_forward_tape(layer, Node(x)).data)

    def test_residual_requires_square(self, rng):
        with pytest.raises(ValueError):
            Dense.init(rng, 3, 5, "relu", residual=True)

    def test_residual_forward(self, rng):
        layer = Dense.init(rng, 4, 4, "relu", residual=True)
        x = rng.normal(size=(2, 4))
        inner = np.maximum(x @ layer.weight.data + layer.bias.data, 0.0)
        np.testing.assert_array_equal(layer.forward(x), x + inner)

    def test_unknown_activation(self, rng):
        with pytest.raises(ValueError):
            Dense.init(rng, 2, 2, "gelu")

    def test_zero_init_is_identity_under_residual(self, rng):
        layer = Dense.init(rng, 3, 3, "relu", residual=True, zero=True)
        x = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(layer.forward(x), x)


class TestDenseNet:
    def test_width_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            DenseNet([Dense.init(rng, 2, 3, "relu"), Dense.init(rng, 4, 2, "relu")])

    def test_param_count(self, rng):
        net = DenseNet([Dense.init(rng, 2, 4, "relu"),
                        Dense.init(rng, 4, 3, "linear", bias=False)])
        assert net.param_count() == 2 * 4 + 4 + 4 * 3

    def test_gradients_through_residual_stack(self, rng):
        net = DenseNet([Dense.init(rng, 3, 3, "relu", residual=True),
                        Dense.init(rng, 3, 3, "tanh")])
        x = rng.normal(size=(4, 3))
        params = net.params()

        def loss():
            return float(np.square(net.forward(x)).sum())

        cache = []
        y = net.forward(x, cache=cache)
        net.backward_cached(cache, 2.0 * y, input_grad=False)
        assert_grads_close([p.grad for p in params],
                           central_difference_grad(loss, params))

    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("bias", [False, True])
    def test_in_place_forward_matches_training_forward(self, rng, activation,
                                                      residual, bias):
        net = DenseNet([Dense.init(rng, 4, 4, activation, bias=bias, residual=residual)
                        for _ in range(3)])
        # without a cache the residual sum runs in place, with one out of place
        x = rng.normal(size=(5, 4))
        before = x.copy()
        outputs = [net.forward(x, cache=cache) for cache in (None, [])]
        np.testing.assert_array_equal(outputs[0], outputs[1])
        np.testing.assert_array_equal(x, before)

    def test_l2_penalty_value_and_grad(self, rng):
        net = DenseNet([Dense.init(rng, 2, 3, "relu"), Dense.init(rng, 3, 2, "relu")])
        weights = net.weight_tensors()
        assert l2_value([w.data for w in weights], 0.01) == pytest.approx(
            0.01 * sum(np.square(w.data).sum() for w in weights))
        l2_backward(weights, 0.01, 1.0)

        def loss():
            return float(0.01 * sum(np.square(w.data).sum() for w in weights))

        assert_grads_close([w.grad for w in weights],
                           central_difference_grad(loss, weights))


class TestSgd:
    def test_one_step_definition(self):
        p = Tensor(np.array(1.0))
        p.accumulate(np.array(2.0))
        SgdMomentum(lr=0.1).step([p])
        assert p.data == pytest.approx(0.8, abs=1e-15)

    def test_zero_grad_zero_l2_leaves_params(self, rng):
        p = Tensor(rng.normal(size=(3, 3)))
        before = p.data.copy()
        SgdMomentum(lr=0.5, momentum=0.9).step([p])
        np.testing.assert_array_equal(p.data, before)

    def test_momentum_accumulates(self):
        p = Tensor(np.array(0.0))
        opt = SgdMomentum(lr=1.0, momentum=0.5)
        for _ in range(2):
            p.zero_grad()
            p.accumulate(np.array(1.0))
            opt.step([p])
        # steps: v=1 -> p=-1; v=1.5 -> p=-2.5
        assert p.data == pytest.approx(-2.5)

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros((2, 2)))
        p.accumulate(np.zeros(3))
        with pytest.raises(ValueError):
            SgdMomentum(lr=0.1).step([p])


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        for g in (0.5, -3.0, 100.0):
            p = Tensor(np.array(1.0))
            p.accumulate(np.array(g))
            Adam(lr=1e-3).step([p])
            step = p.data - 1.0
            assert np.sign(step) == -np.sign(g)
            assert abs(step) == pytest.approx(1e-3, rel=1e-4)

    def test_zero_grads_leave_params(self, rng):
        p = Tensor(rng.normal(size=4))
        before = p.data.copy()
        Adam(lr=0.1).step([p])
        np.testing.assert_array_equal(p.data, before)

    def test_state_shapes_mirror_params(self, rng):
        p = Tensor(rng.normal(size=(2, 5)))
        p.accumulate(rng.normal(size=(2, 5)))
        opt = Adam(lr=0.01)
        opt.step([p])
        assert opt._m.shape == opt._v.shape == (10,)
        assert p.data.base is opt._packed.data


class TestOptimizerSpec:
    def test_build_kinds(self):
        assert isinstance(OptimizerSpec(kind="adam").build(), Adam)
        assert isinstance(OptimizerSpec(kind="sgd_momentum").build(), SgdMomentum)
        with pytest.raises(ValueError):
            OptimizerSpec(kind="rmsprop").build()
