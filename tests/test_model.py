"""Encoder/classifier construction, ERM training, ensembles."""

import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from density_softmax.autodiff import Tensor
from density_softmax.config import EncoderConfig, FlowConfig, OptimizerSpec, TrainConfig
from density_softmax.data import DataError, LabeledSet, make_two_moons, make_two_ovals
from density_softmax.density import FlowModel
from density_softmax.layers import DenseNet, fan_in_uniform
from density_softmax.autodiff import bound_grad
from density_softmax.model import (Classifier, Encoder, TrainingDiverged, batch_rows, erm_loss,
                                   erm_train, head_cross_entropy, init_model, narrow,
                                   train_minibatches)
from density_softmax.optim import Adam, L2Penalty
from density_softmax.predictor import DensitySoftmaxModel, Ensemble, ensemble_train

from conftest import (assert_float32_exact, assert_own_float32, count_forward_rows, erm_model,
                      identity_projection)

SMALL = EncoderConfig(width=8, depth=2)


def small_train_config(epochs=30, lr=3e-3, **kw):
    return TrainConfig(epochs=epochs, batch_size=64, optimizer=OptimizerSpec(lr=lr), **kw)


class TestInitModel:
    def test_same_seed_identical_weights(self):
        e1, c1 = init_model(SMALL, 2, 2, seed=5)
        e2, c2 = init_model(SMALL, 2, 2, seed=5)
        for p1, p2 in zip(e1.params() + c1.params(), e2.params() + c2.params()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_different_seed_differs(self):
        e1, _ = init_model(SMALL, 2, 2, seed=5)
        e2, _ = init_model(SMALL, 2, 2, seed=6)
        assert not np.array_equal(e1.params()[0].data, e2.params()[0].data)

    def test_width_latent_mismatch_rejected(self):
        # the width is the latent width: the head takes width rows, no other
        enc, clf = init_model(EncoderConfig(width=8, depth=1), 2, 2, seed=0)
        assert clf.theta.data.shape == (8, 2)
        with pytest.raises(ValueError, match="latent dim 16 does not match"):
            clf.logits(np.zeros((3, 16)))

    def test_param_count_formula(self):
        d_x, w, depth, k = 2, 4, 1, 2
        cfg = EncoderConfig(width=w, depth=depth)
        enc, clf = init_model(cfg, d_x, k, seed=0)
        expected = d_x * w + w + depth * (w * w + w) + w * k
        assert DensitySoftmaxModel(enc, clf).param_count() == expected
        # and the formula agrees with direct enumeration over tensors
        total = sum(p.data.size for p in enc.params() + clf.params())
        assert total == expected

    def test_classifier_has_no_bias(self):
        _, clf = init_model(SMALL, 2, 3, seed=0)
        assert clf.params() == [clf.theta]
        assert clf.theta.data.shape == (8, 3)

    def test_input_width_from_the_caller(self):
        enc, _ = init_model(SMALL, 5, 2, seed=0)
        assert enc.input_dim == 5
        with pytest.raises(ValueError, match="input_dim must be >= 1"):
            init_model(SMALL, 0, 2, seed=0)

    def test_layout_and_draws(self):
        """Layer 0 projects and every later layer is a residual block, all with
        the configured activation; the weights are drawn layer by layer, then
        theta, each rounded to float32 and held as float64, and the biases
        start at zero."""
        enc, clf = init_model(EncoderConfig(width=4, depth=2, activation="tanh"), 3, 2, seed=7)
        rng = np.random.default_rng(7)
        assert [(x.activation, x.residual) for x in enc.net.layers] == [
            ("tanh", False), ("tanh", True), ("tanh", True)]
        for layer, shape in zip(enc.net.layers, [(3, 4), (4, 4), (4, 4)]):
            np.testing.assert_array_equal(layer.weight.data,
                                          fan_in_uniform(rng, *shape).astype(np.float32))
            np.testing.assert_array_equal(layer.bias.data, np.zeros(4))
        np.testing.assert_array_equal(clf.theta.data,
                                      fan_in_uniform(rng, 4, 2).astype(np.float32))
        for p in enc.params() + clf.params():
            assert p.data.dtype == np.float64

    def test_widths_read_from_the_layers(self):
        enc, _ = init_model(EncoderConfig(width=6, depth=1), 3, 2, seed=0)
        assert (enc.input_dim, enc.latent_dim) == (3, 6)
        with pytest.raises(ValueError, match="encoder has no layers"):
            Encoder(DenseNet([]))


class TestEncode:
    def test_row_independence(self, rng):
        # batch-of-one agrees with the batch row (BLAS may round differently
        # across batch shapes, hence the tolerance)...
        enc, _ = init_model(SMALL, 2, 2, seed=1)
        x = rng.normal(size=(10, 2))
        batch = enc.encode(x)
        for i in range(10):
            np.testing.assert_allclose(enc.encode(x[i]), batch[i:i + 1],
                                       rtol=1e-12, atol=1e-14)
        # ...and changing other rows leaves row i bit-identical
        x2 = x.copy()
        x2[1:] = rng.normal(size=(9, 2))
        np.testing.assert_array_equal(enc.encode(x2)[0], batch[0])

    def test_dimension_mismatch(self, rng):
        enc, _ = init_model(SMALL, 2, 2, seed=1)
        with pytest.raises(ValueError):
            enc.encode(rng.normal(size=(4, 3)))

    def test_zero_weight_encoder_maps_to_zero(self):
        enc, _ = init_model(SMALL, 2, 2, seed=1)
        for p in enc.params():
            p.data[...] = 0.0
        out = enc.encode(np.array([[1.0, -2.0]]))
        np.testing.assert_array_equal(out, np.zeros((1, 8)))

    def test_eval_count_tracks_rows(self, rng, monkeypatch):
        """One walk per call; a 1-row call walks its row twice, as a 2-row
        batch (ops.gemm_rows)."""
        enc, _ = init_model(SMALL, 2, 2, seed=1)
        rows = count_forward_rows(monkeypatch, enc.net)
        enc.encode(rng.normal(size=(7, 2)))
        assert rows == [7]
        enc.encode(rng.normal(size=2))
        assert rows == [7, 2]

    def test_rows_past_float32_are_walked_again_in_float64(self, rng):
        """A trained encoder walks in float32; rows whose float32 walk is
        not finite (1e200 is past float32's range) get the float64 walk of
        the exactly widened weights, with no warning, and the other rows
        keep their float32 latents."""
        enc, _ = init_model(SMALL, 2, 2, seed=1)
        wide, _ = init_model(SMALL, 2, 2, seed=1)
        narrow(enc.params())
        x = rng.normal(size=(5, 2))
        x[[1, 3]] *= 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = enc.encode(x)
            np.testing.assert_array_equal(z[[1, 3]], wide.encode(x[[1, 3]]))
            np.testing.assert_array_equal(enc.encode(x[3]), wide.encode(x[3]))
        np.testing.assert_array_equal(z[[0, 2, 4]], enc.encode(x[[0, 2, 4]]))
        assert z.dtype == np.float64 and np.isfinite(z).all()

    def test_a_row_past_float64_too_is_named_in_the_callers_batch(self):
        """Row 2 overflows float32 and is held by the float64 walk; row 1
        overflows float64 too, and is named by its index in the batch."""
        enc, _ = init_model(SMALL, 2, 2, seed=1)
        narrow(enc.params())
        enc.net.layers[0].weight.data *= 1e30
        x = np.array([[0.5, 0.25], [1e300, 1e300], [1e100, 1e100]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(enc.encode(x[[0, 2]])).all()
            with pytest.raises(ValueError, match="latent row 1 is not finite"):
                enc.encode(x)


class TestLogits:
    def test_zero_theta_gives_uniform_softmax(self):
        from density_softmax.ops import softmax

        clf = Classifier.__new__(Classifier)
        from density_softmax.autodiff import Tensor

        clf.theta = Tensor(np.zeros((4, 3)))
        probs = softmax(clf.logits(np.ones((2, 4))))
        np.testing.assert_allclose(probs, np.full((2, 3), 1 / 3), atol=1e-15)

    def test_identity_weights(self):
        from density_softmax.autodiff import Tensor

        clf = Classifier(Tensor(np.eye(2)))
        np.testing.assert_array_equal(clf.logits(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_dim_mismatch(self):
        from density_softmax.autodiff import Tensor

        clf = Classifier(Tensor(np.zeros((4, 2))))
        with pytest.raises(ValueError):
            clf.logits(np.zeros((1, 5)))


class TestErmTrain:
    def test_zero_epochs_leaves_parameters(self):
        train = make_two_moons(50, 0.1, seed=0)
        enc, clf = init_model(SMALL, 2, 2, seed=0)
        before = [p.data.copy() for p in enc.params() + clf.params()]
        trace = erm_train(enc, clf, train, small_train_config(epochs=0), 0)
        assert trace == []
        for p, b in zip(enc.params() + clf.params(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_loss_decreases(self):
        train = make_two_moons(100, 0.1, seed=0)
        enc, clf = init_model(SMALL, 2, 2, seed=0)
        trace = erm_train(enc, clf, train, small_train_config(), 0)
        assert trace[-1] < trace[0]

    def test_separable_ovals_reach_high_accuracy(self):
        train = make_two_ovals(100, 4.0, 0.05, seed=0)
        enc, clf = init_model(SMALL, 2, 2, seed=0)
        erm_train(enc, clf, train, small_train_config(epochs=60), 0)
        probs = DensitySoftmaxModel(enc, clf).predict(train.features).probs
        acc = (probs.argmax(axis=1) == train.labels).mean()
        assert acc >= 0.99

    def test_deterministic_per_seed(self):
        train = make_two_moons(60, 0.1, seed=0)
        results = []
        for _ in range(2):
            enc, clf = init_model(SMALL, 2, 2, seed=3)
            erm_train(enc, clf, train, small_train_config(epochs=5), 3)
            results.append(np.concatenate([p.data.ravel()
                                           for p in enc.params() + clf.params()]))
        np.testing.assert_array_equal(results[0], results[1])

    def test_shifted_set_rejected(self):
        from density_softmax.config import ShiftSpec
        from density_softmax.data import DataError, apply_shift

        iid = make_two_moons(20, 0.1, seed=0, domain="iid_test")
        shifted = apply_shift(iid, ShiftSpec(), 1, seed=0)
        enc, clf = init_model(SMALL, 2, 2, seed=0)
        with pytest.raises(DataError):
            erm_train(enc, clf, shifted, small_train_config(epochs=1), 0)

    def test_divergence_raises(self):
        train = make_two_moons(50, 0.1, seed=0)
        enc, clf = init_model(SMALL, 2, 2, seed=0)
        cfg = TrainConfig(epochs=200, batch_size=32,
                          optimizer=OptimizerSpec(lr=1e200))
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
            erm_train(enc, clf, train, cfg, 0)
        err = info.value
        assert (err.stage, err.epoch, err.batch) == ("erm", 0, 1)
        assert np.isfinite(err.last_finite_loss)
        assert str(err).startswith(
            f"non-finite erm loss at epoch 0, batch 1 (last finite loss "
            f"{err.last_finite_loss})")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowed_moments_raise(self):
        """A float32 gradient of 1e20 squares past float32's range: Adam's
        bias-corrected v, about the mean of g^2, turns infinite (v itself,
        1e37 after a step, does not) while the loss stays finite, and the
        entry's step falls to 0. The loop raises at the end of the epoch,
        naming the stage and the epoch, instead of training on stalled."""
        w = Tensor(np.ones(3))
        w.data = w.data.astype(np.float32)

        def loss_fn(idx, work):
            return Tensor(1.0, lambda: w.grad.fill(1e20))

        with pytest.raises(TrainingDiverged) as info:
            train_minibatches("erm", loss_fn, [[w]], [], 0.0, 0.1, 10, 4, 3, 0)
        err = info.value
        assert (err.stage, err.epoch, err.batch, err.last_finite_loss) == ("erm", 0, 2, 1.0)
        assert str(err) == ("the erm optimizer's moments overflowed float32 by the end of "
                            "epoch 0: a squared gradient left the float32 range, where "
                            "Adam's steps stall; rescale the inputs")

    def test_moments_within_range_train_on(self):
        """Gradients of 1e18 square to 1e36, inside float32's range: no
        epoch raises."""
        w = Tensor(np.ones(3))
        w.data = w.data.astype(np.float32)
        trace = train_minibatches("erm", lambda idx, work: Tensor(
            1.0, lambda: w.grad.fill(1e18)), [[w]], [], 0.0, 0.1, 10, 4, 3, 0)
        assert trace == [1.0] * 3

    def test_features_at_1e20_rejected(self):
        """At this scale float32 holds the features, but Adam's squared
        gradients overflow it; the scale and the range are named up front."""
        train = make_two_moons(20, 0.1, seed=0)
        huge = LabeledSet(train.features * 1e20, train.labels, "train")
        enc, clf = init_model(SMALL, 2, 2, seed=0)
        before = [p.data.copy() for p in enc.params() + clf.params()]
        scale = np.abs(huge.features).max()
        with pytest.raises(DataError, match=re.escape(
                f"train features reach {scale:.3g}, beyond 4.61e+18: ERM steps in float32 "
                "(range +-3.403e+38)")):
            erm_train(enc, clf, huge, small_train_config(epochs=1), 0)
        for p, b in zip(enc.params() + clf.params(), before):
            assert p.data.dtype == np.float64
            np.testing.assert_array_equal(p.data, b)

    def test_features_at_1e18_train(self):
        train = make_two_moons(50, 0.1, seed=0)
        large = LabeledSet(train.features * 1e18, train.labels, "train")
        enc, clf = init_model(SMALL, 2, 2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow in Adam's moments warns
            trace = erm_train(enc, clf, large, small_train_config(epochs=3), 0)
        assert np.all(np.isfinite(trace))
        assert all(np.all(np.isfinite(p.data)) for p in enc.params() + clf.params())

    def test_features_beyond_float32_rejected(self):
        """ERM steps in float32: a finite float64 feature it cannot hold
        is named, not turned into an infinity and a divergence."""
        train = make_two_moons(20, 0.1, seed=0)
        huge = LabeledSet(train.features * 1e39, train.labels, "train")
        enc, clf = init_model(SMALL, 2, 2, seed=0)
        before = [p.data.copy() for p in enc.params() + clf.params()]
        with pytest.raises(DataError, match=r"train features exceed 3\.403e\+38, the "
                                            r"largest float32 ERM trains in"):
            erm_train(enc, clf, huge, small_train_config(epochs=1), 0)
        for p, b in zip(enc.params() + clf.params(), before):
            assert p.data.dtype == np.float64
            np.testing.assert_array_equal(p.data, b)

    def test_divergence_leaves_float64_parameters(self):
        """ERM steps in float32; a run that diverges still hands back the
        encoder as float32 arrays of its own and the head as a float64
        array, and no gradient buffer."""
        train = make_two_moons(50, 0.1, seed=0)
        enc, clf = init_model(SMALL, 2, 2, seed=0)
        cfg = TrainConfig(epochs=200, batch_size=32, optimizer=OptimizerSpec(lr=1e200))
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            erm_train(enc, clf, train, cfg, 0)
        assert_own_float32([p.data for p in enc.params()])
        assert clf.theta.data.dtype == np.float64
        assert [p.grad for p in enc.params() + clf.params()] == [None] * 7

    def test_trained_parameters_are_float32_exact_float64_arrays(self):
        """The trained encoder keeps float32 arrays of its own, which it
        serves in; the head is a float64 array of float32 values."""
        train = make_two_moons(50, 0.1, seed=0)
        enc, clf = init_model(SMALL, 2, 2, seed=0)
        erm_train(enc, clf, train, small_train_config(epochs=3, l2=1e-3), 0)
        assert_own_float32([p.data for p in enc.params()])
        assert_float32_exact([clf.theta.data])
        assert [p.grad for p in enc.params() + clf.params()] == [None] * 7


class TestUnboundGradient:
    """A rule run on a parameter no optimizer bound names it in a ValueError
    instead of dropping its gradient or failing on None."""

    def test_head_rule(self):
        _, clf = init_model(SMALL, 2, 2, seed=0)
        z = np.random.default_rng(0).normal(size=(5, 8))
        node = Tensor(*head_cross_entropy(z, clf.theta, np.array([0, 1, 0, 1, 1])))
        with pytest.raises(ValueError, match="classifier theta has no bound gradient"):
            node.backward()

    def test_erm_loss(self):
        enc, clf = init_model(SMALL, 2, 2, seed=0)
        train = make_two_moons(5, 0.1, seed=0)
        node = erm_loss(enc, clf, train.features, train.labels)
        with pytest.raises(ValueError, match="classifier theta has no bound gradient"):
            node.backward()
        clf.theta.grad = np.empty(clf.theta.data.shape)
        with pytest.raises(ValueError, match="dense layer 2 bias has no bound gradient"):
            node.backward()

    def test_flow_nll_loss(self):
        flow = FlowModel.build(identity_projection(4),
                               FlowConfig(coupling_layers=2, hidden_layers=1), 0)
        node = flow.nll_loss(np.random.default_rng(0).normal(size=(6, 4)))
        with pytest.raises(ValueError, match="dense layer 1 bias has no bound gradient"):
            node.backward()

    def test_l2_term(self):
        """The L2 term writes into the optimizer's packed weights, so a
        weight it did not pack first is named."""
        w, b = Tensor(np.ones((2, 2))), Tensor(np.zeros(2))
        with pytest.raises(ValueError, match="L2 weight 0 is not the optimizer's parameter 0"):
            L2Penalty(Adam([b, w], lr=0.1), [[w]], 0.1)


class TestTrainingWorkspace:
    """The loop makes one workspace per batch size, once per fit: one for
    the full batches and one for a shorter last batch."""

    def test_each_batch_size_steps_on_its_own_workspace(self):
        w = Tensor(np.ones((2, 2)))
        made, seen = [], []

        def workspace(rows):
            made.append(rows)
            return object()

        def loss_fn(idx, work):
            seen.append((len(idx), work))
            return Tensor(1.0, lambda: bound_grad(w, "w").fill(0.0))

        train_minibatches("test", loss_fn, [[w]], [], 0.0, 0.1, 100, 32, 2, 0, workspace)
        assert made == [32, 4]
        full, tail = seen[0][1], seen[3][1]
        assert full is not tail
        assert seen == [(32, full), (32, full), (32, full), (4, tail)] * 2

    def test_no_tail_workspace_when_the_batches_fill(self):
        made = []
        w = Tensor(np.ones(1))
        train_minibatches("test", lambda idx, work: Tensor(1.0, lambda: w.grad.fill(0.0)),
                          [[w]], [], 0.0, 0.1, 64, 32, 1, 0, lambda rows: made.append(rows))
        assert made == [32]

    def test_fewer_rows_than_a_batch(self):
        made = []
        w = Tensor(np.ones(1))
        train_minibatches("test", lambda idx, work: Tensor(1.0, lambda: w.grad.fill(0.0)),
                          [[w]], [], 0.0, 0.1, 5, 32, 1, 0, lambda rows: made.append(rows))
        assert made == [5]

    def test_batch_rows_gathers_into_the_workspace(self):
        data = np.random.default_rng(0).normal(size=(10, 3)).astype(np.float32)
        idx = np.array([7, 2, 9, 0])
        work = SimpleNamespace(x=np.full((4, 3), np.nan, np.float32))
        got = batch_rows(data, idx, work)
        assert got is work.x
        np.testing.assert_array_equal(got, data[idx])
        fresh = batch_rows(data, idx, None)
        assert fresh.dtype == np.float32
        np.testing.assert_array_equal(fresh, data[idx])


class TestEnsemble:
    def test_requires_two_members(self):
        train = make_two_moons(30, 0.1, seed=0)
        cfg = small_train_config(epochs=1)
        with pytest.raises(ValueError):
            ensemble_train(1, erm_model(SMALL, train, cfg), SMALL, train, cfg)

    def test_mean_of_simplex_stays_on_simplex(self):
        train = make_two_moons(30, 0.1, seed=0)
        cfg = small_train_config(epochs=3)
        ens = ensemble_train(2, erm_model(SMALL, train, cfg), SMALL, train, cfg)
        probs = ens.predict(train.features[:10]).probs
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_identical_members_equal_single_model(self):
        train = make_two_moons(30, 0.1, seed=0)
        enc, clf = init_model(SMALL, 2, 2, seed=4)
        erm_train(enc, clf, train, small_train_config(epochs=3), 4)
        model = DensitySoftmaxModel(enc, clf)
        ens = Ensemble([model, model])
        single = model.predict(train.features[:5]).probs
        np.testing.assert_array_equal(ens.predict(train.features[:5]).probs, single)

    def test_members_hold_float32_exact_float64_arrays(self):
        train = make_two_moons(30, 0.1, seed=0)
        cfg = small_train_config(epochs=2)
        ens = ensemble_train(3, erm_model(SMALL, train, cfg), SMALL, train, cfg)
        for member in ens.members:
            assert_own_float32([p.data for p in member.encoder.params()])
            assert_float32_exact([member.classifier.theta.data])

    def test_param_count_additivity(self):
        train = make_two_moons(30, 0.1, seed=0)
        cfg = small_train_config(epochs=1)
        ens = ensemble_train(2, erm_model(SMALL, train, cfg), SMALL, train, cfg)
        single = ens.members[0].param_count()
        assert ens.param_count() == 2 * single
