"""Composite predictor: limiting behavior, pipeline stages, summaries."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from density_softmax.autodiff import Tensor
from density_softmax.data import make_two_moons
from density_softmax.density import (LIKELIHOOD_FLOOR, FlowConfig, FlowModel,
                                     ScaledDensity, kde_fit)
from density_softmax.model import Classifier, EncoderConfig, TrainConfig, init_model
from density_softmax.ops import entropy, softmax
from density_softmax.optim import OptimizerSpec
from density_softmax.predictor import (DensityConfig, DensitySoftmaxModel, Ensemble,
                                       PipelineError, ReoptConfig, predictive_summaries,
                                       reoptimize_classifier, train_pipeline)

from conftest import count_forward_rows

SMALL = EncoderConfig(input_dim=2, width=8, depth=2, latent_dim=8)


class _PinnedDensity(ScaledDensity):
    """Density stub returning a fixed scaled likelihood for every input."""

    def __init__(self, value: float, dim: int = 8):
        support = np.zeros((1, dim))
        super().__init__(inner=kde_fit(support, 1.0), max_train_log_density=0.0)
        object.__setattr__(self, "_value", value)

    def scaled_likelihood(self, z):
        z = np.atleast_2d(z)
        return np.full(z.shape[0], self._value)

    def param_count(self):
        return 0


def pinned_model(value: float, seed: int = 0, k: int = 2) -> DensitySoftmaxModel:
    enc, clf = init_model(SMALL, k, seed=seed)
    return DensitySoftmaxModel(encoder=enc, classifier=clf, density=_PinnedDensity(value))


def small_pipeline(seed=0, reopt_epochs=5, density=None):
    train = make_two_moons(100, 0.1, seed=seed)
    return train, train_pipeline(
        train,
        SMALL,
        TrainConfig(epochs=25, batch_size=64,
                    optimizer=OptimizerSpec(kind="adam", lr=3e-3), seed=seed),
        density or DensityConfig(kind="kde"),
        ReoptConfig(epochs=reopt_epochs, batch_size=64, lr=3e-3, seed=seed),
        k=2,
    )


class TestLimitingBehavior:
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_floor_likelihood_gives_uniform(self, k, rng):
        model = pinned_model(LIKELIHOOD_FLOOR, k=k)
        probs = model.predict(rng.normal(size=(50, 2))).probs
        np.testing.assert_allclose(probs, np.full((50, k), 1.0 / k), atol=1e-12)

    def test_unit_likelihood_reproduces_plain_softmax_bitwise(self, rng):
        model = pinned_model(1.0)
        x = rng.normal(size=(100, 2))
        pred = model.predict(x)
        z = model.encoder.encode(x)
        plain = softmax(model.classifier.logits(z))
        np.testing.assert_array_equal(pred.probs, plain)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_argmax_matches_plain_softmax_for_any_scale(self, s):
        rng = np.random.default_rng(17)
        model = pinned_model(s)
        x = rng.normal(size=(20, 2))
        pred = model.predict(x)
        z = model.encoder.encode(x)
        plain = softmax(model.classifier.logits(z))
        np.testing.assert_array_equal(pred.probs.argmax(axis=1), plain.argmax(axis=1))
        assert np.all(pred.probs.max(axis=1) <= plain.max(axis=1) + 1e-15)

    def test_entropy_monotone_in_scale(self, rng):
        # scaling logits down always raises predictive entropy
        u = rng.normal(size=(1, 4))
        scales = [0.05, 0.2, 0.5, 0.9, 1.0]
        ents = [entropy(softmax(s * u))[0] for s in scales]
        assert np.all(np.diff(ents) < 0)


class TestPredictMechanics:
    def test_single_sample_and_batch_agree(self, rng):
        model = pinned_model(0.7)
        x = rng.normal(size=(5, 2))
        batch = model.predict(x)
        one = model.predict(x[2])
        np.testing.assert_allclose(one.probs[0], batch.probs[2], rtol=1e-12)

    def test_single_encoder_pass_per_sample(self, rng, monkeypatch):
        model = pinned_model(0.5)
        rows = count_forward_rows(monkeypatch, model.encoder.net)
        model.predict(rng.normal(size=(37, 2)))
        assert rows == [37]

    def test_prediction_on_simplex(self, rng):
        model = pinned_model(0.3)
        pred = model.predict(rng.normal(size=(10, 2)))
        np.testing.assert_allclose(pred.probs.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected_up_front(self, rng, bad):
        x = rng.normal(size=(5, 2))
        x[3, 1] = bad
        with pytest.raises(ValueError, match="input row 3 is not finite"):
            pinned_model(0.5).predict(x)

    @pytest.mark.parametrize("shape", [(0, 2), (1, 1, 2)])
    def test_bad_input_shape_rejected_up_front(self, shape):
        message = rf"input has shape \({shape[0]}, {shape[1]}"
        for model in (pinned_model(0.5), Ensemble([pinned_model(0.5, seed=s)
                                                  for s in (0, 1)])):
            with pytest.raises(ValueError, match=message):
                model.predict(np.zeros(shape))

    def test_latent_and_likelihood_exposed(self, rng):
        model = pinned_model(0.3)
        pred = model.predict(rng.normal(size=(4, 2)))
        assert pred.latent.shape == (4, 8)
        assert pred.scaled_likelihood.shape == (4,)


def tiny_flow_density() -> DensityConfig:
    return DensityConfig(kind="flow", flow=FlowConfig(epochs=5, batch_size=64,
                                                      coupling_layers=2))


def assert_huge_rows_floor(model: DensitySoftmaxModel, huge: float):
    # At 1e308 the row (huge, -huge) overflows the encoder itself, which
    # raises a latent error (test_latent_overflow_names_the_row); (huge, 0)
    # keeps a finite latent there.
    x = np.array([[0.5, 0.25], [huge, huge], [huge, -huge if huge < 1e308 else 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pred = model.predict(x)
    assert LIKELIHOOD_FLOOR < pred.scaled_likelihood[0] <= 1.0
    assert np.all(pred.scaled_likelihood[1:] == LIKELIHOOD_FLOOR)
    assert np.all(np.isfinite(pred.probs))
    np.testing.assert_allclose(pred.probs.sum(axis=1), 1.0, atol=1e-12)


class TestFarAndHugeRows:
    @pytest.fixture(scope="class")
    def trained(self):
        return small_pipeline(seed=2, reopt_epochs=1)[1]

    @pytest.fixture(scope="class")
    def flow_trained(self):
        return small_pipeline(seed=2, reopt_epochs=1, density=tiny_flow_density())[1]

    @pytest.mark.parametrize("huge", [1e160, 1e200, 1e300, 1e308])
    def test_huge_finite_row_floors_likelihood(self, trained, huge):
        assert_huge_rows_floor(trained.model, huge)

    @pytest.mark.parametrize("huge", [1e160, 1e200, 1e300, 1e308])
    def test_huge_finite_row_floors_flow_likelihood(self, flow_trained, huge):
        # the transform or ||t||^2 overflows in the flow's log-density; s
        # floors, no warning
        assert_huge_rows_floor(flow_trained.model, huge)

    def test_latent_overflow_names_the_row(self):
        model = pinned_model(0.5)
        model.encoder.net.layers[0].weight.data *= 1e300
        x = np.array([[0.5, 0.25], [1e10, 1e10]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="latent row 1 is not finite"):
                model.predict(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_erm_probs_rejects_non_finite_row(self, trained, bad):
        x = np.zeros((3, 2))
        x[1, 0] = bad
        with pytest.raises(ValueError, match="input row 1 is not finite"):
            trained.erm_model.predict(x)


class TestDistanceAwareness:
    """The paper's claim as a property: s falls monotonically along rays
    leaving the training data and reaches the floor far from it."""

    DISTANCES = np.array([3, 5, 10, 20, 50, 100])  # in train std

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["kde", "flow"])
    def test_s_falls_along_rays_from_the_train_mean(self, kind, seed):
        density = tiny_flow_density() if kind == "flow" else DensityConfig(kind="kde")
        train, result = small_pipeline(seed=seed, density=density)
        mean, std = train.features.mean(axis=0), train.features.std(axis=0)
        angles = 2 * np.pi * np.arange(16) / 16
        rays = np.column_stack([np.cos(angles), np.sin(angles)]) * std
        x = mean + self.DISTANCES[None, :, None] * rays[:, None, :]
        s = result.model.predict(x.reshape(-1, 2)).scaled_likelihood.reshape(16, -1)
        assert np.all(np.diff(s, axis=1) <= 0)
        assert np.all(s[:, -1] <= 1e-200)


class TestPipeline:
    def test_runs_end_to_end_and_freezes_encoder(self):
        train, result = small_pipeline(seed=0)
        model = result.model
        # encoder identical before/after steps 2-3: re-encode and compare to
        # the density support (built from step-1 latents)
        z = model.encoder.encode(train.features)
        np.testing.assert_array_equal(z, model.density.inner.support)

    def test_erm_snapshot_shares_encoder_but_not_head(self):
        train, result = small_pipeline(seed=1)
        assert result.erm_model.encoder is result.model.encoder
        assert result.erm_model.classifier is not result.model.classifier
        assert not np.array_equal(result.erm_model.classifier.theta.data,
                                  result.model.classifier.theta.data)

    def test_deterministic(self):
        _, r1 = small_pipeline(seed=2)
        _, r2 = small_pipeline(seed=2)
        np.testing.assert_array_equal(r1.model.classifier.theta.data,
                                      r2.model.classifier.theta.data)
        for p1, p2 in zip(r1.model.encoder.params(), r2.model.encoder.params()):
            np.testing.assert_array_equal(p1.data, p2.data)
        assert r1.model.density.max_train_log_density == \
            r2.model.density.max_train_log_density

    def test_reopt_loss_decreases(self):
        train, result = small_pipeline(seed=3, reopt_epochs=10)
        trace = result.reopt_loss_trace
        assert trace[-1] < trace[0]

    def test_flow_density_variant(self):
        train, result = small_pipeline(seed=4, density=tiny_flow_density())
        assert isinstance(result.model.density.inner, FlowModel)
        assert len(result.density_loss_trace) == 5

    def test_stage_failure_names_stage(self):
        train = make_two_moons(100, 0.1, seed=0)
        bad_train_cfg = TrainConfig(
            epochs=100, batch_size=64,
            optimizer=OptimizerSpec(kind="sgd_momentum", lr=1e9), seed=0)
        with np.errstate(all="ignore"), pytest.raises(PipelineError) as err:
            train_pipeline(train, SMALL, bad_train_cfg, DensityConfig(),
                           ReoptConfig(), k=2)
        assert err.value.stage == "erm"


class TestReoptimize:
    def test_zero_epochs_leaves_classifier(self):
        train, result = small_pipeline(seed=5, reopt_epochs=0)
        model = result.model
        np.testing.assert_array_equal(model.classifier.theta.data,
                                      result.erm_model.classifier.theta.data)

    def test_touches_only_the_classifier(self):
        train, result = small_pipeline(seed=6)
        model = result.model
        enc_before = [p.data.copy() for p in model.encoder.params()]
        scale_before = model.density.max_train_log_density
        reoptimize_classifier(model, train,
                              ReoptConfig(epochs=3, batch_size=64, seed=6))
        for p, b in zip(model.encoder.params(), enc_before):
            np.testing.assert_array_equal(p.data, b)
        assert model.density.max_train_log_density == scale_before

    def test_reinit_flag_restarts_head(self):
        train, result = small_pipeline(seed=7, reopt_epochs=0)
        model = result.model
        before = model.classifier.theta.data.copy()
        reoptimize_classifier(model, train,
                              ReoptConfig(epochs=0, reinit=True, seed=7))
        assert not np.array_equal(model.classifier.theta.data, before)

    def test_rejects_nontrain_domain(self):
        from density_softmax.data import DataError

        train, result = small_pipeline(seed=8, reopt_epochs=0)
        iid = make_two_moons(20, 0.1, seed=9, domain="iid_test")
        with pytest.raises(DataError):
            reoptimize_classifier(result.model, iid, ReoptConfig(epochs=1))


class TestSummaries:
    def test_uniform_binary_prediction(self):
        out = predictive_summaries(np.array([[0.5, 0.5]]), np.array([1.0]))
        assert out["variance"][0] == pytest.approx(0.25, abs=1e-15)
        assert out["u"][0] == pytest.approx(1.0, abs=1e-15)
        assert out["entropy_bits"][0] == pytest.approx(1.0, abs=1e-12)

    def test_confident_prediction(self):
        p = 1.0 - 1e-12
        out = predictive_summaries(np.array([[1.0 - p, p]]), np.array([1.0]))
        assert out["variance"][0] == pytest.approx(0.0, abs=1e-11)
        assert out["u"][0] == pytest.approx(0.0, abs=1e-11)

    def test_hand_values_at_p09(self):
        out = predictive_summaries(np.array([[0.1, 0.9]]), np.array([1.0]))
        assert out["u"][0] == pytest.approx(0.2, abs=1e-12)
        assert out["variance"][0] == pytest.approx(0.09, abs=1e-12)

    def test_binary_metrics_refused_for_k3(self):
        out = predictive_summaries(np.full((1, 3), 1 / 3), np.array([1.0]))
        assert "variance" not in out

    def test_nats_always_present(self):
        out = predictive_summaries(np.array([[0.25, 0.75]]), np.array([0.5]))
        assert out["entropy_nats"][0] == pytest.approx(
            -(0.25 * np.log(0.25) + 0.75 * np.log(0.75)), abs=1e-12)
