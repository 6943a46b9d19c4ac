"""Composite predictor: limiting behavior, pipeline stages, summaries."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from density_softmax.config import (DensityConfig, EncoderConfig, FlowConfig, OptimizerSpec,
                                    ReoptConfig, TrainConfig, build_datasets, parse_config)
from density_softmax.data import LabeledSet, make_two_moons
from density_softmax.density import (LIKELIHOOD_FLOOR, FlowModel, KdeModel, ScaledDensity,
                                     kde_fit)
from density_softmax.model import init_model
from density_softmax.ops import entropy, softmax
from density_softmax.predictor import (DensitySoftmaxModel, Ensemble, PipelineError,
                                       predictive_summaries, reoptimize_classifier,
                                       train_pipeline)

from conftest import assert_float32_exact, assert_own_float32, count_forward_rows

SMALL = EncoderConfig(width=8, depth=2)


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
    enc, clf = init_model(SMALL, 2, k, seed=seed)
    return DensitySoftmaxModel(encoder=enc, classifier=clf, density=_PinnedDensity(value))


def small_pipeline(seed=0, reopt_epochs=5, density=None):
    train = make_two_moons(100, 0.1, seed=seed)
    return train, train_pipeline(
        train,
        SMALL,
        TrainConfig(epochs=25, batch_size=64,
                    optimizer=OptimizerSpec(lr=3e-3), seed=seed),
        density or DensityConfig(kind="kde"),
        ReoptConfig(epochs=reopt_epochs, batch_size=64, lr=3e-3),
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


class TestDefaultConfigDistanceAwareness:
    """The default KDE model at seed 0 (trained once for the class).

    Near the support s is not monotone along a ray, since rays cross the
    moons, so s is held against each row's distance d to its nearest train
    latent. A KDE's log p lies within log n of the nearest kernel's, so
    log s = -d^2 / (2 h^2) + C with C in a window of width log n: s may not
    rise from one row to another whose d^2 is larger by 2 h^2 log n."""

    RADII = np.array([0.25, 0.5, 1, 1.5, 2, 3, 4, 5, 6, 7, 8, 10, 20, 50, 100])  # input sd
    OFFSETS = np.array([0.01, 0.03, 0.1, 0.3, 1, 3, 6, 7, 10])  # latent spread

    @pytest.fixture(scope="class")
    def probe(self):
        """Rows on 64 rays from the train mean in input space, and 64 train
        latents moved off the KDE's subspace, each with its s, its squared
        distance to the nearest train latent and how far out it was put, in
        train standard deviations."""
        cfg = parse_config({"dataset": {"generator": "two_moons"}})
        train = build_datasets(cfg)["train"]
        model = train_pipeline(train, cfg.encoder, cfg.train, cfg.density, cfg.reopt,
                               cfg.k).model
        rng = np.random.default_rng(0)
        angles = rng.uniform(0.0, 2 * np.pi, 64)
        rays = np.column_stack([np.cos(angles), np.sin(angles)]) * train.features.std(axis=0)
        x = train.features.mean(axis=0) + self.RADII[None, :, None] * rays[:, None, :]
        ray = model.predict(x.reshape(-1, 2))

        train_z = model.encoder.encode(train.features)
        kde = model.density.inner
        directions = kde.directions
        u = rng.normal(size=(64, kde.dim))
        u -= (u @ directions.T) @ directions
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        spread = np.sqrt(train_z.var(axis=0).sum())
        moved = (train_z[rng.integers(0, len(train_z), 64)][:, None, :]
                 + (self.OFFSETS[:, None] * spread * u[:, None, :])).reshape(-1, kde.dim)

        z = np.vstack([ray.latent, moved])
        sq = ((z * z).sum(axis=1)[:, None] - 2.0 * z @ train_z.T
              + (train_z * train_z).sum(axis=1)).min(axis=1)
        s = np.concatenate([ray.scaled_likelihood, model.density.scaled_likelihood(moved)])
        out = np.concatenate([np.tile(self.RADII, 64), np.tile(self.OFFSETS, 64)])
        return kde, s, np.maximum(sq, 0.0), out

    def test_s_does_not_rise_with_the_distance_to_the_train_latents(self, probe):
        kde, s, sq, _ = probe
        order = np.argsort(sq)
        sq, s = sq[order], s[order]
        margin = 2.0 * kde.bandwidth**2 * np.log(kde.support.shape[0])
        # row i against every row j with sq_j <= sq_i - margin: the nearer
        # rows' smallest s bounds s_i
        nearer = np.searchsorted(sq, sq - margin, side="right")
        smallest = np.minimum.accumulate(s)
        has = nearer > 0
        assert has.sum() > len(s) // 2
        assert np.all(s[has] <= smallest[nearer[has] - 1])

    def test_rows_beyond_6_train_sd_sit_at_the_floor(self, probe):
        _, s, _, out = probe
        assert np.all(s[out > 6] == LIKELIHOOD_FLOOR)
        assert np.all(s[out <= 0.03] > LIKELIHOOD_FLOOR)


class TestPipeline:
    def test_runs_end_to_end_and_freezes_encoder(self):
        train, result = small_pipeline(seed=0)
        model = result.model
        # encoder identical before/after steps 2-3: re-encode and compare to
        # the density support (the coordinates of the step-1 latents)
        z = model.encoder.encode(train.features)
        kde = model.density.inner
        np.testing.assert_array_equal(kde.mean, z.mean(axis=0))
        np.testing.assert_array_equal(np.einsum("nd,rd->nr", z - kde.mean, kde.directions),
                                      kde.support)

    def test_erm_snapshot_shares_encoder_but_not_head(self):
        train, result = small_pipeline(seed=1)
        assert result.erm_model.encoder is result.model.encoder
        assert result.erm_model.classifier is not result.model.classifier
        assert not np.array_equal(result.erm_model.classifier.theta.data,
                                  result.model.classifier.theta.data)

    def test_erm_weights_are_float32_exact_and_later_stages_float64(self):
        """ERM's encoder comes out as float32 arrays, which it serves in, and
        its head as a float64 array of float32 values; the re-optimized
        head, trained in float64, does not keep to float32, and the served
        latents and s are float64."""
        train, result = small_pipeline(seed=0)
        model = result.model
        assert_own_float32([p.data for p in model.encoder.params()])
        assert_float32_exact([result.erm_model.classifier.theta.data])
        theta = model.classifier.theta.data
        assert theta.dtype == np.float64
        assert not np.array_equal(theta.astype(np.float32).astype(np.float64), theta)
        pred = model.predict(train.features[:5])
        assert pred.latent.dtype == pred.scaled_likelihood.dtype == pred.probs.dtype == np.float64

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
        """The flow models the whitened principal coordinates of the train
        latents; the KDE too reads latent rows of the full width."""
        train, result = small_pipeline(seed=4, density=tiny_flow_density())
        density = result.model.density
        assert isinstance(density.inner, FlowModel)
        assert len(result.density_loss_trace) == 5
        z = result.model.encoder.encode(train.features)
        projection = density.inner.projection
        np.testing.assert_array_equal(projection.mean, z.mean(axis=0))
        assert density.inner.dim == projection.dim >= 2
        coords, _ = projection.project(z)
        np.testing.assert_allclose(coords.std(axis=0), 1.0, rtol=1e-12)
        kde = small_pipeline(seed=4)[1].model.density.inner
        assert isinstance(kde, KdeModel) and kde.dim == z.shape[1]

    @pytest.mark.parametrize("points", [1, 2])
    def test_latents_varying_along_fewer_than_two_directions_fail_the_density_stage(
            self, points):
        """Train rows at 1 or 2 distinct points give latents that vary along
        0 or 1 direction, too few for a coupling flow."""
        rows = np.array([[0.0, 0.0], [1.0, 0.5]])[np.arange(100) % points]
        train = LabeledSet(rows, np.arange(100) % 2, "train")
        with pytest.raises(PipelineError, match=f"vary along {points - 1} direction") as err:
            train_pipeline(train, SMALL, TrainConfig(epochs=2, batch_size=64),
                           tiny_flow_density(), ReoptConfig(epochs=1), k=2)
        assert err.value.stage == "density"

    def test_stage_failure_names_stage(self):
        train = make_two_moons(100, 0.1, seed=0)
        bad_train_cfg = TrainConfig(
            epochs=100, batch_size=64,
            optimizer=OptimizerSpec(lr=1e200), seed=0)
        with np.errstate(all="ignore"), pytest.raises(PipelineError) as err:
            train_pipeline(train, SMALL, bad_train_cfg, DensityConfig(),
                           ReoptConfig(), k=2)
        assert err.value.stage == "erm"


class TestBatchOneMatchesBatched:
    """On the default encoder and data (2 ERM epochs), a row predicted at
    batch 1 gets the bits of its latent in a batch: the encoder walks a
    1-row batch as two rows (ops.gemm_rows). Under a KDE, which walks its
    query so too, its s has the batched bits as well; a flow's s, and the
    probs through the head's 2-column product, are held to 1e-12."""

    @pytest.mark.parametrize("kind", ["kde", "flow"])
    def test_rows_at_batch_1(self, kind):
        cfg = parse_config({"seed": 0, "dataset": {"generator": "two_moons"},
                            "train": {"epochs": 2, "optimizer": {"lr": 1e-3}},
                            "density": {"kind": kind, "flow": {"epochs": 20}}})
        sets = build_datasets(cfg)
        model = train_pipeline(sets["train"], cfg.encoder, cfg.train, cfg.density, cfg.reopt,
                               cfg.k).model
        x = np.vstack([sets[tag].features[:50] for tag in ("iid_test", "shifted_3",
                                                           "shifted_5", "ood")])
        batched = model.predict(x)
        for i, row in enumerate(x):
            one = model.predict(row)
            np.testing.assert_array_equal(one.latent[0], batched.latent[i])
            if kind == "kde":
                assert one.scaled_likelihood[0] == batched.scaled_likelihood[i]
            else:
                assert one.scaled_likelihood[0] == pytest.approx(batched.scaled_likelihood[i],
                                                                 rel=1e-12)
            np.testing.assert_allclose(one.probs[0], batched.probs[i], rtol=0, atol=1e-12)


class TestTrainScale:
    """The densest train row scores exactly 1 when the train latents are
    scored again in the 128-row batches of the benchmark's check (under a
    flow a batch-1 call may differ in the last bits; see compute_scale)."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", ["kde", "flow"])
    def test_max_s_is_one_in_128_row_batches(self, kind, seed):
        cfg = parse_config({"seed": seed, "dataset": {"generator": "two_moons"},
                            "train": {"epochs": 2, "optimizer": {"lr": 1e-3}},
                            "density": {"kind": kind, "flow": {"epochs": 20}}})
        train = build_datasets(cfg)["train"]
        model = train_pipeline(train, cfg.encoder, cfg.train, cfg.density, cfg.reopt,
                               cfg.k).model
        z = model.encoder.encode(train.features)
        assert max(model.density.scaled_likelihood(z[i:i + 128]).max()
                   for i in range(0, len(z), 128)) == 1.0


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
        z = model.encoder.encode(train.features)
        reoptimize_classifier(model.classifier, train, z, model.density.scaled_likelihood(z),
                              ReoptConfig(epochs=3, batch_size=64), 6)
        for p, b in zip(model.encoder.params(), enc_before):
            np.testing.assert_array_equal(p.data, b)
        assert model.density.max_train_log_density == scale_before

    def test_rejects_nontrain_domain(self):
        from density_softmax.data import DataError

        train, result = small_pipeline(seed=8, reopt_epochs=0)
        iid = make_two_moons(20, 0.1, seed=9, domain="iid_test")
        z = result.model.encoder.encode(iid.features)
        s = result.model.density.scaled_likelihood(z)
        with pytest.raises(DataError):
            reoptimize_classifier(result.model.classifier, iid, z, s, ReoptConfig(epochs=1), 0)


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
