"""Density estimators: KDE oracle checks, flow bijectivity/log-det/quadrature,
MLE fitting, and likelihood scaling."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from kde_reference import kde_log_density

from density_softmax.density import (FLOW_CHUNK_ROWS, LIKELIHOOD_FLOOR, CouplingLayer,
                                     FlowConfig, FlowModel, KdeModel, ScaledDensity,
                                     chunk_bounds, compute_scale, flow_fit, kde_fit,
                                     scott_bandwidth)
from density_softmax.layers import Dense, DenseNet
from density_softmax.model import TrainingDiverged


def brute_force_kde_logpdf(support, bandwidth, queries):
    """Double-loop oracle for the Gaussian KDE log-density."""
    n, d = support.shape
    out = []
    for q in queries:
        total = 0.0
        for s in support:
            sq = float(((q - s) ** 2).sum())
            total += math.exp(-sq / (2 * bandwidth**2)) / (
                n * (bandwidth * math.sqrt(2 * math.pi)) ** d)
        out.append(math.log(total))
    return np.array(out)


class TestKde:
    def test_single_point_support_is_gaussian_pdf(self):
        z0 = np.array([[1.0, -2.0]])
        kde = kde_fit(z0, bandwidth=0.7)
        q = np.array([[1.5, -2.5]])
        sq = float(((q - z0) ** 2).sum())
        expected = -sq / (2 * 0.7**2) - 2 * math.log(0.7) - math.log(2 * math.pi)
        assert kde.log_density(q)[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force(self, rng):
        support = rng.normal(size=(40, 3))
        kde = kde_fit(support, bandwidth=0.5)
        queries = rng.normal(size=(10, 3)) * 2
        fast = kde.log_density(queries)
        slow = brute_force_kde_logpdf(support, 0.5, queries)
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_bad_bandwidth_rejected(self, rng):
        with pytest.raises(ValueError):
            kde_fit(rng.normal(size=(5, 2)), bandwidth=0.0)
        with pytest.raises(ValueError):
            kde_fit(rng.normal(size=(5, 2)), bandwidth=-1.0)

    def test_scott_default(self, rng):
        z = rng.normal(size=(100, 4))
        kde = kde_fit(z)
        assert kde.bandwidth == pytest.approx(scott_bandwidth(z))
        assert kde.bandwidth > 0

    def test_density_integrates_to_one_2d(self, rng):
        kde = kde_fit(rng.normal(size=(30, 2)) * 0.5, bandwidth=0.4)
        xs = np.arange(-8.0, 8.0 + 1e-9, 0.05)
        grid = np.array([[x, y] for y in xs for x in xs])
        dens = np.exp(kde.log_density(grid)).reshape(len(xs), len(xs))
        mass = np.trapezoid(np.trapezoid(dens, xs, axis=1), xs)
        assert 0.95 <= mass <= 1.05


def latent_like(rng, rows: int, d: int = 128) -> np.ndarray:
    """Rows shaped like encoder latents: a few clusters plus far stragglers."""
    centers = rng.normal(size=(4, d)) * 3.0
    z = centers[rng.integers(0, 4, rows)] + rng.normal(size=(rows, d))
    z[::17] *= 4.0
    return z


class TestKdeChunkedKernel:
    """log_density walks the queries in chunks through one reused buffer;
    kde_reference keeps the one-shot n x N expansion it replaced."""

    @pytest.fixture(scope="class")
    def kde_and_queries(self):
        # a bandwidth under Scott's (~3.4 here) so last-bit differences in
        # the distances survive into the log-density
        rng = np.random.default_rng(5)
        return kde_fit(latent_like(rng, 1000), bandwidth=1.5), latent_like(rng, 4000)

    @pytest.mark.parametrize("rows", [2, 127, 128, 129, 257, 1000, 1025])
    def test_bitwise_equal_to_one_shot_reference(self, kde_and_queries, rows):
        kde, queries = kde_and_queries
        z = queries[:rows]
        np.testing.assert_array_equal(
            kde.log_density(z), kde_log_density(kde.support, kde.bandwidth, z))

    def test_single_row_matches_reference(self, kde_and_queries):
        kde, queries = kde_and_queries
        for row in queries[:50]:
            np.testing.assert_allclose(
                kde.log_density(row),
                kde_log_density(kde.support, kde.bandwidth, row), rtol=1e-12)

    def test_train_max_is_exactly_one_under_compute_scale_batching(self):
        train_z = latent_like(np.random.default_rng(6), 1000)
        sd = compute_scale(kde_fit(train_z), train_z)
        assert sd.scaled_likelihood(train_z).max() == 1.0
        batched = [sd.scaled_likelihood(train_z[i:i + 128]).max()
                   for i in range(0, 1000, 128)]
        assert max(batched) == 1.0

    def test_temporaries_do_not_grow_with_batch(self, kde_and_queries):
        kde, queries = kde_and_queries

        def peak(rows):
            tracemalloc.start()
            try:
                kde.log_density(queries[:rows])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4000) < 2 * peak(1000)

    def test_support_norms_cached_read_only_not_in_repr(self, rng):
        z = rng.normal(size=(20, 3))
        kde = kde_fit(z, 0.5)
        np.testing.assert_array_equal(kde.support_sq, (z * z).sum(axis=1))
        assert not kde.support.flags.writeable
        assert not kde.support_sq.flags.writeable
        assert z.flags.writeable  # the caller's array is copied, not frozen
        assert "support_sq" not in repr(kde)

    @pytest.mark.parametrize("huge", [1e160, 1e200])
    def test_huge_row_has_minus_inf_log_density(self, rng, huge):
        kde = kde_fit(rng.normal(size=(50, 4)), 0.5)
        z = np.array([[0.1, 0.0, 0.0, 0.0], [huge] * 4, [huge, -huge, huge, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logp = kde.log_density(z)
            s = compute_scale(kde, kde.support).scaled_likelihood(z)
        assert np.isfinite(logp[0])
        assert np.all(logp[1:] == -np.inf)
        assert np.all(s[1:] == LIKELIHOOD_FLOOR)

    def test_every_kernel_underflowing_floors(self):
        # ||z - s||^2 is finite but its ratio to 2h^2 overflows
        kde = kde_fit(np.zeros((3, 2)), bandwidth=1e-160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sd = compute_scale(kde, kde.support)
            assert kde.log_density([[1.0, 0.0]])[0] == -np.inf
            assert sd.scaled_likelihood([[1.0, 0.0]])[0] == LIKELIHOOD_FLOOR


def identity_flow(dim=2, layers=4) -> FlowModel:
    """Zero subnets leave every coupling layer as the identity map."""
    flow = FlowModel.build(dim, FlowConfig(coupling_layers=layers, seed=0))
    for p in flow.params():
        p.data[...] = 0.0
    return flow


def randomized_flow(dim, seed=0, scale=0.5) -> FlowModel:
    """A flow with non-trivial random subnets (not fitted to anything)."""
    rng = np.random.default_rng(seed)
    flow = FlowModel.build(dim, FlowConfig(coupling_layers=4, seed=seed))
    for layer in flow.layers:
        final = layer.net.layers[-1]  # stacked: the s-net's slot, then the t-net's
        final.weight.data[...] = rng.normal(size=final.weight.data.shape) * scale
    return flow


def numeric_log_det(flow: FlowModel, z: np.ndarray, h: float = 1e-5) -> float:
    """log|det J| of the forward map via central-difference Jacobian columns."""
    d = z.shape[0]
    jac = np.zeros((d, d))
    for j in range(d):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        tp, _ = flow.forward(zp[None, :])
        tm, _ = flow.forward(zm[None, :])
        jac[:, j] = (tp[0] - tm[0]) / (2 * h)
    sign, logdet = np.linalg.slogdet(jac)
    assert sign > 0
    return float(logdet)


class TestFlowStructure:
    def test_identity_flow_is_identity(self, rng):
        flow = identity_flow()
        z = rng.normal(size=(20, 2))
        t, log_det = flow.forward(z)
        np.testing.assert_array_equal(t, z)
        np.testing.assert_array_equal(log_det, np.zeros(20))

    def test_identity_flow_log_density_at_origin(self):
        flow = identity_flow(dim=2)
        val = flow.log_density(np.zeros((1, 2)))[0]
        assert val == pytest.approx(math.log(1 / (2 * math.pi)), abs=1e-12)

    def test_identity_flow_density_decreases_with_radius(self):
        flow = identity_flow(dim=2)
        radii = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
        vals = flow.log_density(np.column_stack([radii, np.zeros(5)]))
        assert np.all(np.diff(vals) < 0)

    def test_masks_alternate_and_are_binary(self):
        flow = FlowModel.build(4, FlowConfig(coupling_layers=4, seed=0))
        m0, m1 = flow.layers[0].mask, flow.layers[1].mask
        np.testing.assert_array_equal(m0, [1, 1, 0, 0])
        np.testing.assert_array_equal(m1, [0, 0, 1, 1])
        np.testing.assert_array_equal(flow.layers[2].mask, m0)

    def test_fresh_flow_starts_as_identity(self, rng):
        # zero-initialized output projections make the initial fit stable
        flow = FlowModel.build(3, FlowConfig(seed=1))
        z = rng.normal(size=(10, 3))
        t, log_det = flow.forward(z)
        np.testing.assert_array_equal(t, z)
        np.testing.assert_array_equal(log_det, np.zeros(10))

    def test_bad_mask_rejected(self):
        from density_softmax.density import CouplingLayer

        flow = FlowModel.build(2, FlowConfig(seed=0))
        layer = flow.layers[0]
        with pytest.raises(ValueError):
            CouplingLayer(mask=np.array([1.0, 1.0]), s_net=layer.s_net,
                          t_net=layer.t_net)
        # forward works in place on the subnets' outputs, which an empty
        # subnet would alias to its input
        with pytest.raises(ValueError, match="at least one layer"):
            CouplingLayer(mask=layer.mask, s_net=DenseNet([]), t_net=layer.t_net)

    def test_split_contract_rejected(self):
        layer = FlowModel.build(4, FlowConfig(seed=0)).layers[0]
        with pytest.raises(ValueError, match="must be a prefix or a suffix"):
            CouplingLayer(mask=np.array([1.0, 0.0, 1.0, 0.0]), s_net=layer.s_net,
                          t_net=layer.t_net)
        rng = np.random.default_rng(0)
        wide = DenseNet([Dense.init(rng, 5, 3), Dense.init(rng, 3, 4)])
        with pytest.raises(ValueError, match="t_net maps 5 -> 4 columns, the mask has length 4"):
            CouplingLayer(mask=layer.mask, s_net=layer.s_net, t_net=wide)
        looped = DenseNet([Dense.init(rng, 4, 4, residual=True), Dense.init(rng, 4, 4)])
        with pytest.raises(ValueError, match="s_net first and last layers must not be residual"):
            CouplingLayer(mask=layer.mask, s_net=looped, t_net=layer.t_net)

    def test_subnets_are_read_only_views_of_the_stack(self):
        layer = FlowModel.build(4, FlowConfig(seed=0)).layers[0]
        for slot, net in enumerate((layer.s_net, layer.t_net)):
            for dense, stacked in zip(net.layers, layer.net.layers):
                assert np.shares_memory(dense.weight.data, stacked.weight.data)
                np.testing.assert_array_equal(dense.weight.data, stacked.weight.data[slot])
                np.testing.assert_array_equal(dense.bias.data, stacked.bias.data[slot, 0])
                with pytest.raises(ValueError, match="read-only"):
                    dense.weight.data[...] = 0.0
        assert (layer.s_net.layers[-1].activation, layer.t_net.layers[-1].activation) == \
            ("tanh", "linear")
        assert [p.data.shape for p in layer.params()][:2] == [(2, 4, 16), (2, 1, 16)]

    def test_subnets_of_other_shapes_rejected(self):
        layer = FlowModel.build(4, FlowConfig(hidden_layers=1, seed=0)).layers[0]
        rng = np.random.default_rng(0)
        deeper = DenseNet([Dense.init(rng, 4, 16), Dense.init(rng, 16, 16),
                           Dense.init(rng, 16, 4)])
        with pytest.raises(ValueError, match="s_net has 2 layers, t_net has 3"):
            CouplingLayer(mask=layer.mask, s_net=layer.s_net, t_net=deeper)
        narrower = DenseNet([Dense.init(rng, 4, 8), Dense.init(rng, 8, 4)])
        with pytest.raises(ValueError, match="s_net and t_net differ in layer 0"):
            CouplingLayer(mask=layer.mask, s_net=layer.s_net, t_net=narrower)

    def test_suffix_mask_passes_trailing_columns(self, rng):
        layer = FlowModel.build(5, FlowConfig(seed=0)).layers[1]  # mask 0 0 1 1 1
        assert (layer.p_cols, layer.t_cols) == (slice(2, 5), slice(0, 2))
        z = rng.normal(size=(4, 5))
        t, _ = FlowModel(5, [layer]).forward(z)
        np.testing.assert_array_equal(t[:, 2:], z[:, 2:])


class TestFlowChunks:
    def test_chunk_bounds_fold_a_one_row_tail(self):
        assert chunk_bounds(1, 256) == [0, 1]
        assert chunk_bounds(256, 256) == [0, 256]
        assert chunk_bounds(257, 256) == [0, 257]
        assert chunk_bounds(258, 256) == [0, 256, 258]
        assert chunk_bounds(513, 256) == [0, 256, 513]

    @pytest.mark.parametrize("rows", [1, FLOW_CHUNK_ROWS - 1, FLOW_CHUNK_ROWS,
                                      FLOW_CHUNK_ROWS + 1, 1000, 1025])
    def test_chunked_log_density_equals_one_shot_pass(self, rows):
        flow = randomized_flow(128, seed=4, scale=0.1)
        z = np.random.default_rng(rows).normal(size=(rows, 128))
        t, log_det = flow.forward(z)
        one_shot = -0.5 * (t * t).sum(axis=1) - 0.5 * 128 * math.log(2 * math.pi) + log_det
        np.testing.assert_array_equal(flow.log_density(z), one_shot)


class TestFlowBijectivity:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_inverse_forward_identity(self, dim, rng):
        flow = randomized_flow(dim, seed=dim)
        z = rng.normal(size=(1000, dim)) * 2.0
        t, _ = flow.forward(z)
        back = flow.inverse(t)
        assert np.abs(back - z).max() < 1e-8

    @pytest.mark.parametrize("dim", [2, 4])
    def test_log_det_matches_numeric_jacobian(self, dim, rng):
        flow = randomized_flow(dim, seed=10 + dim)
        for _ in range(5):
            z = rng.normal(size=dim)
            _, analytic = flow.forward(z[None, :])
            assert analytic[0] == pytest.approx(numeric_log_det(flow, z), abs=1e-4)

    def test_in_place_forward_matches_training_forward(self, rng):
        flow = randomized_flow(4, seed=3)
        z = rng.normal(size=(7, 4))
        for layer in flow.layers:
            zp, zt = z[:, layer.p_cols], z[:, layer.t_cols]
            before = z.copy()
            caches = []
            t_t, s = layer.forward(zp, zt)
            t_cached, s_cached = layer.forward(zp, zt, caches)
            np.testing.assert_array_equal(t_t, t_cached)
            np.testing.assert_array_equal(s, s_cached)
            assert len(caches) == 1
            np.testing.assert_array_equal(z, before)
            z = z.copy()
            z[:, layer.t_cols] = t_t

    def test_tape_forward_matches_numpy_forward(self, rng):
        flow = randomized_flow(3, seed=2)
        z = rng.normal(size=(6, 3))
        t_np, log_det_np = flow.forward(z)
        loss = flow.nll_loss(z, l2=0.0)
        expected = float(np.mean(0.5 * (t_np**2).sum(axis=1) - log_det_np)
                         + 0.5 * 3 * math.log(2 * math.pi))
        assert loss.data == pytest.approx(expected, rel=1e-12)


class TestFlowQuadrature:
    def grid_mass(self, flow: FlowModel) -> float:
        xs = np.arange(-8.0, 8.0 + 1e-9, 0.05)
        grid = np.array([[x, y] for y in xs for x in xs])
        dens = np.exp(flow.log_density(grid)).reshape(len(xs), len(xs))
        return float(np.trapezoid(np.trapezoid(dens, xs, axis=1), xs))

    def test_identity_flow_mass(self):
        assert 0.95 <= self.grid_mass(identity_flow(dim=2)) <= 1.05

    def test_random_flow_mass(self):
        assert 0.95 <= self.grid_mass(randomized_flow(2, seed=3, scale=0.3)) <= 1.05


class TestFlowFit:
    def test_gaussian_data_reaches_analytic_optimum(self, rng):
        # best possible mean log-density for N(0, I) data is -d/2 * log(2*pi*e)
        d = 2
        z = rng.standard_normal((512, d))
        flow, trace = flow_fit(z, FlowConfig(epochs=60, batch_size=128, l2=0.0,
                                             lr=1e-2,
                                             seed=0))
        mean_logp = float(flow.log_density(z).mean())
        optimum = -d / 2 * math.log(2 * math.pi * math.e)
        assert mean_logp > optimum - 0.2
        assert trace[-1] < trace[0]

    def test_mean_log_density_improves_from_init(self, rng):
        z = rng.standard_normal((256, 2)) * 0.3 + 1.5
        init_logp = float(identity_flow(2).log_density(z).mean())
        flow, _ = flow_fit(z, FlowConfig(epochs=40, batch_size=64, l2=0.0,
                                         lr=1e-2,
                                         seed=1))
        assert float(flow.log_density(z).mean()) > init_logp

    def test_zero_epochs_returns_identity_init(self, rng):
        z = rng.standard_normal((128, 2))
        flow, trace = flow_fit(z, FlowConfig(epochs=0, seed=0))
        assert trace == []
        t, log_det = flow.forward(z)
        np.testing.assert_array_equal(t, z)

    def test_too_few_rows_rejected(self, rng):
        with pytest.raises(ValueError):
            flow_fit(rng.standard_normal((10, 2)), FlowConfig(batch_size=128))

    def test_divergence_raises(self, rng):
        # The flow trains with Adam, whose step is bounded by the learning
        # rate; rows of norm ~1e150 give a finite first loss (~1e300) whose
        # gradient overflows, so the second step's loss is not finite.
        z = rng.standard_normal((128, 2)) * 1e150
        cfg = FlowConfig(epochs=500, batch_size=128, l2=0.0, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
            flow_fit(z, cfg)
        err = info.value
        assert (err.stage, err.epoch, err.batch) == ("flow", 1, 0)
        assert np.isfinite(err.last_finite_loss)
        assert str(err).startswith(
            f"non-finite flow loss at epoch 1, batch 0 (last finite loss "
            f"{err.last_finite_loss})")


class TestScaling:
    def test_argmax_train_point_scales_to_one(self, rng):
        z = rng.normal(size=(50, 2))
        sd = compute_scale(kde_fit(z, 0.5), z)
        scaled = sd.scaled_likelihood(z)
        assert scaled.max() == pytest.approx(1.0, abs=1e-12)
        assert np.all(scaled <= 1.0)
        assert np.all(scaled > 0.0)

    def test_streaming_max_matches_global_max(self, rng):
        z = rng.normal(size=(333, 2))
        kde = kde_fit(z, 0.5)
        sd = compute_scale(kde, z, batch_size=100)
        assert sd.max_train_log_density == pytest.approx(
            float(kde.log_density(z).max()), abs=0)

    def test_far_point_is_tiny_but_positive(self):
        flow = identity_flow(dim=2)
        sd = compute_scale(flow, np.zeros((10, 2)))
        far = np.array([[20.0, 0.0]])  # log-density gap of -200 nats
        val = sd.scaled_likelihood(far)[0]
        assert 0.0 < val < 1e-80

    def test_underflow_maps_to_smallest_positive_normal(self):
        flow = identity_flow(dim=2)
        sd = compute_scale(flow, np.zeros((10, 2)))
        very_far = np.array([[60.0, 0.0]])  # gap of -1800 nats: exp underflows
        assert sd.scaled_likelihood(very_far)[0] == LIKELIHOOD_FLOOR

    def test_denser_than_train_clamps_to_one(self):
        flow = identity_flow(dim=2)
        ring = np.column_stack([np.full(8, 3.0), np.zeros(8)])
        sd = compute_scale(flow, ring)
        assert sd.scaled_likelihood(np.zeros((1, 2)))[0] == 1.0

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            compute_scale(identity_flow(2), np.zeros((0, 2)))

    def test_intermediate_point_in_open_interval(self, rng):
        z = rng.normal(size=(100, 2))
        sd = compute_scale(kde_fit(z, 0.3), z)
        vals = sd.scaled_likelihood(z + 0.5)
        assert np.all((vals > 0) & (vals <= 1))

    def test_scaled_density_param_count(self, rng):
        z = rng.normal(size=(20, 3))
        sd = compute_scale(kde_fit(z, 0.5), z)
        assert sd.param_count() == 20 * 3 + 1 + 1
