"""Density estimators: KDE oracle checks, flow bijectivity/log-det/quadrature,
MLE fitting, and likelihood scaling."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from conftest import identity_projection
from hypothesis import strategies as st
from kde_reference import full_space_log_density, kde_log_density

from density_softmax.autodiff import Tensor
from density_softmax.config import FlowConfig
from density_softmax.density import (FINAL, KDE_CHUNK_ROWS,
                                     KDE_LOG_KERNEL_FLOOR, KDE_VARIANCE_KEPT,
                                     LIKELIHOOD_FLOOR, LOG_2PI, PROJECTION_VARIANCE_KEPT,
                                     CouplingLayer, CouplingWorkspace, FlowModel, FlowWorkspace,
                                     KdeModel, LatentProjection, chunk_bounds, compute_scale,
                                     _principal_axes, coupling_net, fit_projection, flow_fit,
                                     halves, kde_fit, scott_bandwidth)
from density_softmax.layers import Dense, DenseNet, fan_in_uniform
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
        for bandwidth in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
                kde_fit(rng.normal(size=(5, 2)), bandwidth=bandwidth)

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

    @pytest.mark.parametrize("bandwidth", [None, 0.5])
    def test_support_in_a_subspace_matches_the_full_space_kde(self, rng, bandwidth):
        """Latents in a 3-dim affine subspace of 16 dims: the projected KDE
        keeps 3 directions and equals the full-space KDE, on the subspace
        and off it, since ||z - s||^2 = ||c - c_s||^2 + ||residual||^2."""
        basis = np.linalg.qr(rng.normal(size=(16, 16)))[0][:3]
        shift = rng.normal(size=16)
        support = shift + (rng.normal(size=(300, 3)) * [3.0, 1.0, 0.3]) @ basis
        on = shift + (rng.normal(size=(40, 3)) * 2.0) @ basis
        off = on + rng.normal(size=(40, 16)) * 0.5
        kde = kde_fit(support, bandwidth)
        assert kde.directions.shape == (3, 16) and kde.dim == 16
        h = scott_bandwidth(support) if bandwidth is None else bandwidth
        assert kde.bandwidth == h
        for z in (on, off, support[:50]):
            np.testing.assert_allclose(kde.log_density(z),
                                       full_space_log_density(support, h, z),
                                       rtol=0, atol=1e-10)

    def test_keeps_the_fewest_directions_holding_the_variance_share(self, rng):
        z = (rng.normal(size=(500, 6)) * [5.0, 2.0, 0.5, 0.1, 0.01, 0.001]
             ) @ np.linalg.qr(rng.normal(size=(6, 6)))[0]
        kde = kde_fit(z)
        power = np.linalg.svd(z - z.mean(axis=0), compute_uv=False) ** 2
        share = np.cumsum(power) / power.sum()
        r = kde.directions.shape[0]
        assert share[r - 1] >= KDE_VARIANCE_KEPT > share[r - 2]
        np.testing.assert_allclose(kde.directions @ kde.directions.T, np.eye(r),
                                   rtol=0, atol=1e-12)
        assert kde.support.shape == (500, r)

    def test_rows_at_one_point_keep_one_direction(self):
        kde = kde_fit(np.ones((4, 3)), bandwidth=0.5)
        assert kde.directions.shape == (1, 3)
        assert kde.log_density(np.ones(3))[0] == pytest.approx(
            -3 * math.log(0.5) - 1.5 * math.log(2 * math.pi), abs=1e-12)

    def test_param_count_of_the_default_shape(self):
        """1000 train rows of a 128-d latent on 17 coordinates: the
        support, the mean, the directions and the bandwidth. The support was
        128,000 numbers."""
        kde = KdeModel(np.zeros(128), np.eye(128)[:17], np.zeros((1000, 17)), 1.0)
        assert kde.param_count() == 17_000 + 128 + 17 * 128 + 1 == 19_305

    @pytest.mark.parametrize("mean, directions, support, needs", [
        (4, (2, 4), (5, 3), (3, 4)), (4, (2, 3), (5, 2), (2, 4)), (3, (2, 4), (5, 2), (2, 3)),
    ], ids=["support_width", "directions_width", "mean_width"])
    def test_directions_that_do_not_fit_the_mean_and_support_rejected(
            self, mean, directions, support, needs):
        message = (f"kde directions have shape {directions}; a support of shape {support} "
                   f"over a {mean}-d mean needs {needs}")
        with pytest.raises(ValueError, match=re.escape(message)):
            KdeModel(np.zeros(mean), np.eye(4)[:directions[0], :directions[1]],
                     np.zeros(support), 1.0)


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
            kde.log_density(z), kde_log_density(kde, z))

    def test_single_row_matches_reference(self, kde_and_queries):
        kde, queries = kde_and_queries
        for row in queries[:50]:
            np.testing.assert_allclose(
                kde.log_density(row), kde_log_density(kde, row), rtol=1e-12)

    def test_train_max_is_exactly_one_under_compute_scale_batching(self):
        train_z = latent_like(np.random.default_rng(6), 1000)
        sd, train_s = compute_scale(kde_fit(train_z), train_z)
        np.testing.assert_array_equal(train_s, sd.scaled_likelihood(train_z))
        assert train_s.max() == 1.0
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
        v = kde.support / 0.5
        np.testing.assert_array_equal(kde.augmented[:, :-1], v)
        np.testing.assert_array_equal(kde.augmented[:, -1], -0.5 * (v * v).sum(axis=1))
        assert not kde.support.flags.writeable
        assert not kde.augmented.flags.writeable
        assert z.flags.writeable  # the caller's array is copied, not frozen
        assert "augmented" not in repr(kde)

    @pytest.mark.parametrize("huge", [1e160, 1e200])
    def test_huge_row_has_minus_inf_log_density(self, rng, huge):
        kde = kde_fit(rng.normal(size=(50, 4)), 0.5)
        z = np.array([[0.1, 0.0, 0.0, 0.0], [huge] * 4, [huge, -huge, huge, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logp = kde.log_density(z)
            s = compute_scale(kde, kde.support)[0].scaled_likelihood(z)
        assert np.isfinite(logp[0])
        assert np.all(logp[1:] == -np.inf)
        assert np.all(s[1:] == LIKELIHOOD_FLOOR)

    def test_every_kernel_underflowing_floors(self):
        # ||z - s||^2 is finite but its ratio to 2h^2 overflows
        kde = kde_fit(np.zeros((3, 2)), bandwidth=1e-160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sd, _ = compute_scale(kde, np.zeros((3, 2)))
            assert kde.log_density([[1.0, 0.0]])[0] == -np.inf
            assert sd.scaled_likelihood([[1.0, 0.0]])[0] == LIKELIHOOD_FLOOR


# Where a band's max-shifted log-kernels lie: e^t is subnormal, exactly 0,
# or any of those and normal.
LOG_KERNEL_BANDS = {"subnormal": (-745.0, -709.0), "zero": (-1500.0, -745.0),
                    "mixed": (-1500.0, 0.0)}


def chunkwise_reference(kde, z):
    """kde_reference over each chunk of KdeModel.log_density. At a latent
    width of a few dims OpenBLAS's gemm gives a row other last bits in
    another row block, so a one-shot product is no oracle there."""
    bounds = chunk_bounds(len(z), KDE_CHUNK_ROWS)
    return np.concatenate([kde_log_density(kde, z[lo:hi])
                           for lo, hi in zip(bounds, bounds[1:])])


class TestKdeLogKernelFloor:
    """log_density raises the shifted log-kernels to KDE_LOG_KERNEL_FLOOR
    before the exp; the unfloored kde_reference must still agree bit for
    bit where the kernels underflow."""

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
           bandwidth=st.floats(0.05, 5.0), n=st.integers(2, 300),
           band=st.sampled_from(sorted(LOG_KERNEL_BANDS)),
           rows=st.sampled_from([1, 2, 127, 128, 129, 257]))
    @settings(max_examples=60, deadline=None)
    @example(seed=1, d=2, bandwidth=1.0, n=300, band="mixed", rows=257)
    def test_bitwise_equal_to_unfloored_reference(self, seed, d, bandwidth, n, band, rows):
        """Support row 0 sits at c and the others in random directions at
        the distance that puts their shifted log-kernel, seen from c, at a
        uniform draw from the band; the queries scatter within 0.01 h of c.
        In the subnormal and zero bands every kernel but the nearest
        underflows."""
        lo, hi = LOG_KERNEL_BANDS[band]
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(n - 1, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        radius = bandwidth * np.sqrt(-2.0 * rng.uniform(lo, hi, n - 1))
        c = rng.normal(size=d) * 3.0
        support = c + np.vstack([np.zeros(d), u * radius[:, None]])
        queries = c + rng.normal(size=(rows, d)) * 0.01 * bandwidth
        shifted = -((queries[:, None, :] - support) ** 2).sum(axis=2) / (2 * bandwidth**2)
        shifted -= shifted.max(axis=1, keepdims=True)
        if band != "mixed":
            assert np.all(shifted[:, 1:] < KDE_LOG_KERNEL_FLOOR)

        kde = kde_fit(support, bandwidth)
        np.testing.assert_array_equal(kde.log_density(queries),
                                      chunkwise_reference(kde, queries))
        np.testing.assert_array_equal(kde.log_density(queries[0]),
                                      kde_log_density(kde, queries[0]))
        sd, train_s = compute_scale(kde, support)
        np.testing.assert_array_equal(kde.log_density(support),
                                      chunkwise_reference(kde, support))
        assert sd.scaled_likelihood(support).max() == 1.0
        np.testing.assert_array_equal(train_s, sd.scaled_likelihood(support))


def identity_flow(dim=2, layers=4, projection=None) -> FlowModel:
    """Zero subnets leave every coupling layer as the identity map. The
    projection defaults to the identity of a dim-wide latent."""
    if projection is None:
        projection = identity_projection(dim)
    flow = FlowModel.build(projection, FlowConfig(coupling_layers=layers), 0)
    for p in flow.params():
        p.data[...] = 0.0
    return flow


def randomized_flow(dim, seed=0, scale=0.5, projection=None) -> FlowModel:
    """A flow with non-trivial random subnets (not fitted to anything). The
    projection defaults to the identity of a dim-wide latent."""
    rng = np.random.default_rng(seed)
    if projection is None:
        projection = identity_projection(dim)
    flow = FlowModel.build(projection, FlowConfig(coupling_layers=4), seed)
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
        """The pass-through mask each layer's halves stand for: ones on P."""
        assert halves(5, 0) == (slice(0, 2), slice(2, 5))
        assert halves(5, 1) == (slice(2, 5), slice(0, 2))
        flow = FlowModel.build(identity_projection(4), FlowConfig(coupling_layers=4), 0)
        masks = np.zeros((4, 4))
        for i, layer in enumerate(flow.layers):
            assert (layer.p_cols, layer.t_cols) == halves(4, i)
            masks[i, layer.p_cols] = 1.0
        np.testing.assert_array_equal(masks, [[1, 1, 0, 0], [0, 0, 1, 1]] * 2)

    def test_fresh_flow_starts_as_identity(self, rng):
        # zero-initialized output projections make the initial fit stable
        flow = FlowModel.build(identity_projection(3), FlowConfig(), 1)
        z = rng.normal(size=(10, 3))
        t, log_det = flow.forward(z)
        np.testing.assert_array_equal(t, z)
        np.testing.assert_array_equal(log_det, np.zeros(10))

    def test_build_draws_the_s_net_then_the_t_net(self):
        """Per coupling layer, build draws every hidden weight of the s-net,
        then the t-net's, from one generator; the first matrix is drawn over
        all 5 input rows and keeps the rows P. The last layers (|T| columns)
        and the biases start at zero."""
        cfg = FlowConfig(coupling_layers=2, hidden_units=3, hidden_layers=2)
        flow = FlowModel.build(identity_projection(5), cfg, 4)
        rng = np.random.default_rng(4)
        for layer, (p, t) in zip(flow.layers, [(2, 3), (3, 2)]):
            want = [[fan_in_uniform(rng, 5, 3)[layer.p_cols], fan_in_uniform(rng, 3, 3)]
                    for _ in FINAL]
            dense = layer.net.layers
            assert dense[0].weight.data.shape == (2, p, 3)
            for depth in (0, 1):
                np.testing.assert_array_equal(dense[depth].weight.data,
                                              [want[0][depth], want[1][depth]])
            assert dense[2].weight.data.shape == (2, 3, t)
            assert dense[2].bias.data.shape == (2, 1, t)
            assert not dense[2].weight.data.any()
            assert not any(x.bias.data.any() for x in dense)

    def test_param_count_of_the_default_shape(self):
        """A 128-d flow of 4 coupling layers with 4 x 16 hidden units: per
        subnet 64*16 + 16, 3 * (16*16 + 16) and 16*64 + 64; plus its
        projection's mean, directions, scales and residual scale."""
        flow = FlowModel.build(identity_projection(128),
                               FlowConfig(coupling_layers=4, hidden_units=16, hidden_layers=4),
                               0)
        assert flow.param_count() == 23_552 + (128 + 128 * 128 + 128 + 1)

    def test_bad_mask_rejected(self):
        """Each layer's halves must both be non-empty, so a flow needs two
        columns; and forward works in place on the net's output, which an
        empty net would alias to its input."""
        assert halves(1, 0) == (slice(0, 0), slice(0, 1))
        with pytest.raises(ValueError, match=r"flow needs dim >= 2"):
            FlowModel.build(identity_projection(1), FlowConfig(), 0)
        with pytest.raises(ValueError, match="at least one layer"):
            CouplingLayer(DenseNet([]), 4, 0)

    def test_split_contract_rejected(self):
        rng = np.random.default_rng(0)

        def stack(*shapes):
            return coupling_net([(Tensor(rng.normal(size=(2, *shape))),
                                  Tensor(np.zeros((2, 1, shape[1])))) for shape in shapes])

        net = stack((3, 4), (4, 4), (4, 2))
        assert [(x.activation, x.residual) for x in net.layers] == [
            ("relu", False), ("relu", False), ("linear", False)]
        CouplingLayer(net, 5, 1)  # 3 pass-through, 2 transformed
        with pytest.raises(ValueError, match="coupling layer 1 net maps 2 -> 3 columns; "
                                             "in the 5-d flow its halves need 3 -> 2"):
            CouplingLayer(stack((2, 4), (4, 3)), 5, 1)
        with pytest.raises(ValueError, match="coupling layer 0 net maps 4 -> 4 columns; "
                                             "in the 4-d flow its halves need 2 -> 2"):
            CouplingLayer(stack((4, 3), (3, 4)), 4, 0)

    def test_subnets_are_read_only_views_of_the_stack(self):
        """The subnets' 2-D weight matrices the L2 term reads."""
        flow = FlowModel.build(identity_projection(4),
                               FlowConfig(coupling_layers=1, hidden_layers=2), 0)
        layer = flow.layers[0]
        stacked = layer.net.weight_tensors()
        views = flow.weight_tensors()
        assert len(views) == 2 * len(stacked)
        for i, view in enumerate(views):
            slot, depth = divmod(i, len(stacked))  # the s-net's, then the t-net's
            assert np.shares_memory(view.data, stacked[depth].data)
            np.testing.assert_array_equal(view.data, stacked[depth].data[slot])
            with pytest.raises(ValueError, match="read-only"):
                view.data[...] = 0.0
        assert [p.data.shape for p in layer.params()][:2] == [(2, 2, 16), (2, 1, 16)]
        assert layer.net.layers[-1].activation == "linear" and FINAL == ("tanh", "linear")

    def test_subnets_of_other_shapes_rejected(self):
        """A coupling net's layers hold exactly two subnets' weights."""
        net = FlowModel.build(identity_projection(4),
                              FlowConfig(hidden_layers=1), 0).layers[0].net
        first, last = net.layers
        one_slot = Dense(Tensor(first.weight.data[:1]), Tensor(first.bias.data[:1]), "relu")
        with pytest.raises(ValueError, match=r"coupling layer 0 net layer 0 weight has "
                                             r"shape \(1, 2, 16\), not a \(2, in, out\) stack"):
            CouplingLayer(DenseNet([one_slot, last]), 4, 0)
        flat = Dense(Tensor(last.weight.data[0]), Tensor(last.bias.data[0, 0]), "linear")
        with pytest.raises(ValueError, match=r"layer 1 weight has shape \(16, 2\)"):
            CouplingLayer(DenseNet([first, flat]), 4, 0)

    def test_suffix_mask_passes_trailing_columns(self, rng):
        """An odd layer passes through the trailing columns."""
        flow = randomized_flow(5, seed=0)
        layer = flow.layers[1]
        assert (layer.p_cols, layer.t_cols) == (slice(2, 5), slice(0, 2))
        for p in flow.layers[0].params():  # layer 0 becomes the identity
            p.data[...] = 0.0
        z = rng.normal(size=(4, 5))
        t, _ = FlowModel(identity_projection(5), [flow.layers[0].net, layer.net]).forward(z)
        np.testing.assert_array_equal(t[:, 2:], z[:, 2:])
        assert not np.array_equal(t[:, :2], z[:, :2])


class TestFlowChunks:
    def test_chunk_bounds_fold_a_one_row_tail(self):
        assert chunk_bounds(1, 256) == [0, 1]
        assert chunk_bounds(256, 256) == [0, 256]
        assert chunk_bounds(257, 256) == [0, 257]
        assert chunk_bounds(258, 256) == [0, 256, 258]
        assert chunk_bounds(513, 256) == [0, 256, 513]

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 1000, 1025])
    def test_log_density_equals_one_shot_pass(self, rows):
        """The flow scores all rows in one walk: its log-density equals the
        base term, log-det and residual term of one forward over every row's
        coordinates, on the 128-d identity projection and on 3- and 4-wide
        projections of 16-d latents, the widths the benchmark flow runs at."""
        rng = np.random.default_rng(rows)
        for width, dim in ((128, 128), (3, 16), (4, 16)):
            if width == dim:
                projection = identity_projection(dim)
            else:
                directions = np.linalg.qr(rng.normal(size=(dim, width)))[0].T
                projection = LatentProjection(rng.normal(size=dim), directions,
                                              rng.uniform(0.5, 2.0, width), 0.3)
            flow = randomized_flow(width, seed=4, scale=0.1, projection=projection)
            z = rng.normal(size=(rows, dim))
            coords, off = projection.project(z)
            t, log_det = flow.forward(coords)
            one_shot = -0.5 * (t * t).sum(axis=1) - 0.5 * width * LOG_2PI + log_det + off
            np.testing.assert_array_equal(flow.log_density(z), one_shot)


class TestFlowBijectivity:
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
            work = CouplingWorkspace(layer, zp, zt)
            t_t, s = layer.forward(zp, zt)
            t_work, s_work = layer.forward(zp, zt, work)
            np.testing.assert_array_equal(t_t, t_work)
            np.testing.assert_array_equal(s, s_work)
            # the training forward writes into the workspace
            assert t_work is work.t_t and np.shares_memory(s_work, work.net.layers[-1].act)
            np.testing.assert_array_equal(z, before)
            z = z.copy()
            z[:, layer.t_cols] = t_t

    def test_a_workspace_runs_only_on_its_own_input(self, rng):
        """A workspace's backward reads the inputs it was made on, so a
        forward given other arrays is refused, not run into stale gradients."""
        flow = randomized_flow(4, seed=3)
        work = FlowWorkspace(flow, rng.normal(size=(5, 4)))
        with pytest.raises(ValueError, match="flow workspace's forward runs on its own"):
            flow.forward(work.x.copy(), work)
        layer, layer_work = flow.layers[0], work.layers[0]
        zp, zt = work.halves
        with pytest.raises(ValueError, match="coupling workspace's forward runs on its own"):
            layer.forward(zp, zt.copy(), layer_work)
        with pytest.raises(ValueError, match="a workspace's forward runs on its own"):
            layer.forward(zp.copy(), zt, layer_work)
        t, log_det = flow.forward(work.x, work)
        want_t, want_log_det = flow.forward(work.x)
        assert t is work.t
        np.testing.assert_array_equal(t, want_t)
        np.testing.assert_array_equal(log_det, want_log_det)

    def test_tape_forward_matches_numpy_forward(self, rng):
        flow = randomized_flow(3, seed=2)
        z = rng.normal(size=(6, 3))
        t_np, log_det_np = flow.forward(z)
        loss = flow.nll_loss(z)
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
        flow, trace = flow_fit(z, FlowConfig(epochs=60, batch_size=128, l2=0.0, lr=1e-2), 0)
        mean_logp = float(flow.log_density(z).mean())
        optimum = -d / 2 * math.log(2 * math.pi * math.e)
        assert mean_logp > optimum - 0.2
        assert trace[-1] < trace[0]

    def test_mean_log_density_improves_from_init(self, rng):
        """Against the fit of 0 epochs: the same projection, identity
        coupling layers."""
        z = rng.standard_normal((256, 2)) * 0.3 + 1.5
        init, _ = flow_fit(z, FlowConfig(epochs=0), 1)
        flow, _ = flow_fit(z, FlowConfig(epochs=40, batch_size=64, l2=0.0, lr=1e-2), 1)
        assert float(flow.log_density(z).mean()) > float(init.log_density(z).mean())

    def test_fit_owns_the_projection_of_its_rows(self, rng):
        """flow_fit fits the projection of the latent rows it is given and
        trains the coupling layers on their coordinates."""
        z = rng.normal(size=(200, 5)) * [4.0, 2.0, 1.0, 0.05, 0.02] + 1.0
        flow, _ = flow_fit(z, FlowConfig(epochs=1, batch_size=64), 0)
        want = fit_projection(z)
        assert flow.dim == flow.projection.dim == want.dim == 3
        for name in ("mean", "directions", "scales"):
            np.testing.assert_array_equal(getattr(flow.projection, name), getattr(want, name))
        assert flow.projection.residual_scale == want.residual_scale

    def test_zero_epochs_returns_identity_init(self, rng):
        z = rng.standard_normal((128, 2))
        flow, trace = flow_fit(z, FlowConfig(epochs=0), 0)
        assert trace == []
        t, log_det = flow.forward(z)
        np.testing.assert_array_equal(t, z)

    def test_too_few_rows_rejected(self, rng):
        with pytest.raises(ValueError):
            flow_fit(rng.standard_normal((10, 2)), FlowConfig(batch_size=128), 0)

    def test_divergence_raises(self, rng):
        # flow_fit whitens its rows, so the first loss is finite at any row
        # scale. Adam's first step moves each weight it reaches (the zero
        # last layers') by about the learning rate, so at lr = 1e200 the
        # t-nets' outputs reach ~1e200 and the second loss overflows.
        z = rng.standard_normal((128, 2))
        cfg = FlowConfig(epochs=500, batch_size=128, l2=0.0, lr=1e200)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
            flow_fit(z, cfg, 0)
        err = info.value
        assert (err.stage, err.epoch, err.batch) == ("flow", 1, 0)
        assert np.isfinite(err.last_finite_loss)
        assert str(err).startswith(
            f"non-finite flow loss at epoch 1, batch 0 (last finite loss "
            f"{err.last_finite_loss})")


class TestScaling:
    def test_argmax_train_point_scales_to_one(self, rng):
        z = rng.normal(size=(50, 2))
        sd, _ = compute_scale(kde_fit(z, 0.5), z)
        scaled = sd.scaled_likelihood(z)
        assert scaled.max() == pytest.approx(1.0, abs=1e-12)
        assert np.all(scaled <= 1.0)
        assert np.all(scaled > 0.0)

    def test_streaming_max_matches_global_max(self, rng):
        z = rng.normal(size=(333, 2))
        kde = kde_fit(z, 0.5)
        sd, _ = compute_scale(kde, z)
        assert sd.max_train_log_density == pytest.approx(
            float(kde.log_density(z).max()), abs=0)

    def test_far_point_is_tiny_but_positive(self):
        flow = identity_flow(dim=2)
        sd, _ = compute_scale(flow, np.zeros((10, 2)))
        far = np.array([[20.0, 0.0]])  # log-density gap of -200 nats
        val = sd.scaled_likelihood(far)[0]
        assert 0.0 < val < 1e-80

    def test_underflow_maps_to_smallest_positive_normal(self):
        flow = identity_flow(dim=2)
        sd, _ = compute_scale(flow, np.zeros((10, 2)))
        very_far = np.array([[60.0, 0.0]])  # gap of -1800 nats: exp underflows
        assert sd.scaled_likelihood(very_far)[0] == LIKELIHOOD_FLOOR

    def test_denser_than_train_clamps_to_one(self):
        flow = identity_flow(dim=2)
        ring = np.column_stack([np.full(8, 3.0), np.zeros(8)])
        sd, _ = compute_scale(flow, ring)
        assert sd.scaled_likelihood(np.zeros((1, 2)))[0] == 1.0

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            compute_scale(identity_flow(2), np.zeros((0, 2)))

    def test_intermediate_point_in_open_interval(self, rng):
        z = rng.normal(size=(100, 2))
        sd, _ = compute_scale(kde_fit(z, 0.3), z)
        vals = sd.scaled_likelihood(z + 0.5)
        assert np.all((vals > 0) & (vals <= 1))

    def test_scaled_density_param_count(self, rng):
        z = rng.normal(size=(20, 3))
        sd, _ = compute_scale(kde_fit(z, 0.5), z)
        # 3 coordinates per support row, the mean, the directions, the
        # bandwidth and the scale constant
        assert sd.inner.directions.shape == (3, 3)
        assert sd.param_count() == 20 * 3 + 3 + 3 * 3 + 1 + 1


class TestLatentRowWidth:
    """A density reads latent rows of its own width d. Numpy would broadcast
    a row of another width against the d-wide mean and score an (n, 1)
    batch as n rows of one repeated value, so each entry point refuses it
    and names both widths. A vector of d values is one row."""

    @pytest.fixture(scope="class")
    def densities(self):
        z = np.random.default_rng(0).normal(size=(200, 4))
        return {"kde": kde_fit(z, 0.5),
                "flow": flow_fit(z, FlowConfig(epochs=0, batch_size=64), 0)[0]}

    @pytest.mark.parametrize("kind", ["kde", "flow"])
    @pytest.mark.parametrize("shape", [(3, 1), (3, 6), (5,), (2, 3, 4)])
    def test_rows_of_another_width_rejected(self, densities, kind, shape):
        density = densities[kind]
        scaled, _ = compute_scale(density, np.zeros((2, 4)))
        z = np.zeros(shape)
        message = re.escape(f"latent rows have shape {np.atleast_2d(z).shape}; the density "
                            "reads rows 4 wide")
        calls = [lambda: density.log_density(z), lambda: scaled.scaled_likelihood(z)]
        if kind == "flow":
            calls.append(lambda: density.projection.project(z))
        if len(shape) == 2:
            calls.append(lambda: compute_scale(density, z))
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("kind", ["kde", "flow"])
    def test_a_vector_is_a_batch_of_one(self, densities, kind):
        density = densities[kind]
        row = np.random.default_rng(1).normal(size=4)
        assert density.log_density(row).shape == (1,)
        assert density.log_density(row)[0] == density.log_density(row[None, :])[0]


class TestLatentProjection:
    @pytest.mark.parametrize("spread", [[5.0, 2.0, 0.5, 0.1, 0.01, 0.001], [1.0] * 6,
                                        [3.0, 1.0, 1e-3, 0.0, 0.0, 0.0]])
    def test_whitened_top_directions_keep_the_variance_share(self, spread):
        """Rows of 6 columns with the given spreads, rotated at random and
        shifted: the projection keeps the fewest directions holding
        PROJECTION_VARIANCE_KEPT of the variance (at least 2), orthonormal,
        and the train coordinates have mean 0 and unit variance."""
        rng = np.random.default_rng(0)
        rotation, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        z = (rng.normal(size=(500, 6)) * spread) @ rotation + 3.0
        p = fit_projection(z)
        power = np.linalg.svd(z - z.mean(axis=0), compute_uv=False) ** 2
        share = np.cumsum(power) / power.sum()
        assert p.dim >= 2 and share[p.dim - 1] >= PROJECTION_VARIANCE_KEPT
        assert p.dim == 2 or share[p.dim - 2] < PROJECTION_VARIANCE_KEPT
        np.testing.assert_allclose(p.directions @ p.directions.T, np.eye(p.dim), atol=1e-12)
        coords, off = p.project(z)
        assert coords.shape == (500, p.dim) and off.shape == (500,)
        np.testing.assert_allclose(coords.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(coords.std(axis=0), 1.0, rtol=1e-12)
        assert p.param_count() == 6 + 6 * p.dim + p.dim + 1

    def test_a_row_projects_alike_in_any_batch(self):
        """Each row's coordinates are a function of the row alone, bit for
        bit, in one pass and in batches of 1 to 256 rows (a BLAS product
        with r = 4 columns rounds rows differently at 1000 rows than at 128
        or at 1)."""
        rng = np.random.default_rng(3)
        z = rng.normal(size=(1000, 128)) * np.concatenate([[10.0, 6.0, 4.0, 3.0],
                                                          np.full(124, 0.05)])
        p = fit_projection(z)
        assert p.dim == 4
        whole = p.project(z)
        for rows in (1, 2, 7, 128, 256):
            parts = [p.project(z[i:i + rows]) for i in range(0, 1000, rows)]
            np.testing.assert_array_equal(np.vstack([c for c, _ in parts]), whole[0])
            np.testing.assert_array_equal(np.concatenate([o for _, o in parts]), whole[1])

    @pytest.mark.parametrize("points, varying", [(1, 0), (2, 1)])
    def test_fewer_than_two_varying_directions_rejected(self, points, varying):
        """Latents at 1 or 2 distinct points vary along 0 or 1 direction;
        no scale is divided by then."""
        rng = np.random.default_rng(1)
        z = rng.normal(size=(points, 8))[np.arange(40) % points]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"the train latents vary along {varying} "
                                                 r"direction\(s\); the flow needs at least 2"):
                fit_projection(z)

    def test_huge_rows_floor_without_a_warning(self):
        """A huge finite latent row overflows its coordinates (or makes them
        NaN); the flow maps them to -inf and s floors, with no warning."""
        rng = np.random.default_rng(2)
        z = rng.normal(size=(200, 4)) * [3.0, 1.0, 0.5, 0.2]
        p = fit_projection(z)
        assert p.dim == 3
        sd, train_s = compute_scale(identity_flow(projection=p), z)
        np.testing.assert_array_equal(sd.scaled_likelihood(z), train_s)
        huge = np.array([[1e308, -1e308, 1e308, -1e308], [1e308, 0.0, 0.0, 0.0],
                         [1e200, 1e200, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(sd.scaled_likelihood(huge) == LIKELIHOOD_FLOOR)

    def test_residual_is_scored_at_the_largest_left_out_scale(self):
        """residual_scale is the train rows' standard deviation along the
        largest direction the coordinates leave out, and a row moved off
        the subspace by v loses exactly ||v||^2 / (2 residual_scale^2) of
        log p: the flow sees no change in its coordinates."""
        rng = np.random.default_rng(4)
        rotation, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        z = (rng.normal(size=(400, 6)) * [5.0, 3.0, 0.3, 0.2, 0.1, 0.05]) @ rotation
        p = fit_projection(z)
        sv = np.linalg.svd(z - z.mean(axis=0), compute_uv=False)
        assert p.dim == 2 and p.residual_scale == pytest.approx(sv[2] / 20.0, rel=1e-12)
        flow = identity_flow(projection=p)
        on = p.mean + np.array([[0.5, -1.0]]) @ p.directions  # on the subspace
        off = rotation[3] * 4.0 * p.residual_scale - p.directions.T @ (
            p.directions @ rotation[3] * 4.0 * p.residual_scale)  # orthogonal to it
        gap = flow.log_density(on) - flow.log_density(on + off)
        np.testing.assert_allclose(gap, 0.5 * (off @ off) / p.residual_scale**2, rtol=1e-9)
        np.testing.assert_allclose(p.project(on + off)[0], p.project(on)[0], atol=1e-12)

    def test_rows_in_r_directions_keep_a_positive_residual_scale(self):
        """Rows that vary along exactly 2 directions leave no variance out;
        the residual scale is then the rank tolerance, not 0: rows on their
        plane keep a residual term near 0, and a row 1e-9 off it is far
        out."""
        rng = np.random.default_rng(5)
        z = rng.normal(size=(100, 2)) @ np.linalg.qr(rng.normal(size=(5, 5)))[0][:2]
        p = fit_projection(z)
        assert p.dim == 2 and 0.0 < p.residual_scale < 1e-12
        assert np.all(p.project(z)[1] > -0.01)
        assert p.project(z[:1] + 1e-9)[1][0] < -1e6

    def test_identity_projection_adds_nothing(self, rng):
        z = rng.normal(size=(50, 3))
        coords, off = identity_projection(3).project(z)
        np.testing.assert_array_equal(coords, z)
        assert np.all(off == 0.0)

    def test_flow_scores_its_coordinates_and_the_residual(self):
        """A flow's log-density of a latent row is its coupling walk's
        log-density of the row's coordinates plus the projection's residual
        term, bit for bit."""
        rng = np.random.default_rng(6)
        z = rng.normal(size=(200, 5)) * [4.0, 2.0, 1.0, 0.05, 0.02]
        flow = randomized_flow(3, seed=6, scale=0.3, projection=fit_projection(z))
        coords, off = flow.projection.project(z)
        t, log_det = flow.forward(coords)
        want = -0.5 * (t * t).sum(axis=1) - 0.5 * 3 * LOG_2PI + log_det + off
        assert np.all(off < 0.0)
        np.testing.assert_array_equal(flow.log_density(z), want)

    @pytest.mark.parametrize("scales", [[1.0, 0.0], [1.0, -1.0], [1.0, np.nan],
                                        [1.0, np.inf]])
    def test_non_positive_scale_rejected(self, scales):
        with pytest.raises(ValueError, match="projection scales must be positive and finite"):
            LatentProjection(np.zeros(3), np.eye(3)[:2], np.array(scales), 1.0)
        with pytest.raises(ValueError,
                           match="projection residual_scale must be positive and finite"):
            LatentProjection(np.zeros(3), np.eye(3)[:2], np.ones(2), scales[1])


class TestPrincipalAxes:
    """_principal_axes takes the SVD of the centered rows' R factor, which
    has their singular values and right singular vectors."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_for_bit_numpy_svd_at_1000_by_128(self, seed):
        """From n >= 11 d / 6 on, LAPACK's gesdd QR-factors the rows itself,
        so on the pipelines' 1000 x 128 latents the values and vectors are
        np.linalg.svd's, bit for bit, and so is every fit made from them."""
        z = latent_like(np.random.default_rng(seed), 1000)
        mean, sv, vt, _ = _principal_axes(z)
        _, want_sv, want_vt = np.linalg.svd(z - z.mean(axis=0), full_matrices=False)
        np.testing.assert_array_equal(mean, z.mean(axis=0))
        np.testing.assert_array_equal(sv, want_sv)
        np.testing.assert_array_equal(vt, want_vt)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_below_11_d_over_6_rows_agrees_to_rounding(self, seed):
        """At 200 x 128 gesdd takes another path: the singular values agree
        to 1e-12 relative and each right singular vector to 1e-12, up to
        its sign."""
        z = latent_like(np.random.default_rng(seed), 200)
        _, sv, vt, _ = _principal_axes(z)
        _, want_sv, want_vt = np.linalg.svd(z - z.mean(axis=0), full_matrices=False)
        np.testing.assert_allclose(sv, want_sv, rtol=1e-12)
        signs = np.sign(np.sum(vt * want_vt, axis=1))
        np.testing.assert_allclose(vt * signs[:, None], want_vt, rtol=0, atol=1e-12)
