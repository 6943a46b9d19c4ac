"""Fused training nodes, the contiguous optimizer state and the shared
minibatch loop against the per-op oracle in tape_reference.py.

Each training stage runs one loss node per step with a hand-written backward
rule: ``erm_loss`` (encoder stack, head cross-entropy, L2), the head's
``head_cross_entropy`` under s (re-optimization) and ``FlowModel.nll_loss``.
They and their kernels (``DenseNet.forward`` with a cache and
``backward_cached``, ``l2_value``/``l2_backward``, the coupling step and its
backward) must reproduce the per-op tape exactly: equal values and equal
gradients for every parameter and input, bit for bit. The forward steps are
the ones inference runs, so the same oracle holds the served path too. ERM
steps in float32 and every other stage in float64, so the kernels ERM runs
and Adam are checked in both dtypes, and the oracle runs in the dtype it is
given.
"""

import gc

import numpy as np
import pytest

from density_softmax.autodiff import Tensor
from density_softmax.config import (DensityConfig, EncoderConfig, FlowConfig, OptimizerSpec,
                                    ReoptConfig, TrainConfig)
from density_softmax.data import make_two_moons
from density_softmax.density import FlowModel, compute_scale, fit_projection, flow_fit
from density_softmax.layers import DenseNet, l2_backward, l2_value
from density_softmax.model import erm_loss, erm_train, head_cross_entropy, init_model
from density_softmax.optim import Adam
from density_softmax.predictor import reoptimize_classifier, train_pipeline

import tape_reference as ref
from conftest import (assert_grads_close, bind_grads, central_difference_grad, dense,
                      identity_projection)


def grads(tensors):
    return [t.grad.copy() for t in tensors]


def assert_all_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def cast(params, dtype):
    """Rebind each parameter's data to a copy in dtype, as erm_train does."""
    for p in params:
        p.data = p.data.astype(dtype)
    return params


def set_grad(p, g):
    """Write g into p's gradient buffer; None writes zeros."""
    p.grad[...] = 0.0 if g is None else g


def randomized_flow(dim, layers, l2_seed):
    rng = np.random.default_rng(100 + 10 * layers + l2_seed)
    flow = FlowModel.build(identity_projection(dim),
                           FlowConfig(coupling_layers=layers, hidden_units=5,
                                      hidden_layers=2), layers)
    for a in ref.subnet_arrays(flow):  # zero-initialized output layers would hide terms
        a[...] = rng.normal(size=a.shape) * 0.3
    return flow, rng


class TestDenseNetNode:
    DTYPE = np.float64

    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("random_bias", [False, True])
    def test_matches_per_op_tape_exactly(self, rng, activation, residual, random_bias):
        dtype = self.DTYPE
        net = DenseNet([dense(rng, 3, 5, activation), dense(rng, 5, 5, activation, residual),
                        dense(rng, 5, 5, activation, residual), dense(rng, 5, 4, activation)])
        if random_bias:  # a fresh layer's bias is zero
            for layer in net.layers:
                layer.bias.data[...] = rng.normal(size=layer.bias.data.shape)
        x = rng.normal(size=(9, 3)).astype(dtype)
        upstream = rng.normal(size=(9, 4)).astype(dtype)
        params = cast(net.params(), dtype)

        twin, x_ref = ref.node_net(net), ref.Node(x)
        want = ref.densenet_forward_tape(twin, x_ref)
        want.mul_const(upstream).sum().backward()
        want_grads = grads(twin.params() + [x_ref])

        bind_grads(params)
        cache = []
        got = net.forward(x, cache=cache)
        g_x = net.backward_cached(cache, upstream)

        assert got.dtype == g_x.dtype == dtype
        np.testing.assert_array_equal(got, want.data)
        np.testing.assert_array_equal(got, net.forward(x))
        assert_all_equal(grads(params) + [g_x], want_grads)


class TestDenseNetNodeInFloat32(TestDenseNetNode):
    """The encoder's kernels as ERM runs them."""

    DTYPE = np.float32


class TestL2Node:
    @pytest.mark.parametrize("coefficient", [0.0, 0.01])
    def test_matches_per_op_tape_exactly(self, rng, coefficient):
        weights = [Tensor(rng.normal(size=s)) for s in [(3, 4), (4,), (4, 2)]]
        twins = [ref.Node(w.data) for w in weights]
        want = ref.l2_penalty(twins, coefficient)
        got = l2_value([w.data for w in weights], coefficient)
        bind_grads(weights, 0.0)  # the data gradient l2_backward adds onto
        if coefficient == 0.0:  # the tape adds no node; the kernels add nothing
            assert want is None and got == 0.0
            l2_backward(weights, coefficient)
            assert_all_equal(grads(weights), [np.zeros_like(w.data) for w in weights])
            return
        want.backward()
        want_grads = grads(twins)
        l2_backward(weights, coefficient)
        assert got == want.data
        assert_all_equal(grads(weights), want_grads)


class TestErmNode:
    DTYPE = np.float64

    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_matches_per_op_tape_exactly(self, activation, l2):
        dtype = self.DTYPE
        rng = np.random.default_rng(7)
        config = EncoderConfig(width=6, depth=2, activation=activation)
        encoder, classifier = init_model(config, 3, 4, seed=1)
        x = rng.normal(size=(11, 3)).astype(dtype)
        labels = rng.integers(0, 4, size=11)
        params = cast(encoder.params() + classifier.params(), dtype)

        net, theta = ref.node_net(encoder.net), ref.Node(classifier.theta.data)
        want = ref.erm_loss(net, theta, x, labels, l2)
        want.backward()
        want_grads = grads(net.params() + [theta])

        bind_grads(params)
        got = erm_loss(encoder, classifier, x, labels, l2)
        got.backward()

        assert want.data.dtype == dtype
        assert got.data == want.data
        assert_all_equal(grads(params), want_grads)


class TestErmNodeInFloat32(TestErmNode):
    """The ERM loss node (head, encoder stack, L2) in the dtype ERM steps in."""

    DTYPE = np.float32


class TestHeadNode:
    @pytest.mark.parametrize("scaled", [False, True])
    def test_matches_per_op_tape_exactly(self, rng, scaled):
        theta = Tensor(rng.normal(size=(5, 3)))
        z = rng.normal(size=(9, 5))
        labels = rng.integers(0, 3, size=9)
        s = rng.uniform(0.01, 1.0, size=9) if scaled else None

        z_ref, twin = ref.Node(z), ref.Node(theta.data)
        logits = z_ref @ twin
        want = ref.softmax_cross_entropy(
            logits if s is None else logits.mul_const(s[:, None]), labels)
        want.backward()
        want_grads = [twin.grad.copy(), z_ref.grad.copy()]

        bind_grads([theta])
        loss, rule = head_cross_entropy(z, theta, labels, s)
        g_z = rule(input_grad=True)
        assert loss == want.data
        assert_all_equal([theta.grad, g_z], want_grads)

        # the node re-optimization steps on: no gradient for z
        bind_grads([theta])
        node = Tensor(*head_cross_entropy(z, theta, labels, s))
        node.backward()
        assert node.data == want.data
        np.testing.assert_array_equal(theta.grad, want_grads[0])

    def test_scaled_matches_finite_differences(self, rng):
        theta = Tensor(rng.normal(size=(4, 3)))
        z = Tensor(rng.normal(size=(6, 4)))
        labels = rng.integers(0, 3, size=6)
        s = rng.uniform(0.05, 1.0, size=6)
        bind_grads([theta])
        _, rule = head_cross_entropy(z.data, theta, labels, s)
        g_z = rule(input_grad=True)

        def loss():
            return float(head_cross_entropy(z.data, theta, labels, s)[0])

        assert_grads_close([theta.grad, g_z], central_difference_grad(loss, [theta, z]))

    def test_label_out_of_range(self, rng):
        theta = Tensor(rng.normal(size=(2, 3)))
        with pytest.raises(ValueError, match="out of range"):
            head_cross_entropy(rng.normal(size=(2, 2)), theta, np.array([0, 3]))


class TestFlowNllNode:
    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_matches_per_op_tape_exactly(self, layers, l2):
        # Also pins the order in which a coupling layer's masked input adds
        # its three gradient contributions (see CouplingLayer.backward_cached).
        flow, rng = randomized_flow(6, layers, int(l2 > 0))
        batch = rng.normal(size=(9, 6))
        params = flow.params()

        twin = ref.SplitFlow(flow)
        want = ref.flow_nll_loss(twin, batch, l2)
        want.backward()
        want_grads = twin.stacked("grad")

        bind_grads(params)
        got = flow.nll_loss(batch, l2)
        got.backward()

        assert got.data == want.data
        assert_all_equal(grads(params), want_grads)

    def test_matches_finite_differences(self):
        flow, rng = randomized_flow(3, 2, 1)
        batch = rng.normal(size=(5, 3))
        params = bind_grads(flow.params())
        flow.nll_loss(batch, 0.01).backward()

        def loss():
            return float(flow.nll_loss(batch, 0.01).data)

        assert_grads_close([p.grad for p in params],
                           central_difference_grad(loss, params))


# d = 7 splits 3 + 4 columns: with the ones first, 3 pass through. At
# d = 10 each layer transforms 5 columns.
ORIENTATIONS = pytest.mark.parametrize("dim, ones_first", [
    (6, True), (6, False), (7, True), (7, False), (10, True), (10, False)])


class TestSplitCoupling:
    """The coupling kernels work on column halves; the masked full-width
    composition in tape_reference.py is their oracle."""

    @ORIENTATIONS
    def test_layer_values_and_all_gradients_match_masked_tape(self, dim, ones_first):
        """An even layer passes its leading (ones_first) columns through, an
        odd one its trailing columns."""
        flow, rng = randomized_flow(dim, 2, 1)
        layer = flow.layers[0 if ones_first else 1]
        n = 64
        batch = rng.normal(size=(n, dim))
        params = layer.params()

        twin = ref.SplitCoupling(layer)
        z_ref = ref.Node(batch)
        t_ref, log_det_ref = ref.coupling_forward_tape(twin, z_ref)
        (t_ref.square().sum().scale(0.5) - log_det_ref.sum()).scale(1.0 / n).backward()
        want_grads = twin.stacked("grad") + [z_ref.grad.copy()]

        bind_grads(params)
        p, tc = layer.p_cols, layer.t_cols
        caches = []
        t_t, s = layer.forward(batch[:, p], batch[:, tc], caches)
        t = batch.copy()
        t[:, tc] = t_t
        log_det = s.sum(axis=1)
        r = 1.0 / n  # the upstream gradients FlowModel.nll_loss hands its last layer
        g = (r * 0.5) * (2.0 * t)
        g_z = np.empty_like(batch)
        g_z[:, p], g_z[:, tc] = layer.backward_cached(caches[0], g[:, p], g[:, tc], -r, True)

        np.testing.assert_array_equal(t, t_ref.data)
        np.testing.assert_array_equal(log_det, log_det_ref.data)
        assert_all_equal(grads(params) + [g_z], want_grads)
        want_t, want_log_det = ref.masked_coupling_forward(layer, batch)
        np.testing.assert_array_equal(t, want_t)
        np.testing.assert_array_equal(log_det, want_log_det)

    @ORIENTATIONS
    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_flow_loss_matches_masked_tape(self, dim, ones_first, l2):
        """The flow's last layer passes its leading (ones_first: 3 layers) or
        its trailing columns (4 layers) through."""
        flow, rng = randomized_flow(dim, 3 if ones_first else 4, 1)
        batch = rng.normal(size=(9, dim))
        params = flow.params()

        twin = ref.SplitFlow(flow)
        want = ref.flow_nll_loss(twin, batch, l2)
        want.backward()
        want_grads = twin.stacked("grad")
        bind_grads(params)
        got = flow.nll_loss(batch, l2)
        got.backward()

        assert got.data == want.data
        assert_all_equal(grads(params), want_grads)

    @pytest.mark.parametrize("dim", [2, 3, 5, 7, 128])
    def test_log_density_matches_masked_reference(self, dim):
        """Exact at d = 128. At a small d the default 16-unit subnets make
        OpenBLAS pick other kernels for some half-width products than for
        the full-width ones, which moves last bits (CHANGES.md lists the
        widths), so those are held to 1e-12 relative."""
        rng = np.random.default_rng(dim)
        flow = FlowModel.build(identity_projection(dim), FlowConfig(), dim)
        for a in ref.subnet_arrays(flow):
            a[...] = rng.normal(size=a.shape) * 0.1
        z = rng.normal(size=(300, dim))
        got, want = flow.log_density(z), ref.masked_log_density(flow, z)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        if dim == 128:
            np.testing.assert_array_equal(got, want)

    def test_flow_fit_trace_matches_per_op_loop_at_d128(self):
        z = np.random.default_rng(5).normal(size=(300, 128))  # batches 128, 128, 44
        cfg = FlowConfig(epochs=2, batch_size=128)
        flow, trace = flow_fit(z, cfg, 3)
        assert flow.dim == 121
        coords, _ = flow.projection.project(z)
        twin = ref.SplitFlow(FlowModel.build(flow.projection, cfg, 3))
        assert trace == ref.reference_flow_fit(twin, coords, cfg, 3)
        assert_all_equal([p.data for p in flow.params()], twin.stacked("data"))


class TestContiguousOptimizer:
    DTYPE = np.float64
    SHAPES = [(3, 4), (4,), (), (2, 2)]
    # A chunk is optim.CHUNK = 256 KiB per array: 32,768 float64 or 65,536
    # float32 elements. Each layout below spans several chunks, the first
    # ending inside the first parameter and the last ragged.
    MULTI_CHUNK = {np.float64: ([(180, 200), (37,), (), (150, 170)], [32768, 28770]),
                   np.float32: ([(260, 400), (37,), (), (150, 200)], [65536, 65536, 2966])}

    def params_and_grads(self, rng, steps, shapes=SHAPES):
        params = cast([Tensor(rng.normal(size=s)) for s in shapes], self.DTYPE)
        # None: the parameter's gradient is zero that step
        seq = [[None if (i + t) % 3 == 0 else rng.normal(size=s).astype(self.DTYPE)
                for i, s in enumerate(shapes)] for t in range(steps)]
        return params, seq

    def test_adam_matches_per_parameter_adam_exactly(self, rng):
        self.check_adam(rng, self.SHAPES)

    def test_adam_exact_across_chunks(self, rng):
        shapes, sizes = self.MULTI_CHUNK[self.DTYPE]
        chunks = self.check_adam(rng, shapes).chunks
        assert [buf.size for _, buf in chunks] == sizes
        assert {buf.dtype for _, buf in chunks} == {np.dtype(self.DTYPE)}

    def check_adam(self, rng, shapes):
        params, seq = self.params_and_grads(rng, 6, shapes)
        twins = bind_grads([ref.Node(p.data.copy()) for p in params])
        opt, oracle = Adam(params, lr=0.05), ref.PerParamAdam(lr=0.05)
        for step_grads in seq:
            for p, q, g in zip(params, twins, step_grads):
                set_grad(p, g)
                set_grad(q, g)
            opt.step()
            oracle.step(twins)
            assert {p.data.dtype for p in params} == {np.dtype(self.DTYPE)}
            assert_all_equal([p.data for p in params], [q.data for q in twins])
        for flat, moments in ((opt.m, oracle.m), (opt.v, oracle.v)):
            want = np.concatenate([moments[id(q)].ravel() for q in twins])
            np.testing.assert_array_equal(flat, want)
        return opt

    def test_parameters_become_views_of_one_vector(self, rng):
        params = cast([Tensor(rng.normal(size=s)) for s in [(3, 4), (4,)]], self.DTYPE)
        before = [p.data.copy() for p in params]
        opt = Adam(params, lr=0.1)
        opt.grad[...] = 0.0  # zero gradients: parameters must not move
        opt.step()
        assert_all_equal([p.data for p in params], before)
        assert params[0].data.base is params[1].data.base

    def test_rebound_parameter_rejected(self, rng):
        p = cast([Tensor(rng.normal(size=2))], self.DTYPE)[0]
        opt = Adam([p], lr=0.1)
        opt.grad[...] = 0.0
        opt.step()
        p.data = np.zeros(2)
        with pytest.raises(ValueError, match="rebound"):
            opt.step()


class TestContiguousOptimizerInFloat32(TestContiguousOptimizer):
    """Adam packs, steps and chunks in its parameters' dtype."""

    DTYPE = np.float32


def pipeline_and_reference(activation: str):
    """A small flow pipeline's result, and the per-op reference loops run
    from the same initial model: ERM, the projection flow_fit fits
    (fit_projection gives it again from the same latents), the flow fit on
    the coordinates and the re-optimization against the scaled likelihood."""
    train = make_two_moons(50, 0.1, seed=2)  # 100 rows: batches 32,32,32,4
    enc_cfg = EncoderConfig(width=8, depth=2, activation=activation)
    train_cfg = TrainConfig(epochs=4, batch_size=32, l2=1e-3,
                            optimizer=OptimizerSpec(lr=3e-3), seed=2)
    flow_cfg = FlowConfig(coupling_layers=3, hidden_units=4, hidden_layers=2,
                          epochs=3, batch_size=32, l2=0.01, lr=1e-2)
    reopt_cfg = ReoptConfig(epochs=3, batch_size=32, lr=1e-2)
    result = train_pipeline(train, enc_cfg, train_cfg,
                            DensityConfig(kind="flow", flow=flow_cfg), reopt_cfg, 2)

    encoder, classifier = init_model(enc_cfg, 2, 2, train_cfg.seed)
    ref_traces = {"erm": ref.reference_erm(encoder, classifier, train, train_cfg,
                                                train_cfg.seed)}
    train_z = encoder.encode(train.features)
    projection = fit_projection(train_z)
    coords, _ = projection.project(train_z)
    twin = ref.SplitFlow(FlowModel.build(projection, flow_cfg, train_cfg.seed))
    ref_traces["flow"] = ref.reference_flow_fit(twin, coords, flow_cfg, train_cfg.seed)
    s = compute_scale(twin.to_flow(), train_z)[0].scaled_likelihood(train_z)
    ref_traces["reopt"] = ref.reference_reopt(classifier.theta.data, train_z, s,
                                              train.labels,
                                              reopt_cfg, train_cfg.seed)
    return result, ref_traces, encoder, projection, twin, classifier


class TestPipelineAgainstPerOpLoops:
    def test_loss_traces_and_weights_match_exactly(self):
        """relu latents keep 99% of their variance in 4 directions, so the
        flow's halves are 2 columns wide."""
        result, want, encoder, projection, twin, classifier = pipeline_and_reference("relu")
        assert projection.dim == 4

        assert result.erm_loss_trace == want["erm"]
        assert result.density_loss_trace == want["flow"]
        assert result.reopt_loss_trace == want["reopt"]
        model = result.model
        assert_all_equal([p.data for p in model.encoder.params()],
                         [p.data for p in encoder.params()])
        assert_all_equal([p.data for p in model.density.inner.params()],
                         twin.stacked("data"))
        fitted = model.density.inner.projection
        assert_all_equal([fitted.mean, fitted.directions, fitted.scales],
                         [projection.mean, projection.directions, projection.scales])
        assert fitted.residual_scale == projection.residual_scale
        np.testing.assert_array_equal(model.classifier.theta.data,
                                      classifier.theta.data)

    def test_narrow_flow_matches_to_rounding(self):
        """tanh latents keep 99% of their variance in 2 directions, so each
        flow half is 1 column wide. There the half-width products round
        differently from the masked oracle's full-width ones (see
        CouplingLayer), so the flow and what follows it are held to
        TestSplitCoupling's narrow-width tolerance, 1e-12 relative; ERM and
        the projection still match bit for bit."""
        result, want, encoder, projection, twin, classifier = pipeline_and_reference("tanh")
        assert projection.dim == 2

        assert result.erm_loss_trace == want["erm"]
        assert_all_equal([p.data for p in result.model.encoder.params()],
                         [p.data for p in encoder.params()])
        fitted = result.model.density.inner.projection
        assert_all_equal([fitted.mean, fitted.directions, fitted.scales],
                         [projection.mean, projection.directions, projection.scales])
        np.testing.assert_allclose(result.density_loss_trace, want["flow"], rtol=1e-12)
        for got, ref_w in zip([p.data for p in result.model.density.inner.params()],
                              twin.stacked("data")):
            np.testing.assert_allclose(got, ref_w, rtol=1e-12, atol=0)
        np.testing.assert_allclose(result.reopt_loss_trace, want["reopt"], rtol=1e-12)
        np.testing.assert_allclose(result.model.classifier.theta.data,
                                   classifier.theta.data, rtol=1e-12)


def stale_then_fresh(params, loss_fn, first, second):
    """The gradients the rules write into Adam's bound buffers on batch
    ``second`` right after a whole step on ``first`` (the buffers then hold
    Adam's spent denominators), and those one backward on ``second`` writes
    into fresh NaN-filled buffers at the same parameter values."""
    opt = Adam(params, lr=1e-2)
    loss_fn(first).backward()
    opt.step()
    loss_fn(second).backward()
    reused = grads(params)
    bind_grads(params)
    loss_fn(second).backward()
    return reused, grads(params)


class TestGradientBuffersAreRewritten:
    """Adam's gradient vector is reused from step to step and each rule
    writes every entry of it afresh, so nothing of the last step survives."""

    FIRST, SECOND = np.arange(32), np.arange(32, 64)

    def test_erm_with_l2(self):
        train = make_two_moons(32, 0.1, seed=1)
        encoder, classifier = init_model(EncoderConfig(width=8, depth=2), 2, 2, seed=0)
        params = encoder.params() + classifier.params()
        reused, fresh = stale_then_fresh(
            params, lambda idx: erm_loss(encoder, classifier, train.features[idx],
                                         train.labels[idx], 1e-3),
            self.FIRST, self.SECOND)
        assert_all_equal(reused, fresh)

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_flow_nll(self, l2):
        flow, rng = randomized_flow(6, 2, 1)
        z = rng.normal(size=(64, 6))
        params = flow.params()
        reused, fresh = stale_then_fresh(params, lambda idx: flow.nll_loss(z[idx], l2),
                                         self.FIRST, self.SECOND)
        assert_all_equal(reused, fresh)

    def test_theta_taken_over_by_reoptimization(self):
        train = make_two_moons(32, 0.1, seed=1)
        encoder, classifier = init_model(EncoderConfig(width=8, depth=2), 2, 2, seed=0)
        erm_train(encoder, classifier, train, TrainConfig(epochs=1, batch_size=16), 0)
        theta = classifier.theta
        assert theta.grad is None
        z = encoder.encode(train.features)
        s = np.random.default_rng(0).uniform(0.1, 1.0, size=train.n)
        reused, fresh = stale_then_fresh(
            [theta], lambda idx: Tensor(*head_cross_entropy(z[idx], theta,
                                                            train.labels[idx], s[idx])),
            self.FIRST, self.SECOND)
        assert_all_equal(reused, fresh)

    def test_trained_model_holds_no_gradient(self):
        train = make_two_moons(32, 0.1, seed=3)
        flow_cfg = FlowConfig(coupling_layers=2, hidden_units=4, hidden_layers=1,
                              epochs=1, batch_size=32)
        result = train_pipeline(train, EncoderConfig(width=8, depth=2),
                                TrainConfig(epochs=1, batch_size=32),
                                DensityConfig(kind="flow", flow=flow_cfg),
                                ReoptConfig(epochs=1, batch_size=32), 2)
        model = result.model
        params = (model.encoder.params() + model.classifier.params()
                  + result.erm_model.classifier.params() + model.density.inner.params())
        assert [p.grad for p in params] == [None] * len(params)


class TestNoReferenceCycles:
    def test_training_stages_leave_no_garbage_cycles(self):
        """A rule holds no reference to its loss node, so a step's loss
        node is freed by reference counting alone."""
        train = make_two_moons(128, 0.1, seed=4)  # 256 rows
        encoder, classifier = init_model(EncoderConfig(width=16, depth=2), 2, 2, seed=0)
        gc.collect()
        gc.disable()
        try:
            erm_train(encoder, classifier, train,
                      TrainConfig(epochs=2, batch_size=32, l2=1e-3), 0)
            assert gc.collect() == 0
            z = encoder.encode(train.features)
            flow, _ = flow_fit(z, FlowConfig(epochs=2, batch_size=32), 0)
            assert gc.collect() == 0
            _, s = compute_scale(flow, z)
            reoptimize_classifier(classifier, train, z, s, ReoptConfig(epochs=2, batch_size=32), 0)
            assert gc.collect() == 0
        finally:
            gc.enable()
