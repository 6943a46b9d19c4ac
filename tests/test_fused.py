"""Fused training nodes, the contiguous optimizer state and the shared
minibatch loop against the per-op oracle in tape_reference.py.

Each training stage runs one loss node per step with a hand-written backward
rule: ``erm_loss`` (encoder stack, head cross-entropy, L2), the head's
``head_cross_entropy`` under s (re-optimization) and ``FlowModel.nll_loss``.
They and their kernels (``DenseNet.forward`` with a cache and
``backward_cached``, ``l2_value``/``l2_backward``, the coupling step and its
backward) must reproduce the per-op tape exactly: equal values and equal
gradients for every parameter and input, bit for bit. The forward steps are
the ones inference runs, so the same oracle holds the served path too.
"""

import gc
from dataclasses import replace

import numpy as np
import pytest

from density_softmax.autodiff import Tensor
from density_softmax.data import make_two_moons
from density_softmax.density import FlowConfig, FlowModel, compute_scale, flow_fit
from density_softmax.layers import Dense, DenseNet, l2_backward, l2_value
from density_softmax.model import (EncoderConfig, TrainConfig, erm_loss, erm_train,
                                   head_cross_entropy, init_model)
from density_softmax.optim import Adam, OptimizerSpec
from density_softmax.predictor import (DensityConfig, DensitySoftmaxModel, ReoptConfig,
                                       reoptimize_classifier, train_pipeline)

import tape_reference as ref
from conftest import assert_grads_close, bind_grads, central_difference_grad


def grads(tensors):
    return [t.grad.copy() for t in tensors]


def assert_all_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def set_grad(p, g):
    """Write g into p's gradient buffer; None writes zeros."""
    p.grad[...] = 0.0 if g is None else g


def randomized_flow(dim, layers, l2_seed):
    rng = np.random.default_rng(100 + 10 * layers + l2_seed)
    flow = FlowModel.build(dim, FlowConfig(coupling_layers=layers, hidden_units=5,
                                           hidden_layers=2, seed=layers))
    for a in ref.subnet_arrays(flow):  # zero-initialized output layers would hide terms
        a[...] = rng.normal(size=a.shape) * 0.3
    return flow, rng


class TestDenseNetNode:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    @pytest.mark.parametrize("residual", [False, True])
    @pytest.mark.parametrize("bias", [False, True])
    def test_matches_per_op_tape_exactly(self, rng, activation, residual, bias):
        net = DenseNet([Dense.init(rng, 3, 5, activation, bias=bias),
                        Dense.init(rng, 5, 5, activation, bias=bias, residual=residual),
                        Dense.init(rng, 5, 5, activation, bias=bias, residual=residual),
                        Dense.init(rng, 5, 4, activation, bias=bias)])
        x = rng.normal(size=(9, 3))
        upstream = rng.normal(size=(9, 4))
        params = net.params()

        twin, x_ref = ref.node_net(net), ref.Node(x)
        want = ref.densenet_forward_tape(twin, x_ref)
        want.mul_const(upstream).sum().backward()
        want_grads = grads(twin.params() + [x_ref])

        bind_grads(params)
        cache = []
        got = net.forward(x, cache=cache)
        g_x = net.backward_cached(cache, upstream)

        np.testing.assert_array_equal(got, want.data)
        np.testing.assert_array_equal(got, net.forward(x))
        assert_all_equal(grads(params) + [g_x], want_grads)


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
            l2_backward(weights, coefficient, 1.0)
            assert_all_equal(grads(weights), [np.zeros_like(w.data) for w in weights])
            return
        want.backward()
        want_grads = grads(twins)
        l2_backward(weights, coefficient, 1.0)
        assert got == want.data
        assert_all_equal(grads(weights), want_grads)


class TestErmNode:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_matches_per_op_tape_exactly(self, activation, l2):
        rng = np.random.default_rng(7)
        config = EncoderConfig(width=6, depth=2, activation=activation)
        encoder, classifier = init_model(config, 3, 4, seed=1)
        x = rng.normal(size=(11, 3))
        labels = rng.integers(0, 4, size=11)
        params = encoder.params() + classifier.params()

        net, theta = ref.node_net(encoder.net), ref.Node(classifier.theta.data)
        want = ref.erm_loss(net, theta, x, labels, l2)
        want.backward()
        want_grads = grads(net.params() + [theta])

        bind_grads(params)
        got = erm_loss(encoder, classifier, x, labels, l2)
        got.backward()

        assert got.data == want.data
        assert_all_equal(grads(params), want_grads)


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
        g_z = rule(1.0, input_grad=True)
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
        g_z = rule(1.0, input_grad=True)

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
# d = 10 a row sum over the 5 transformed columns alone would group its
# terms unlike the full-width sum.
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
        t_ref, s_ref = ref.coupling_forward_tape(twin, z_ref)
        (t_ref.square().sum().scale(0.5) - s_ref).scale(1.0 / n).backward()
        want_grads = twin.stacked("grad") + [z_ref.grad.copy()]

        bind_grads(params)
        p, tc = layer.p_cols, layer.t_cols
        caches = []
        t_t, s = layer.forward(batch[:, p], batch[:, tc], caches)
        t = batch.copy()
        t[:, tc] = t_t
        s_sum = layer._log_det_layout(s).sum()
        log_det = layer._log_det_layout(s).sum(axis=1)
        r = 1.0 / n  # the upstream gradients FlowModel.nll_loss hands its last layer
        g = (r * 0.5) * (2.0 * t)
        g_z = np.empty_like(batch)
        g_z[:, p], g_z[:, tc] = layer.backward_cached(caches[0], g[:, p], g[:, tc], -r, True)

        np.testing.assert_array_equal(t, t_ref.data)
        assert s_sum == s_ref.data
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
        flow = FlowModel.build(dim, FlowConfig(seed=dim))
        for a in ref.subnet_arrays(flow):
            a[...] = rng.normal(size=a.shape) * 0.1
        z = rng.normal(size=(300, dim))
        got, want = flow.log_density(z), ref.masked_log_density(flow, z)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        if dim == 128:
            np.testing.assert_array_equal(got, want)

    def test_flow_fit_trace_matches_per_op_loop_at_d128(self):
        z = np.random.default_rng(5).normal(size=(300, 128))  # batches 128, 128, 44
        cfg = FlowConfig(epochs=2, batch_size=128, seed=3)
        flow, trace = flow_fit(z, cfg)
        twin = ref.SplitFlow(FlowModel.build(128, cfg))
        assert trace == ref.reference_flow_fit(twin, z, cfg)
        assert_all_equal([p.data for p in flow.params()], twin.stacked("data"))


class TestContiguousOptimizer:
    SHAPES = [(3, 4), (4,), (), (2, 2)]
    # 61,538 elements: two optimizer chunks (optim.CHUNK = 32,768), the first
    # ending inside the first parameter and the second ragged (28,770)
    MULTI_CHUNK = [(180, 200), (37,), (), (150, 170)]

    def params_and_grads(self, rng, steps, shapes=SHAPES):
        params = [Tensor(rng.normal(size=s)) for s in shapes]
        # None: the parameter's gradient is zero that step
        seq = [[None if (i + t) % 3 == 0 else rng.normal(size=s)
                for i, s in enumerate(shapes)] for t in range(steps)]
        return params, seq

    def test_adam_matches_per_parameter_adam_exactly(self, rng):
        self.check_adam(rng, self.SHAPES)

    def test_adam_exact_across_chunks(self, rng):
        chunks = self.check_adam(rng, self.MULTI_CHUNK).chunks
        assert [buf.size for _, buf in chunks] == [32768, 28770]

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
            assert_all_equal([p.data for p in params], [q.data for q in twins])
        for flat, moments in ((opt.m, oracle.m), (opt.v, oracle.v)):
            want = np.concatenate([moments[id(q)].ravel() for q in twins])
            np.testing.assert_array_equal(flat, want)
        return opt

    def test_parameters_become_views_of_one_vector(self, rng):
        params = [Tensor(rng.normal(size=s)) for s in [(3, 4), (4,)]]
        before = [p.data.copy() for p in params]
        opt = Adam(params, lr=0.1)
        opt.grad[...] = 0.0  # zero gradients: parameters must not move
        opt.step()
        assert_all_equal([p.data for p in params], before)
        assert params[0].data.base is params[1].data.base

    def test_rebound_parameter_rejected(self, rng):
        p = Tensor(rng.normal(size=2))
        opt = Adam([p], lr=0.1)
        opt.grad[...] = 0.0
        opt.step()
        p.data = np.zeros(2)
        with pytest.raises(ValueError, match="rebound"):
            opt.step()


class TestPipelineAgainstPerOpLoops:
    def test_loss_traces_and_weights_match_exactly(self):
        train = make_two_moons(50, 0.1, seed=2)  # 100 rows: batches 32,32,32,4
        enc_cfg = EncoderConfig(width=8, depth=2, activation="tanh")
        train_cfg = TrainConfig(epochs=4, batch_size=32, l2=1e-3,
                                optimizer=OptimizerSpec(lr=3e-3), seed=2)
        flow_cfg = FlowConfig(coupling_layers=3, hidden_units=4, hidden_layers=2,
                              epochs=3, batch_size=32, l2=0.01, lr=1e-2)
        reopt_cfg = ReoptConfig(epochs=3, batch_size=32, lr=1e-2)
        result = train_pipeline(train, enc_cfg, train_cfg,
                                DensityConfig(kind="flow", flow=flow_cfg), reopt_cfg)

        encoder, classifier = init_model(enc_cfg, 2, 2, train_cfg.seed)
        erm = ref.reference_erm(encoder, classifier, train, train_cfg)
        train_z = encoder.encode(train.features)
        flow_cfg = replace(flow_cfg, seed=train_cfg.seed)
        twin = ref.SplitFlow(FlowModel.build(train_z.shape[1], flow_cfg))
        flow_trace = ref.reference_flow_fit(twin, train_z, flow_cfg)
        s = compute_scale(twin.to_flow(), train_z)[0].scaled_likelihood(train_z)
        reopt = ref.reference_reopt(classifier.theta.data, train_z, s, train.labels,
                                    replace(reopt_cfg, seed=train_cfg.seed))

        assert result.erm_loss_trace == erm
        assert result.density_loss_trace == flow_trace
        assert result.reopt_loss_trace == reopt
        model = result.model
        assert_all_equal([p.data for p in model.encoder.params()],
                         [p.data for p in encoder.params()])
        assert_all_equal([p.data for p in model.density.inner.params()],
                         twin.stacked("data"))
        np.testing.assert_array_equal(model.classifier.theta.data,
                                      classifier.theta.data)


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
        erm_train(encoder, classifier, train, TrainConfig(epochs=1, batch_size=16))
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
                                ReoptConfig(epochs=1, batch_size=32))
        model = result.model
        params = (model.encoder.params() + model.classifier.params()
                  + result.erm_model.classifier.params() + model.density.inner.params())
        assert [p.grad for p in params] == [None] * len(params)


class TestNoReferenceCycles:
    def test_training_stages_leave_no_garbage_cycles(self):
        """A rule takes its upstream gradient as an argument, so a step's
        loss node is freed by reference counting alone."""
        train = make_two_moons(128, 0.1, seed=4)  # 256 rows
        encoder, classifier = init_model(EncoderConfig(width=16, depth=2), 2, 2, seed=0)
        gc.collect()
        gc.disable()
        try:
            erm_train(encoder, classifier, train,
                      TrainConfig(epochs=2, batch_size=32, l2=1e-3))
            assert gc.collect() == 0
            z = encoder.encode(train.features)
            flow, _ = flow_fit(z, FlowConfig(epochs=2, batch_size=32))
            assert gc.collect() == 0
            _, s = compute_scale(flow, z)
            reoptimize_classifier(classifier, train, z, s, ReoptConfig(epochs=2, batch_size=32))
            assert gc.collect() == 0
        finally:
            gc.enable()
