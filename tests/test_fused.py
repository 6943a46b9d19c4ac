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
from density_softmax.density import (CouplingLayer, FlowConfig, FlowModel, compute_scale,
                                     flow_fit)
from density_softmax.layers import Dense, DenseNet, l2_backward, l2_value
from density_softmax.model import (EncoderConfig, TrainConfig, erm_loss, erm_train,
                                   head_cross_entropy, init_model)
from density_softmax.optim import Adam, OptimizerSpec, SgdMomentum
from density_softmax.predictor import (DensityConfig, DensitySoftmaxModel, ReoptConfig,
                                       reoptimize_classifier, train_pipeline)

import tape_reference as ref
from conftest import assert_grads_close, central_difference_grad


def grads(tensors):
    return [t.grad.copy() for t in tensors]


def assert_all_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def set_grad(p, g):
    """p's gradient set to g; None leaves it untouched (lazy zeros)."""
    p.zero_grad()
    if g is not None:
        p.accumulate(g)


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

        x_ref = ref.Node(x)
        want = ref.densenet_forward_tape(net, x_ref)
        want.mul_const(upstream).sum().backward()
        want_grads = grads(params + [x_ref])

        for p in params:
            p.zero_grad()
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
        want = ref.l2_penalty(weights, coefficient)
        got = l2_value([w.data for w in weights], coefficient)
        if coefficient == 0.0:  # the tape adds no node; the kernels add nothing
            assert want is None and got == 0.0
            l2_backward(weights, coefficient, 1.0)
            assert_all_equal(grads(weights), [np.zeros_like(w.data) for w in weights])
            return
        want.backward()
        want_grads = grads(weights)
        for w in weights:
            w.zero_grad()
        l2_backward(weights, coefficient, 1.0)
        assert got == want.data
        assert_all_equal(grads(weights), want_grads)


class TestErmNode:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_matches_per_op_tape_exactly(self, activation, l2):
        rng = np.random.default_rng(7)
        config = EncoderConfig(input_dim=3, width=6, depth=2, activation=activation)
        encoder, classifier = init_model(config, 4, seed=1)
        x = rng.normal(size=(11, 3))
        labels = rng.integers(0, 4, size=11)
        params = encoder.params() + classifier.params()

        want = ref.erm_loss(encoder, classifier, x, labels, l2)
        want.backward()
        want_grads = grads(params)

        for p in params:
            p.zero_grad()
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

        z_ref = ref.Node(z)
        logits = z_ref @ theta
        want = ref.softmax_cross_entropy(
            logits if s is None else logits.mul_const(s[:, None]), labels)
        want.backward()
        want_grads = [theta.grad.copy(), z_ref.grad.copy()]

        theta.zero_grad()
        loss, rule = head_cross_entropy(z, theta, labels, s)
        g_z = rule(1.0, input_grad=True)
        assert loss == want.data
        assert_all_equal([theta.grad, g_z], want_grads)

        # the node re-optimization steps on: no gradient for z
        theta.zero_grad()
        node = Tensor(*head_cross_entropy(z, theta, labels, s))
        node.backward()
        assert node.data == want.data
        np.testing.assert_array_equal(theta.grad, want_grads[0])

    def test_scaled_matches_finite_differences(self, rng):
        theta = Tensor(rng.normal(size=(4, 3)))
        z = Tensor(rng.normal(size=(6, 4)))
        labels = rng.integers(0, 3, size=6)
        s = rng.uniform(0.05, 1.0, size=6)
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

        got = flow.nll_loss(batch, l2)
        got.backward()

        assert got.data == want.data
        assert_all_equal(grads(params), want_grads)

    def test_matches_finite_differences(self):
        flow, rng = randomized_flow(3, 2, 1)
        batch = rng.normal(size=(5, 3))
        params = flow.params()
        flow.nll_loss(batch, 0.01).backward()

        def loss():
            return float(flow.nll_loss(batch, 0.01).data)

        assert_grads_close([p.grad for p in params],
                           central_difference_grad(loss, params))


def oriented_flow(dim, layers, ones_first):
    """randomized_flow whose first coupling layer passes its leading
    (ones_first) or its trailing columns through; the masks alternate."""
    flow, rng = randomized_flow(dim, layers, 1)
    if not ones_first:
        flow = FlowModel(dim, [CouplingLayer(mask=1.0 - c.mask, s_net=c.s_net, t_net=c.t_net)
                               for c in flow.layers])
    return flow, rng


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
        flow, rng = oriented_flow(dim, 1, ones_first)
        layer = flow.layers[0]
        n = 64
        batch = rng.normal(size=(n, dim))
        params = layer.params()

        twin = ref.SplitCoupling(layer)
        z_ref = ref.Node(batch)
        t_ref, s_ref = ref.coupling_forward_tape(twin, z_ref)
        (t_ref.square().sum().scale(0.5) - s_ref).scale(1.0 / n).backward()
        want_grads = twin.stacked("grad") + [z_ref.grad.copy()]

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
        flow, rng = oriented_flow(dim, 3, ones_first)
        batch = rng.normal(size=(9, dim))
        params = flow.params()

        twin = ref.SplitFlow(flow)
        want = ref.flow_nll_loss(twin, batch, l2)
        want.backward()
        want_grads = twin.stacked("grad")
        got = flow.nll_loss(batch, l2)
        got.backward()

        assert got.data == want.data
        assert_all_equal(grads(params), want_grads)

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_flow_loss_with_unaligned_splits_matches_masked_tape(self, l2):
        """Consecutive layers that do not swap halves (the same mask twice,
        then a split at another column): the state is re-cut between them,
        in training and at inference."""
        flow, rng = randomized_flow(7, 3, 1)
        masks = [np.repeat([1.0, 0.0], [3, 4]), np.repeat([1.0, 0.0], [3, 4]),
                 np.repeat([0.0, 1.0], [5, 2])]
        flow = FlowModel(7, [CouplingLayer(mask=m, s_net=c.s_net, t_net=c.t_net)
                             for m, c in zip(masks, flow.layers)])
        batch = rng.normal(size=(9, 7))

        twin = ref.SplitFlow(flow)
        want = ref.flow_nll_loss(twin, batch, l2)
        want.backward()
        got = flow.nll_loss(batch, l2)
        got.backward()

        assert got.data == want.data
        assert_all_equal(grads(flow.params()), twin.stacked("grad"))
        # small d: held to 1e-12 relative, as in test_log_density_matches_masked_reference
        np.testing.assert_allclose(flow.log_density(batch), ref.masked_log_density(flow, batch),
                                   rtol=1e-12, atol=0)

    @ORIENTATIONS
    def test_inverse_undoes_forward(self, dim, ones_first):
        flow, rng = oriented_flow(dim, 3, ones_first)
        z = rng.normal(size=(40, dim)) * 2.0
        for layer in flow.layers:
            t, _ = FlowModel(dim, [layer]).forward(z)
            back = layer.inverse(t)
            np.testing.assert_array_equal(back[:, layer.p_cols], z[:, layer.p_cols])
            np.testing.assert_allclose(back, z, rtol=0, atol=1e-12)
        np.testing.assert_allclose(flow.inverse(flow.forward(z)[0]), z, rtol=0, atol=1e-10)

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
        # None: the parameter gets no gradient that step (lazy grads read 0)
        seq = [[None if (i + t) % 3 == 0 else rng.normal(size=s)
                for i, s in enumerate(shapes)] for t in range(steps)]
        return params, seq

    def test_adam_matches_per_parameter_adam_exactly(self, rng):
        self.check_adam(rng, self.SHAPES)

    def test_adam_exact_across_chunks(self, rng):
        chunks = self.check_adam(rng, self.MULTI_CHUNK)._packed.chunks
        assert [buf.size for _, buf in chunks] == [32768, 28770]

    def check_adam(self, rng, shapes):
        params, seq = self.params_and_grads(rng, 6, shapes)
        twins = [Tensor(p.data.copy()) for p in params]
        opt, oracle = Adam(lr=0.05), ref.PerParamAdam(lr=0.05)
        for step_grads in seq:
            for p, q, g in zip(params, twins, step_grads):
                set_grad(p, g)
                set_grad(q, g)
            opt.step(params)
            oracle.step(twins)
            assert_all_equal([p.data for p in params], [q.data for q in twins])
        for flat, moments in ((opt._m, oracle.m), (opt._v, oracle.v)):
            want = np.concatenate([moments[id(q)].ravel() for q in twins])
            np.testing.assert_array_equal(flat, want)
        return opt

    @pytest.mark.parametrize("nesterov", [False, True])
    def test_sgd_matches_per_parameter_update_exactly(self, rng, nesterov):
        self.check_sgd(rng, nesterov, self.SHAPES)

    @pytest.mark.parametrize("nesterov", [False, True])
    def test_sgd_exact_across_chunks(self, rng, nesterov):
        self.check_sgd(rng, nesterov, self.MULTI_CHUNK)

    def check_sgd(self, rng, nesterov, shapes):
        params, seq = self.params_and_grads(rng, 4, shapes)
        expected = [p.data.copy() for p in params]
        velocity = [np.zeros_like(e) for e in expected]
        opt = SgdMomentum(lr=0.1, momentum=0.9, nesterov=nesterov)
        for step_grads in seq:
            for p, g in zip(params, step_grads):
                set_grad(p, g)
            opt.step(params)
            for i, g in enumerate(step_grads):
                g = np.zeros_like(expected[i]) if g is None else g
                velocity[i] *= 0.9
                velocity[i] += g
                step = g + 0.9 * velocity[i] if nesterov else velocity[i]
                expected[i] = expected[i] - 0.1 * step
            assert_all_equal([p.data for p in params], expected)
        np.testing.assert_array_equal(
            opt._velocity, np.concatenate([v.ravel() for v in velocity]))

    def test_parameters_become_views_of_one_vector(self, rng):
        params = [Tensor(rng.normal(size=s)) for s in [(3, 4), (4,)]]
        before = [p.data.copy() for p in params]
        Adam(lr=0.1).step(params)  # no grads: parameters must not move
        assert_all_equal([p.data for p in params], before)
        assert params[0].data.base is params[1].data.base

    def test_other_parameter_list_rejected(self, rng):
        a, b = Tensor(rng.normal(size=2)), Tensor(rng.normal(size=2))
        opt = Adam(lr=0.1)
        opt.step([a])
        with pytest.raises(ValueError):
            opt.step([b])

    def test_rebound_parameter_rejected(self, rng):
        p = Tensor(rng.normal(size=2))
        opt = SgdMomentum(lr=0.1)
        opt.step([p])
        p.data = np.zeros(2)
        with pytest.raises(ValueError):
            opt.step([p])


class TestPipelineAgainstPerOpLoops:
    def test_loss_traces_and_weights_match_exactly(self):
        train = make_two_moons(50, 0.1, seed=2)  # 100 rows: batches 32,32,32,4
        enc_cfg = EncoderConfig(input_dim=2, width=8, depth=2, latent_dim=8,
                                activation="tanh")
        train_cfg = TrainConfig(epochs=4, batch_size=32, l2=1e-3,
                                optimizer=OptimizerSpec(kind="adam", lr=3e-3),
                                lr_decay_epochs=(2,), lr_decay_ratio=0.5, seed=2)
        flow_cfg = FlowConfig(coupling_layers=3, hidden_units=4, hidden_layers=2,
                              epochs=3, batch_size=32, l2=0.01, lr=1e-2)
        reopt_cfg = ReoptConfig(epochs=3, batch_size=32, lr=1e-2)
        result = train_pipeline(train, enc_cfg, train_cfg,
                                DensityConfig(kind="flow", flow=flow_cfg), reopt_cfg)

        encoder, classifier = init_model(enc_cfg, 2, train_cfg.seed)
        erm = ref.reference_erm(encoder, classifier, train, train_cfg)
        train_z = encoder.encode(train.features)
        flow_cfg = replace(flow_cfg, seed=train_cfg.seed)
        twin = ref.SplitFlow(FlowModel.build(train_z.shape[1], flow_cfg))
        flow_trace = ref.reference_flow_fit(twin, train_z, flow_cfg)
        s = compute_scale(twin.to_flow(), train_z).scaled_likelihood(train_z)
        reopt = ref.reference_reopt(classifier.theta, train_z, s, train.labels,
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


class TestNoReferenceCycles:
    def test_training_stages_leave_no_garbage_cycles(self):
        """A rule takes its upstream gradient as an argument, so a step's
        loss node is freed by reference counting alone."""
        train = make_two_moons(128, 0.1, seed=4)  # 256 rows
        encoder, classifier = init_model(EncoderConfig(width=16, depth=2), 2, seed=0)
        gc.collect()
        gc.disable()
        try:
            erm_train(encoder, classifier, train,
                      TrainConfig(epochs=2, batch_size=32, l2=1e-3))
            assert gc.collect() == 0
            z = encoder.encode(train.features)
            flow, _ = flow_fit(z, FlowConfig(epochs=2, batch_size=32))
            assert gc.collect() == 0
            model = DensitySoftmaxModel(encoder, classifier, compute_scale(flow, z))
            reoptimize_classifier(model, train, ReoptConfig(epochs=2, batch_size=32))
            assert gc.collect() == 0
        finally:
            gc.enable()
