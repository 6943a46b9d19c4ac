"""Fused training nodes, the contiguous optimizer state, the L2 penalty and
the shared minibatch loop against the per-op oracle in tape_reference.py.

Each training stage runs one loss node per step with a hand-written backward
rule: ``erm_loss`` (encoder stack, head cross-entropy), the head's
``head_cross_entropy`` under s (re-optimization) and ``FlowModel.nll_loss``.
The loop adds the L2 term (``optim.L2Penalty``) over the weights Adam packs
first. They and their kernels (``DenseNet.forward`` on a workspace and
``backward``, the penalty, the coupling step and its backward) must
reproduce the per-op tape exactly: equal values and equal gradients for
every parameter and input, bit for bit. The forward steps are the ones
inference runs, so the same oracle holds the served path too. ERM steps in
float32 and every other stage in float64, so the kernels ERM runs and Adam
are checked in both dtypes, and the oracle runs in the dtype it is given.
"""

import gc
import types
import weakref

import numpy as np
import pytest

from density_softmax.autodiff import Tensor
from density_softmax.config import (DensityConfig, EncoderConfig, FlowConfig, OptimizerSpec,
                                    ReoptConfig, TrainConfig)
from density_softmax.data import make_two_moons
from density_softmax.density import (CouplingWorkspace, FlowModel, FlowWorkspace, compute_scale,
                                     fit_projection, flow_fit)
from density_softmax.layers import DenseNet, DenseWorkspace, LayerArrays
from density_softmax.model import (batch_rows, erm_loss, erm_train, head_cross_entropy, init_model,
                                  minibatches)
from density_softmax.optim import Adam, L2Penalty
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


def erm_layout(encoder, classifier):
    """The weights, net by net, and the biases erm_train hands the loop."""
    return [encoder.net.weight_tensors(), [classifier.theta]], encoder.net.bias_tensors()


def flow_layout(flow):
    """The weights, net by net, and the biases flow_fit hands the loop."""
    return ([layer.net.weight_tensors() for layer in flow.layers],
            [b for layer in flow.layers for b in layer.net.bias_tensors()])


def packed(weights, biases, l2, fill=np.nan):
    """Bind the parameters as train_minibatches does: Adam packs the weights
    first, its gradient vector filled with ``fill`` (NaN makes an entry no
    rule writes show), and with l2 > 0 the L2 penalty runs on that prefix.
    Returns the penalty, or None."""
    opt = Adam([w for net in weights for w in net] + biases, lr=0.1)
    opt.grad[...] = fill
    return L2Penalty(opt, weights, l2) if l2 != 0.0 else None


def penalized(node, penalty):
    """A step's loss value, as train_minibatches takes it, after writing
    the node's gradients and then the penalty's into the bound buffers."""
    value = node.data if penalty is None else penalty.add_to(node.data)
    node.backward()
    if penalty is not None:
        penalty.backward()
    return value


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
        work = DenseWorkspace(net, x)
        got = net.forward(x, work)
        g_x = net.backward(work, upstream)

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
        twins = [ref.Node(w.data.copy()) for w in weights]
        want = ref.l2_penalty(twins, coefficient)
        # the data gradient the penalty adds onto
        penalty = L2Penalty(Adam(weights, lr=0.1), [weights], coefficient)
        for w in weights:
            w.grad[...] = 0.0
        got = penalty.add_to(0.0)
        penalty.backward()
        if coefficient == 0.0:  # the tape adds no node; the penalty adds zeros
            assert want is None and got == 0.0
            assert_all_equal(grads(weights), [np.zeros_like(w.data) for w in weights])
            return
        want.backward()
        assert got == want.data
        assert_all_equal(grads(weights), grads(twins))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_packed_prefix_holds_exactly_the_weights(self, rng, dtype):
        """Adam packs the weights first, net by net, then the biases; the
        penalty reads exactly that prefix, so a bias gets no L2 gradient."""
        encoder, classifier = init_model(EncoderConfig(width=6, depth=2), 3, 4, seed=1)
        cast(encoder.params() + classifier.params(), dtype)
        weights, biases = erm_layout(encoder, classifier)
        penalty = packed(weights, biases, 0.5, fill=0.0)
        flat = [w for net in weights for w in net]
        assert penalty.data.size == sum(w.data.size for w in flat)
        assert penalty.data.dtype == dtype
        assert all(np.shares_memory(w.data, penalty.data)
                   and np.shares_memory(w.grad, penalty.grad) for w in flat)
        assert not any(np.shares_memory(b.data, penalty.data)
                       or np.shares_memory(b.grad, penalty.grad) for b in biases)
        for b in biases:  # a nonzero bias, which an L2 term over it would see
            b.data[...] = 1.0
        penalty.backward()
        assert_all_equal(grads(biases), [np.zeros_like(b.data) for b in biases])
        assert_all_equal(grads(flat), [(0.5 * (2.0 * w.data)).astype(dtype) for w in flat])

    def test_flow_sums_each_layer_s_net_then_t_net(self):
        """A coupling layer's stacked weights pack slot by slot per weight,
        but the value adds the s-net's matrices, then the t-net's, layer by
        layer: FlowModel.weight_tensors' order, one matrix after another."""
        flow, _ = randomized_flow(5, 3, 1)
        penalty = packed(*flow_layout(flow), 0.01)
        total = None
        for view in flow.weight_tensors():
            part = (view.data * view.data).sum()
            total = part if total is None else total + part
        assert penalty.add_to(0.0) == total * 0.01


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

        penalty = packed(*erm_layout(encoder, classifier), l2)
        got = penalized(erm_loss(encoder, classifier, x, labels), penalty)

        assert want.data.dtype == dtype
        assert got == want.data
        assert_all_equal(grads(params), want_grads)


class TestErmNodeInFloat32(TestErmNode):
    """The ERM loss node (head, encoder stack) and the L2 penalty in the
    dtype ERM steps in."""

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

        got = penalized(flow.nll_loss(batch), packed(*flow_layout(flow), l2))

        assert got == want.data
        assert_all_equal(grads(params), want_grads)

    def test_matches_finite_differences(self):
        flow, rng = randomized_flow(3, 2, 1)
        batch = rng.normal(size=(5, 3))
        params = flow.params()
        penalty = packed(*flow_layout(flow), 0.01)
        penalized(flow.nll_loss(batch), penalty)

        def loss():
            return float(penalty.add_to(flow.nll_loss(batch).data))

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
        zp, zt = batch[:, p], batch[:, tc]
        work = CouplingWorkspace(layer, zp, zt)
        t_t, s = layer.forward(zp, zt, work)
        t = batch.copy()
        t[:, tc] = t_t
        log_det = s.sum(axis=1)
        r = 1.0 / n  # the upstream gradients FlowModel.nll_loss hands its last layer
        g = (r * 0.5) * (2.0 * t)
        g_z = np.empty_like(batch)
        g_z[:, p], g_z[:, tc] = layer.backward(work, g[:, p], g[:, tc], -r, True)

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
        got = penalized(flow.nll_loss(batch), packed(*flow_layout(flow), l2))

        assert got == want.data
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
    (fit_projection gives it again from the same latents, encoded in
    float32 as the program's trained encoder walks), the flow fit on the
    coordinates and the re-optimization against the scaled likelihood."""
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
    cast(encoder.params(), np.float32)
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


def stale_then_fresh(weights, biases, l2, loss_fn, new_work, first, second):
    """The gradients a step on batch ``second`` writes into Adam's bound
    buffers right after a whole step on ``first`` on the same workspace (the
    buffers then hold Adam's spent denominators), and those a step on
    ``second`` writes into fresh NaN-filled buffers at the same parameter
    values, on a fresh workspace. ``loss_fn(idx, work)`` builds a step's loss
    node and ``new_work()`` a workspace; each step adds the L2 term when
    l2 > 0, as train_minibatches does."""
    params = [w for net in weights for w in net] + biases
    opt = Adam(params, lr=1e-2)
    penalty = L2Penalty(opt, weights, l2) if l2 != 0.0 else None
    work = new_work()
    penalized(loss_fn(first, work), penalty)
    opt.step()
    penalized(loss_fn(second, work), penalty)
    reused = grads(params)
    penalized(loss_fn(second, new_work()), packed(weights, biases, l2))
    return reused, grads(params)


class TestGradientBuffersAreRewritten:
    """Adam's gradient vector and a workspace are reused from step to step,
    and each rule writes every entry of the gradient afresh, so nothing of
    the last step survives."""

    FIRST, SECOND = np.arange(32), np.arange(32, 64)

    def test_erm_with_l2(self):
        train = make_two_moons(32, 0.1, seed=1)
        encoder, classifier = init_model(EncoderConfig(width=8, depth=2), 2, 2, seed=0)
        reused, fresh = stale_then_fresh(
            *erm_layout(encoder, classifier), 1e-3,
            lambda idx, work: erm_loss(encoder, classifier, batch_rows(train.features, idx, work),
                                       train.labels[idx], work),
            lambda: DenseWorkspace(encoder.net, np.empty((32, 2))), self.FIRST, self.SECOND)
        assert_all_equal(reused, fresh)

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_flow_nll(self, l2):
        flow, rng = randomized_flow(6, 2, 1)
        z = rng.normal(size=(64, 6))
        reused, fresh = stale_then_fresh(*flow_layout(flow), l2,
                                         lambda idx, work: flow.nll_loss(
                                             batch_rows(z, idx, work), work),
                                         lambda: FlowWorkspace(flow, np.empty((32, 6))),
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
            [[theta]], [], 0.0,
            lambda idx, _: Tensor(*head_cross_entropy(z[idx], theta, train.labels[idx], s[idx])),
            lambda: None, self.FIRST, self.SECOND)
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


class TestLoopsWithL2AgainstPerOpLoops:
    """The shared loop with l2 > 0, over Adam's weights-first prefix, against
    the per-op reference loops, bit for bit: 100 rows in batches of 32, so
    the last batch (4 rows) runs on a workspace of its own."""

    def test_erm_in_float32(self):
        train = make_two_moons(50, 0.1, seed=6)
        enc_cfg = EncoderConfig(width=8, depth=2)
        cfg = TrainConfig(epochs=3, batch_size=32, l2=1e-2, optimizer=OptimizerSpec(lr=3e-3))
        encoder, classifier = init_model(enc_cfg, 2, 2, seed=6)
        twin_encoder, twin_classifier = init_model(enc_cfg, 2, 2, seed=6)
        trace = erm_train(encoder, classifier, train, cfg, 6)
        assert trace == ref.reference_erm(twin_encoder, twin_classifier, train, cfg, 6)
        assert_all_equal([p.data for p in encoder.params() + classifier.params()],
                         [p.data for p in twin_encoder.params() + twin_classifier.params()])

    @pytest.mark.parametrize("r", [3, 4])
    def test_flow(self, r):
        """Latents spanning r of 16 dims, each direction needed to keep 99%
        of the variance, so the flow runs on r coordinates. The fit matches
        a loop over arrays on the same loss node; at r = 4 it also matches
        the masked per-op tape. At r = 3 one half is a single column, where
        the half-width products round differently from the masked tape's
        full-width ones (see test_narrow_flow_matches_to_rounding)."""
        rng = np.random.default_rng(r)
        directions = np.linalg.qr(rng.normal(size=(16, r)))[0].T
        z = (rng.normal(size=(100, r)) * np.linspace(1.0, 0.6, r)) @ directions
        cfg = FlowConfig(coupling_layers=3, hidden_units=4, hidden_layers=2, epochs=3,
                         batch_size=32, l2=0.05, lr=1e-2)
        flow, trace = flow_fit(z, cfg, r)
        assert flow.dim == r
        coords, _ = flow.projection.project(z)
        looped = FlowModel.build(flow.projection, cfg, r)
        assert trace == per_array_flow_fit(looped, coords, cfg, r)
        assert_all_equal([p.data for p in flow.params()], [p.data for p in looped.params()])
        if r == 4:
            twin = ref.SplitFlow(FlowModel.build(flow.projection, cfg, r))
            assert trace == ref.reference_flow_fit(twin, coords, cfg, r)
            assert_all_equal([p.data for p in flow.params()], twin.stacked("data"))


def per_array_flow_fit(flow, coords, config, seed) -> list[float]:
    """The flow's fit as a loop over arrays: the program's loss node for the
    data term, the L2 value summed matrix by matrix in
    FlowModel.weight_tensors' order and its gradient added weight by weight,
    and the per-parameter Adam."""
    params = bind_grads(flow.params())
    stacked = [w for layer in flow.layers for w in layer.net.weight_tensors()]
    opt = ref.PerParamAdam(config.lr)
    rng = np.random.default_rng(seed)
    trace = []
    for _ in range(config.epochs):
        losses = []
        for idx in minibatches(len(coords), config.batch_size, rng):
            node = flow.nll_loss(coords[idx])
            total = None
            for w in flow.weight_tensors():
                part = (w.data * w.data).sum()
                total = part if total is None else total + part
            losses.append(float(node.data + total * config.l2))
            node.backward()
            for w in stacked:
                w.grad += config.l2 * (2.0 * w.data)
            opt.step(params)
        trace.append(float(np.mean(losses)))
    return trace


def held_objects(root) -> list:
    """Every object reachable from root through instances, containers and
    array bases, but not through types, modules or functions."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, np.ndarray):
            if obj.base is not None:
                stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


class TestFitsLeaveNothingBehind:
    """After a fit every grad is None, and the model holds its own arrays
    and nothing of the fit: no optimizer, penalty, workspace or gradient
    vector."""

    OF_A_FIT = (Adam, L2Penalty, DenseWorkspace, LayerArrays, CouplingWorkspace, FlowWorkspace)

    def check(self, model, params, own_arrays):
        held = held_objects(model)
        assert [p.grad for p in params] == [None] * len(params)
        assert [o for o in held if isinstance(o, self.OF_A_FIT)] == []
        owners = [o for o in held if isinstance(o, np.ndarray) and o.base is None]
        assert sum(a.nbytes for a in owners) == sum(a.nbytes for a in own_arrays)

    def test_erm_train(self):
        train = make_two_moons(50, 0.1, seed=0)  # batches 32, 32, 32, 4
        encoder, classifier = init_model(EncoderConfig(width=8, depth=2), 2, 2, seed=0)
        erm_train(encoder, classifier, train, TrainConfig(epochs=2, batch_size=32, l2=1e-3), 0)
        params = encoder.params() + classifier.params()
        self.check((encoder, classifier), params, [p.data for p in params])

    def test_flow_fit(self):
        z = np.random.default_rng(7).normal(size=(100, 5))
        flow, _ = flow_fit(z, FlowConfig(coupling_layers=2, hidden_units=4, hidden_layers=2,
                                         epochs=2, batch_size=32), 0)
        projection = flow.projection
        self.check(flow, flow.params(), [p.data for p in flow.params()]
                   + [projection.mean, projection.directions, projection.scales])


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

    def test_workspaces_are_freed_by_reference_counting(self):
        """A workspace refers to no loss node, optimizer or penalty, so it
        goes, with the step built on it, once its fit drops it."""
        flow, rng = randomized_flow(6, 2, 1)
        encoder, classifier = init_model(EncoderConfig(width=8, depth=2), 2, 2, seed=0)
        train = make_two_moons(8, 0.1, seed=0)
        gc.collect()
        gc.disable()
        try:
            flow_work = FlowWorkspace(flow, rng.normal(size=(16, 6)))
            erm_work = DenseWorkspace(encoder.net, train.features)
            penalized(flow.nll_loss(flow_work.x, flow_work),
                      packed(*flow_layout(flow), 0.01))
            penalized(erm_loss(encoder, classifier, train.features, train.labels, erm_work),
                      packed(*erm_layout(encoder, classifier), 1e-3))
            refs = [weakref.ref(w) for w in (flow_work, flow_work.layers[0].net, erm_work)]
            del flow_work, erm_work
            assert [r() for r in refs] == [None] * 3
            assert gc.collect() == 0
        finally:
            gc.enable()
