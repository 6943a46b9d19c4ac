"""Per-op reference compositions for the fused training nodes.

These build the forward passes of the fused nodes (a dense stack, the flow
loss, the L2 penalty) out of the generic autodiff primitives, one tape node
per operation; the coupling layers here run on full-width masked arrays,
where the program's kernels work on column halves. The tests require the
fused nodes to reproduce their values and every gradient bit for bit. The per-parameter Adam and the reference training
loops play the same role for the contiguous optimizer state and the shared
minibatch loop.
"""

from __future__ import annotations

import math

import numpy as np

from density_softmax.autodiff import Tensor, softmax_cross_entropy
from density_softmax.model import minibatches
from density_softmax.optim import OptimizerSpec

LOG_2PI = math.log(2.0 * math.pi)


def dense_forward_tape(layer, x: Tensor) -> Tensor:
    h = x @ layer.weight
    if layer.bias is not None:
        h = h + layer.bias
    if layer.activation == "relu":
        h = h.relu()
    elif layer.activation == "tanh":
        h = h.tanh()
    return x + h if layer.residual else h


def densenet_forward_tape(net, x: Tensor) -> Tensor:
    for layer in net.layers:
        x = dense_forward_tape(layer, x)
    return x


def l2_penalty(weights: list[Tensor], coefficient: float) -> Tensor | None:
    if coefficient == 0.0 or not weights:
        return None
    total = weights[0].square().sum()
    for w in weights[1:]:
        total = total + w.square().sum()
    return total.scale(coefficient)


def coupling_forward_tape(layer, z: Tensor) -> tuple[Tensor, Tensor]:
    comp = 1.0 - layer.mask
    h = z.mul_const(layer.mask)
    s = densenet_forward_tape(layer.s_net, h).mul_const(comp)
    b = densenet_forward_tape(layer.t_net, h).mul_const(comp)
    t = h + (z * s.exp() + b).mul_const(comp)
    return t, s.sum()


def masked_coupling_forward(layer, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A coupling layer's inference forward on full-width masked arrays:
    h = m*z, s = S(h)*(1-m), t = h + (z*exp(s) + T(h)*(1-m))*(1-m); returns
    t and log|det| per row."""
    comp = 1.0 - layer.mask
    h = z * layer.mask
    s = layer.s_net.forward(h) * comp
    t = h + (z * np.exp(s) + layer.t_net.forward(h) * comp) * comp
    return t, s.sum(axis=1)


def masked_log_density(flow, z: np.ndarray) -> np.ndarray:
    """Per-row flow log-density through masked_coupling_forward."""
    log_det = np.zeros(z.shape[0])
    for layer in flow.layers:
        z, layer_log_det = masked_coupling_forward(layer, z)
        log_det += layer_log_det
    return -0.5 * (z * z).sum(axis=1) - 0.5 * flow.dim * LOG_2PI + log_det


def flow_nll_loss(flow, batch: np.ndarray, l2: float) -> Tensor:
    n, d = batch.shape
    z = Tensor(batch)
    s_total = None
    for layer in flow.layers:
        z, s_sum = coupling_forward_tape(layer, z)
        s_total = s_sum if s_total is None else s_total + s_sum
    loss = (z.square().sum().scale(0.5) - s_total).scale(1.0 / n)
    loss = loss.add_const(0.5 * d * LOG_2PI)
    penalty = l2_penalty(flow.weight_tensors(), l2)
    if penalty is not None:
        loss = loss + penalty
    return loss


class PerParamAdam:
    """Adam with one state array per parameter, stepping them one by one."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m: dict[int, np.ndarray] = {}
        self.v: dict[int, np.ndarray] = {}
        self.t = 0

    def step(self, params: list[Tensor]) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p in params:
            g = p.grad
            m = self.m.setdefault(id(p), np.zeros_like(p.data))
            v = self.v.setdefault(id(p), np.zeros_like(p.data))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / b1t
            v_hat = v / b2t
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_loop(loss_fn, params, spec, n, batch_size, epochs, seed,
                   lr_at=None) -> list[float]:
    """The minibatch loop as each training stage spelled it out (Adam only)."""
    assert spec.kind == "adam"
    opt = PerParamAdam(spec.lr, spec.beta1, spec.beta2, spec.eps)
    rng = np.random.default_rng(seed)
    trace = []
    for epoch in range(epochs):
        if lr_at is not None:
            opt.lr = lr_at(epoch)
        losses = []
        for idx in minibatches(n, batch_size, rng):
            loss = loss_fn(idx)
            assert np.isfinite(loss.data)
            for p in params:
                p.zero_grad()
            loss.backward()
            opt.step(params)
            losses.append(float(loss.data))
        trace.append(float(np.mean(losses)))
    return trace


def reference_erm(encoder, classifier, train, config) -> list[float]:
    weights = encoder.net.weight_tensors() + [classifier.theta]

    def loss_fn(idx):
        z = densenet_forward_tape(encoder.net, Tensor(train.features[idx]))
        loss = softmax_cross_entropy(z @ classifier.theta, train.labels[idx])
        penalty = l2_penalty(weights, config.l2)
        return loss if penalty is None else loss + penalty

    return reference_loop(loss_fn, encoder.params() + classifier.params(),
                          config.optimizer, train.n, config.batch_size,
                          config.epochs, config.seed, config.lr_at)


def reference_flow_fit(flow, z, config) -> list[float]:
    return reference_loop(lambda idx: flow_nll_loss(flow, z[idx], config.l2),
                          flow.params(), OptimizerSpec(lr=config.lr), z.shape[0],
                          config.batch_size, config.epochs, config.seed)


def reference_reopt(theta: Tensor, z, s, labels, config) -> list[float]:
    def loss_fn(idx):
        scaled = (Tensor(z[idx]) @ theta).mul_const(s[idx][:, None])
        return softmax_cross_entropy(scaled, labels[idx])

    return reference_loop(loss_fn, [theta], OptimizerSpec(lr=config.lr), z.shape[0],
                          config.batch_size, config.epochs, config.seed)
