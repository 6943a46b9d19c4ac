"""The per-op autodiff tape: the test oracle for the fused training nodes.

The program trains with one loss node per stage and a hand-written backward
rule (``erm_loss``, ``head_cross_entropy``, ``FlowModel.nll_loss``). This
module holds a general reverse-mode tape to check them against: a
``Node`` records the operation that made it (matmul, broadcast add,
elementwise mul/exp/tanh/relu, square, sum, the softmax cross-entropy), and
``Node.backward`` walks the graph in reverse topological order, adding each
contribution to a node's lazy gradient out of place. Parameters enter the
graph as leaf ``Node``s of their own: ``node_net`` mirrors a program
``DenseNet`` with Node leaves that share its arrays (or copy them), so the
tape's gradients never touch the program's gradient buffers, while the
reference optimizer's in-place updates train the program's arrays.

The compositions below build each training stage's loss from these
primitives, one node per operation; the coupling layers here run on
full-width masked arrays with separate s- and t-nets, where the program's
kernels work on column halves with the two subnets stacked. ``slot_nets``
views a coupling layer's stacked slots as two 2-D nets and ``pass_mask``
builds its full-width mask from its pass-through columns, so no oracle
runs the stacked forward. A program coupling net maps the |P| pass-through
columns to the |T| transformed ones; ``SplitCoupling.full_width`` widens
its first weight to every row and its last weight and bias to every column
with zeros, by a tape op (``Node.widen``) whose backward hands the leaf its
live rows or columns, so the leaves, and the L2 the tape sums over them,
are the stored arrays. ``SplitFlow`` copies those subnets for the tape, and
its ``stacked`` lays their gradients out as the stacked parameters.
The tests require the fused nodes to reproduce their values and every
gradient bit for bit. The per-parameter Adam and the reference
training loops play the same role for the contiguous optimizer state and the
shared minibatch loop.
"""

from __future__ import annotations

import math

import numpy as np

from density_softmax.autodiff import Tensor
from density_softmax.density import FINAL, FlowModel
from density_softmax.layers import Dense, DenseNet
from density_softmax.model import minibatches

LOG_2PI = math.log(2.0 * math.pi)


def _as_f64(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    return arr


class Node:
    """Node in the computation graph: value, accumulated gradient, backward
    rule. A node without parents is a leaf: a parameter or an input."""

    __slots__ = ("data", "_grad", "_parents", "_backward")

    def __init__(self, data, parents=()):
        self.data = _as_f64(data)
        self._grad = None
        self._parents = tuple(parents)
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros while no contribution has arrived."""
        return np.zeros_like(self.data) if self._grad is None else self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

    def accumulate(self, g: np.ndarray) -> None:
        """Add one gradient contribution (never in place, see the module doc)."""
        self._grad = g if self._grad is None else self._grad + g

    def zero_grad(self) -> None:
        self._grad = None

    # -- graph construction ------------------------------------------------

    def __add__(self, other: "Node") -> "Node":
        out = Node(self.data + other.data, (self, other))

        def backward():
            self.accumulate(_unbroadcast(out.grad, self.data.shape))
            other.accumulate(_unbroadcast(out.grad, other.data.shape))

        out._backward = backward
        return out

    def __sub__(self, other: "Node") -> "Node":
        out = Node(self.data - other.data, (self, other))

        def backward():
            self.accumulate(_unbroadcast(out.grad, self.data.shape))
            other.accumulate(-_unbroadcast(out.grad, other.data.shape))

        out._backward = backward
        return out

    def __mul__(self, other: "Node") -> "Node":
        out = Node(self.data * other.data, (self, other))

        def backward():
            self.accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            other.accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

        out._backward = backward
        return out

    def __matmul__(self, other: "Node") -> "Node":
        out = Node(self.data @ other.data, (self, other))

        def backward():
            self.accumulate(out.grad @ other.data.T)
            other.accumulate(self.data.T @ out.grad)

        out._backward = backward
        return out

    def scale(self, c: float) -> "Node":
        """Multiply by a python scalar constant (not a graph node)."""
        c = float(c)
        out = Node(self.data * c, (self,))

        def backward():
            self.accumulate(out.grad * c)

        out._backward = backward
        return out

    def mul_const(self, c) -> "Node":
        """Elementwise multiply by a constant array (masks, frozen scales)."""
        c = _as_f64(c)
        out = Node(self.data * c, (self,))

        def backward():
            self.accumulate(_unbroadcast(out.grad * c, self.data.shape))

        out._backward = backward
        return out

    def widen(self, shape: tuple, index) -> "Node":
        """A zero array of ``shape`` holding self at ``index``; the backward
        hands self the gradient at ``index``."""
        data = np.zeros(shape)
        data[index] = self.data
        out = Node(data, (self,))

        def backward():
            self.accumulate(out.grad[index])

        out._backward = backward
        return out

    def add_const(self, c) -> "Node":
        c = _as_f64(c)
        out = Node(self.data + c, (self,))

        def backward():
            self.accumulate(_unbroadcast(out.grad, self.data.shape))

        out._backward = backward
        return out

    def relu(self) -> "Node":
        out = Node(np.maximum(self.data, 0.0), (self,))

        def backward():
            self.accumulate(out.grad * (self.data > 0.0))

        out._backward = backward
        return out

    def tanh(self) -> "Node":
        t = np.tanh(self.data)
        out = Node(t, (self,))

        def backward():
            self.accumulate(out.grad * (1.0 - t * t))

        out._backward = backward
        return out

    def exp(self) -> "Node":
        e = np.exp(self.data)
        out = Node(e, (self,))

        def backward():
            self.accumulate(out.grad * e)

        out._backward = backward
        return out

    def square(self) -> "Node":
        out = Node(self.data * self.data, (self,))

        def backward():
            self.accumulate(out.grad * (2.0 * self.data))

        out._backward = backward
        return out

    def sum(self) -> "Node":
        out = Node(self.data.sum(), (self,))

        def backward():
            self.accumulate(out.grad * np.ones_like(self.data))

        out._backward = backward
        return out

    # -- backward pass -----------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into every node reachable from self.

        ``self`` must be a scalar. Gradients add onto whatever is already in
        ``.grad``, so call :meth:`zero_grad` on parameters between steps.
        Nodes that no gradient reached are skipped.
        """
        if self.data.ndim != 0:
            raise ValueError("backward() requires a scalar loss node")
        order: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = self.grad + 1.0
        for node in reversed(order):
            if node._backward is not None and node._grad is not None:
                node._backward()


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def softmax_cross_entropy(logits: Node, labels: np.ndarray) -> Node:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Fused primitive: forward uses max-shifted log-sum-exp, backward is the
    closed form (softmax - onehot) / n. Shift invariance of softmax makes
    treating the per-row max as a constant exact.
    """
    labels = np.asarray(labels)
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match {n} logit rows")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label index out of range")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    losses = lse - shifted[np.arange(n), labels]
    out = Node(losses.mean(), (logits,))

    def backward():
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(n), labels] -= 1.0
        logits.accumulate(out.grad * probs / n)

    out._backward = backward
    return out

def dense_forward_tape(layer, x: Node) -> Node:
    h = x @ layer.weight
    if layer.bias is not None:
        h = h + layer.bias
    if layer.activation == "relu":
        h = h.relu()
    elif layer.activation == "tanh":
        h = h.tanh()
    return x + h if layer.residual else h


def densenet_forward_tape(net, x: Node) -> Node:
    for layer in net.layers:
        x = dense_forward_tape(layer, x)
    return x


def l2_penalty(weights: list[Node], coefficient: float) -> Node | None:
    if coefficient == 0.0 or not weights:
        return None
    total = weights[0].square().sum()
    for w in weights[1:]:
        total = total + w.square().sum()
    return total.scale(coefficient)


def node_net(net: DenseNet, copy: bool = False) -> DenseNet:
    """net's layers with Node leaves holding its arrays (copies if ``copy``)."""
    def leaf(a):
        return Node(a.copy() if copy else a)

    return DenseNet([Dense(leaf(x.weight.data),
                           None if x.bias is None else leaf(x.bias.data),
                           x.activation, x.residual) for x in net.layers])


def subnet_arrays(flow) -> list[np.ndarray]:
    """Writable views of every subnet parameter of a stacked flow, in the
    order of separate subnets: per coupling layer the s-net's weights and
    biases depth by depth, then the t-net's."""
    out = []
    for layer in flow.layers:
        for slot in (0, 1):
            for dense in layer.net.layers:
                out.append(dense.weight.data[slot])
                if dense.bias is not None:
                    out.append(dense.bias.data[slot, 0])
    return out


def slot_nets(layer) -> tuple[DenseNet, DenseNet]:
    """A coupling layer's s-net and t-net as 2-D DenseNets over views of its
    stacked slots, each with its own last activation (FINAL)."""
    end = len(layer.net.layers) - 1
    return tuple(DenseNet([
        Dense(Tensor(x.weight.data[slot]),
              None if x.bias is None else Tensor(x.bias.data[slot, 0]),
              FINAL[slot] if i == end else x.activation, x.residual)
        for i, x in enumerate(layer.net.layers)]) for slot in (0, 1))


def pass_mask(layer) -> np.ndarray:
    """The full-width mask of a coupling layer: ones on its pass-through
    columns."""
    mask = np.zeros(layer.dim)
    mask[layer.p_cols] = 1.0
    return mask


class SplitCoupling:
    """A coupling layer's mask and its subnets as separate DenseNets with
    their own parameters: the layer the tape differentiates."""

    def __init__(self, layer):
        self.dim, self.p_cols, self.t_cols = layer.dim, layer.p_cols, layer.t_cols
        self.mask = pass_mask(layer)
        self.s_net, self.t_net = (node_net(net, copy=True) for net in slot_nets(layer))

    def full_width(self) -> list[DenseNet]:
        """The s-net and the t-net as the masked composition's dim -> dim
        nets: each first weight widened to rows P and each last weight and
        bias to columns T, zeros elsewhere."""
        nets = []
        for net in (self.s_net, self.t_net):
            end, dense = len(net.layers) - 1, []
            for i, x in enumerate(net.layers):
                w, b = x.weight, x.bias
                if i == 0:
                    w = w.widen((self.dim, w.shape[1]), self.p_cols)
                if i == end:
                    w = w.widen((w.shape[0], self.dim), (slice(None), self.t_cols))
                    b = None if b is None else b.widen((self.dim,), self.t_cols)
                dense.append(Dense(w, b, x.activation, x.residual))
            nets.append(DenseNet(dense))
        return nets

    def params(self) -> list[Node]:
        return self.s_net.params() + self.t_net.params()

    def stacked(self, attr: str) -> list[np.ndarray]:
        """``attr`` ("data" or "grad") of the subnets' parameters laid out as
        the coupling layer's stacked parameters: per depth the weights
        (2, in, out), then the biases (2, 1, out)."""
        out = []
        for s, t in zip(self.s_net.layers, self.t_net.layers):
            out.append(np.stack([getattr(s.weight, attr), getattr(t.weight, attr)]))
            if s.bias is not None:
                out.append(np.stack([getattr(s.bias, attr),
                                     getattr(t.bias, attr)]).reshape(2, 1, -1))
        return out


class SplitFlow:
    """A stacked FlowModel's twin with separate subnets (copies)."""

    def __init__(self, flow):
        self.dim = flow.dim
        self.layers = [SplitCoupling(layer) for layer in flow.layers]

    def params(self) -> list[Node]:
        return [p for layer in self.layers for p in layer.params()]

    def weight_tensors(self) -> list[Node]:
        return [w for layer in self.layers
                for w in layer.s_net.weight_tensors() + layer.t_net.weight_tensors()]

    def stacked(self, attr: str) -> list[np.ndarray]:
        """attr of every parameter in the stacked flow's ``params()`` order."""
        return [a for layer in self.layers for a in layer.stacked(attr)]

    def to_flow(self) -> FlowModel:
        """The stacked FlowModel of the twin's current parameters."""
        nets = []
        for layer in self.layers:
            arrays = iter(layer.stacked("data"))
            end = len(layer.s_net.layers) - 1
            nets.append(DenseNet([
                Dense(Tensor(next(arrays)), None if x.bias is None else Tensor(next(arrays)),
                      "linear" if i == end else x.activation, x.residual)
                for i, x in enumerate(layer.s_net.layers)]))
        return FlowModel(self.dim, nets)


def coupling_forward_tape(layer, z: Node) -> tuple[Node, Node]:
    comp = 1.0 - layer.mask
    h = z.mul_const(layer.mask)
    s_net, t_net = layer.full_width()
    s = densenet_forward_tape(s_net, h).mul_const(comp)
    b = densenet_forward_tape(t_net, h).mul_const(comp)
    t = h + (z * s.exp() + b).mul_const(comp)
    return t, s.sum()


def masked_coupling_forward(layer, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A coupling layer's inference forward on full-width masked arrays,
    through its slots' 2-D nets widened to dim -> dim: h = m*z,
    s = S(h)*(1-m), t = h + (z*exp(s) + T(h)*(1-m))*(1-m); returns t and
    log|det| per row."""
    twin = SplitCoupling(layer)
    comp = 1.0 - twin.mask
    s_net, t_net = twin.full_width()
    h = z * twin.mask
    s = s_net.forward(h) * comp
    t = h + (z * np.exp(s) + t_net.forward(h) * comp) * comp
    return t, s.sum(axis=1)


def masked_log_density(flow, z: np.ndarray) -> np.ndarray:
    """Per-row flow log-density through masked_coupling_forward."""
    log_det = np.zeros(z.shape[0])
    for layer in flow.layers:
        z, layer_log_det = masked_coupling_forward(layer, z)
        log_det += layer_log_det
    return -0.5 * (z * z).sum(axis=1) - 0.5 * flow.dim * LOG_2PI + log_det


def flow_nll_loss(flow, batch: np.ndarray, l2: float) -> Node:
    n, d = batch.shape
    z = Node(batch)
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

    def step(self, params: list[Node]) -> None:
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


def reference_loop(loss_fn, params, lr, n, batch_size, epochs, seed) -> list[float]:
    """The minibatch loop as each training stage spelled it out."""
    opt = PerParamAdam(lr)
    rng = np.random.default_rng(seed)
    trace = []
    for _ in range(epochs):
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


def erm_loss(net: DenseNet, theta: Node, x: np.ndarray, labels: np.ndarray,
             l2: float) -> Node:
    """The ERM loss of an encoder net and a head theta with Node leaves."""
    z = densenet_forward_tape(net, Node(x))
    loss = softmax_cross_entropy(z @ theta, labels)
    penalty = l2_penalty(net.weight_tensors() + [theta], l2)
    return loss if penalty is None else loss + penalty


def reopt_loss(theta: Node, z: np.ndarray, s: np.ndarray, labels: np.ndarray) -> Node:
    scaled = (Node(z) @ theta).mul_const(s[:, None])
    return softmax_cross_entropy(scaled, labels)


def reference_erm(encoder, classifier, train, config) -> list[float]:
    """ERM on the tape, training the program encoder's and head's arrays."""
    net, theta = node_net(encoder.net), Node(classifier.theta.data)

    def loss_fn(idx):
        return erm_loss(net, theta, train.features[idx], train.labels[idx], config.l2)

    return reference_loop(loss_fn, net.params() + [theta],
                          config.optimizer.lr, train.n, config.batch_size,
                          config.epochs, config.seed)


def reference_flow_fit(flow, z, config) -> list[float]:
    return reference_loop(lambda idx: flow_nll_loss(flow, z[idx], config.l2),
                          flow.params(), config.lr, z.shape[0],
                          config.batch_size, config.epochs, config.seed)


def reference_reopt(theta: np.ndarray, z, s, labels, config) -> list[float]:
    """Re-optimization on the tape, training the head array theta in place."""
    node = Node(theta)
    return reference_loop(lambda idx: reopt_loss(node, z[idx], s[idx], labels[idx]),
                          [node], config.lr, z.shape[0],
                          config.batch_size, config.epochs, config.seed)
