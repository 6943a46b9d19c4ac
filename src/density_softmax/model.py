"""Residual feed-forward encoder, bias-free linear classifier, ERM training.

The encoder is an input projection followed by `depth` residual blocks
y = x + relu(Wx + b), so its width is the latent dimension. The
classifier is a single d_z x K matrix with no bias; logits are z @ theta.
ERM and re-optimization share the head's fused ``head_cross_entropy``, and
every training stage shares ``train_minibatches``: Adam at a fixed rate over
the weights packed first and the biases after, with the one L2 path
(``optim.L2Penalty``) over that weight prefix.

ERM steps in float32 (``ERM_DTYPE``): ``erm_train`` casts the features and
the encoder's and head's parameters down once (``narrow``) and trains them;
the encoder keeps its float32 arrays and the head widens back to float64,
which is exact. ``init_model`` draws weights that float32 holds exactly, so
an untrained parameter survives the round trip too.

``Encoder.encode`` walks in its weights' dtype, float32 for every encoder
this program trains or loads (``serialize.load_container`` narrows an
encoder whose weights and biases are all float32 values), and hands float64
latents on. It walks a 1-row batch as two identical rows (``ops.gemm_rows``),
so at the default config's widths a row's latent has the same bits in any
batch. A row that the float32 walk cannot hold (an input past float32's
3.4e38, or one that overflows on the way) is walked again in float64 from
the exactly widened weights. Every later stage (the density fit and
``compute_scale``, re-optimization, the head and the density at inference)
runs in float64.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from .autodiff import Tensor, bound_grad
from .config import EncoderConfig, TrainConfig
from .data import DataError, LabeledSet, require_fittable
from .layers import Activation, Dense, DenseNet, DenseWorkspace, fan_in_uniform
from .ops import NonFiniteRow, gemm_rows
from .optim import Adam, L2Penalty

# The dtype ERM trains the encoder and head in, and the one a trained
# encoder keeps and serves in; the head widens back to float64.
ERM_DTYPE = np.float32

# The largest train feature magnitude ERM takes. Adam squares each
# gradient, and a float32 square overflows beyond sqrt(3.4e38) = 1.8e19; the
# first layer's gradients grow with the features. Two moons on the default
# config trained with overflowing moments from |x| = 8.1e18 on (features
# scaled by 3.76e18), so the limit is a quarter of that root, 4.6e18.
ERM_FEATURE_LIMIT = float(np.sqrt(np.finfo(ERM_DTYPE).max)) / 4


class TrainingDiverged(RuntimeError):
    """Raised when a training loss goes non-finite (learning rate too high),
    or, with its own message, when the optimizer's moments overflow.

    Names the stage ("erm", "flow" or "reopt"), the epoch and the batch within
    it, and the last finite loss of the run (None if the first batch failed).
    """

    def __init__(self, stage: str, epoch: int, batch: int,
                 last_finite_loss: float | None, message: str | None = None):
        super().__init__(message or (
            f"non-finite {stage} loss at epoch {epoch}, batch {batch} "
            f"(last finite loss {last_finite_loss}); lower the learning rate"))
        self.stage = stage
        self.epoch = epoch
        self.batch = batch
        self.last_finite_loss = last_finite_loss


class Encoder:
    """Input projection plus residual blocks; the width is the latent width."""

    def __init__(self, net: DenseNet):
        if not net.layers:
            raise ValueError("encoder has no layers")
        self.net = net

    @property
    def input_dim(self) -> int:
        """The input width: the rows of the first layer's weight."""
        return self.net.layers[0].weight.data.shape[0]

    @property
    def latent_dim(self) -> int:
        """The latent width: the columns of the last layer's weight."""
        return self.net.layers[-1].weight.data.shape[1]

    def encode(self, x: np.ndarray) -> np.ndarray:
        """The float64 latents of x's rows as a batch; a 1-D x is one row.

        The stack walks in its weights' dtype, a 1-row batch as two rows,
        so at the default config's widths a row's latent has the same bits
        in any batch (see ``ops.gemm_rows``). Rows the walk leaves not
        finite are walked again in float64 from the exactly widened
        weights, the one walk that holds an input past float32's range; a
        row that overflows float64 too raises NonFiniteRow ("latent row i
        is not finite"), i counted in x."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} input columns, got {x.shape[1]}")
        z = _walk(self.net, x)
        if np.isfinite(z).all():  # the one scan of a batch whose latents are all finite
            return z
        far = np.flatnonzero(~np.isfinite(z).all(axis=1))
        if self.net.layers[0].weight.data.dtype != np.float64:
            wide = DenseNet([replace(layer, weight=Tensor(layer.weight.data),
                                     bias=Tensor(layer.bias.data)) for layer in self.net.layers])
            z[far] = _walk(wide, x[far])
            far = far[~np.isfinite(z[far]).all(axis=1)]
        # a finite but huge input row can overflow on its way through the stack
        if far.size:
            raise NonFiniteRow("latent", int(far[0]))
        return z

    def encode_tape(self, x: np.ndarray, work: DenseWorkspace | None = None
                    ) -> tuple[np.ndarray, DenseWorkspace]:
        """Training forward: the latents of x and the workspace that
        ``DenseNet.backward`` takes. Given a workspace, x must be its input
        array; without one, a workspace is made on x."""
        if work is None:
            work = DenseWorkspace(self.net, x)
        return self.net.forward(x, work), work

    def params(self) -> list[Tensor]:
        return self.net.params()

    def param_count(self) -> int:
        return self.net.param_count()


def _walk(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """The stack's output for the float64 rows x, walked in the net's dtype
    (see ``ops.gemm_rows``), as float64 rows; overflows are left in it."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = net.forward(gemm_rows(x).astype(net.layers[0].weight.data.dtype, copy=False))
    return z[:len(x)].astype(np.float64, copy=False)


def narrow(params: list[Tensor]) -> None:
    """Rebind each parameter's data to an ERM_DTYPE copy of its own."""
    for p in params:
        p.data = p.data.astype(ERM_DTYPE)


class Classifier:
    """Bias-free linear head: logits = z @ theta, theta is d_z x K."""

    def __init__(self, theta: Tensor):
        self.theta = theta

    @property
    def k(self) -> int:
        return self.theta.data.shape[1]

    def logits(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.shape[-1] != self.theta.data.shape[0]:
            raise ValueError(
                f"latent dim {z.shape[-1]} does not match classifier rows "
                f"{self.theta.data.shape[0]}"
            )
        return z @ self.theta.data

    def params(self) -> list[Tensor]:
        return [self.theta]

    def param_count(self) -> int:
        return self.theta.data.size

    def clone(self) -> "Classifier":
        return Classifier(Tensor(self.theta.data.copy()))


def encoder_net(layers: list[tuple[Tensor, Tensor]], activation: Activation) -> DenseNet:
    """The encoder's stack over its (weight, bias) pairs, fresh or loaded, all with
    one activation: layer 0 projects the input, each later one is a residual block."""
    return DenseNet([Dense(weight, bias, activation, residual=i > 0)
                     for i, (weight, bias) in enumerate(layers)])


def init_model(config: EncoderConfig, input_dim: int, k: int, seed: int
               ) -> tuple[Encoder, Classifier]:
    """Fan-in scaled-uniform init of an encoder for input_dim columns and a
    k-class head, deterministic per seed; biases start at zero. Each weight
    is rounded to ERM_DTYPE and held as float64."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    if k < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    widths = [input_dim] + [config.width] * (config.depth + 1)
    layers = [(Tensor(fan_in_uniform(rng, n_in, n_out).astype(ERM_DTYPE)),
               Tensor(np.zeros(n_out)))
              for n_in, n_out in zip(widths, widths[1:])]
    encoder = Encoder(encoder_net(layers, config.activation))
    theta = Tensor(fan_in_uniform(rng, config.width, k).astype(ERM_DTYPE))
    return encoder, Classifier(theta)


def minibatches(n: int, batch_size: int, rng: np.random.Generator):
    """Shuffled index batches; the order is a pure function of the rng state."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def batch_rows(data: np.ndarray, idx: np.ndarray, work) -> np.ndarray:
    """The rows idx of data: gathered into the workspace's input array
    ``work.x`` when a workspace is given, else into a new array. idx is a
    slice of a permutation, so every index is in range, and mode="clip"
    only spares numpy the bounds check that would buffer the output."""
    return np.take(data, idx, axis=0, out=None if work is None else work.x, mode="clip")


def train_minibatches(stage: str, loss_fn: Callable[[np.ndarray, object], Tensor],
                      weights: list[list[Tensor]], biases: list[Tensor], l2: float,
                      lr: float, n: int, batch_size: int, epochs: int, seed: int,
                      workspace: Callable[[int], object] | None = None
                      ) -> list[float]:
    """The minibatch loop every training stage shares.

    Adam packs the weight matrices first, net by net (``weights`` holds each
    net's), and the biases after. ``workspace(rows)``, when given, makes the
    stage's training workspace for batches of ``rows`` rows: once Adam has
    packed, the loop makes one for the full batches and, when n is not a
    multiple of the batch size, one for the shorter last batch, and drops
    both on the way out. Each epoch visits the n rows in a seeded shuffle;
    per batch it builds the scalar loss node `loss_fn(idx, work)`, the data
    term, on the workspace of the batch's size (work None without
    ``workspace``); with l2 > 0 it adds l2 * sum(w^2) over the weights
    (``optim.L2Penalty``). It checks the loss is finite, runs the
    node's backward into Adam's packed gradient, adds the penalty's gradient
    and takes one Adam step at the fixed rate lr.
    Returns the per-epoch mean loss trace; a non-finite loss raises
    TrainingDiverged. So do moments that overflowed Adam's dtype
    (``Adam.moments_finite``), checked after each epoch's last step: the
    loss can stay finite while they do, but an entry whose second moment
    is infinite steps by 0. On the way out every ``grad`` is set to None,
    so a trained model holds no gradient memory.
    """
    opt = Adam([w for net in weights for w in net] + biases, lr)
    penalty = L2Penalty(opt, weights, l2) if l2 != 0.0 else None
    works = {}  # rows -> the workspace for batches of that many rows
    for rows in (min(batch_size, n), n % batch_size):
        if workspace is not None and rows and rows not in works:
            works[rows] = workspace(rows)
    rng = np.random.default_rng(seed)
    trace: list[float] = []
    last_finite = None
    try:
        for epoch in range(epochs):
            losses = []
            for batch, idx in enumerate(minibatches(n, batch_size, rng)):
                loss = loss_fn(idx, works.get(len(idx)))
                value = float(loss.data if penalty is None else penalty.add_to(loss.data))
                if not np.isfinite(value):
                    raise TrainingDiverged(stage, epoch, batch, last_finite)
                loss.backward()
                if penalty is not None:
                    penalty.backward()
                opt.step()
                losses.append(value)
                last_finite = value
            if not opt.moments_finite():
                raise TrainingDiverged(
                    stage, epoch, batch, last_finite,
                    f"the {stage} optimizer's moments overflowed {opt.v.dtype} by the end "
                    f"of epoch {epoch}: a squared gradient left the {opt.v.dtype} range, "
                    "where Adam's steps stall; rescale the inputs")
            trace.append(float(np.mean(losses)))
    finally:
        for p in opt.params:
            p.grad = None
    return trace


def head_cross_entropy(z: np.ndarray, theta: Tensor, labels: np.ndarray,
                       s: np.ndarray | None = None) -> tuple[float, Callable]:
    """Mean cross-entropy of softmax(s * (z @ theta)) against integer labels
    (no scaling when s is None), fused.

    The forward is a max-shifted log-sum-exp and the backward the closed
    form (softmax - onehot) / n; shift invariance of softmax makes treating
    the per-row max as a constant exact. Returns the loss and its rule:
    ``rule(input_grad=False)`` writes d(loss)/d(theta) to theta.grad and
    returns d(loss)/dz, or None when ``input_grad`` is false.
    """
    labels = np.asarray(labels)
    logits = z @ theta.data
    if s is not None:
        logits = logits * s[:, None]
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match {n} logit rows")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label index out of range")
    rows = np.arange(n)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    loss = (lse - shifted[rows, labels]).mean()

    def rule(input_grad: bool = False) -> np.ndarray | None:
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[rows, labels] -= 1.0
        g_logits = probs / n
        if s is not None:
            g_logits = g_logits * s[:, None]
        np.matmul(z.T, g_logits, out=bound_grad(theta, "classifier theta"))
        return g_logits @ theta.data.T if input_grad else None

    return loss, rule


def erm_loss(encoder: Encoder, classifier: Classifier, x: np.ndarray,
             labels: np.ndarray, work: DenseWorkspace | None = None) -> Tensor:
    """Mean cross-entropy of softmax(encode(x) @ theta) as one loss node, the
    data term (``train_minibatches`` adds the L2 term). Its rule runs the
    head, then the encoder stack (no gradient for x). ``work`` is the
    encoder's workspace on x (see ``Encoder.encode_tape``)."""
    z, work = encoder.encode_tape(x, work)
    loss, head_rule = head_cross_entropy(z, classifier.theta, labels)

    def rule() -> None:
        encoder.net.backward(work, head_rule(input_grad=True), input_grad=False)

    return Tensor(loss, rule)


def erm_train(encoder: Encoder, classifier: Classifier, train: LabeledSet,
              config: TrainConfig, seed: int) -> list[float]:
    """Minimize mean cross-entropy of softmax(classifier(encoder(x))), in the
    batch order seed draws (config.seed is not read).

    Returns the per-epoch mean loss trace. An optional l2 coefficient adds
    l2 * sum(w^2) over all weight matrices to the loss. The steps run in
    ERM_DTYPE, each batch size on one encoder workspace; on the way out,
    diverged or not, the encoder's parameters are ERM_DTYPE arrays of their
    own, which ``Encoder.encode`` walks in, and the head's is a float64
    array again. Train features beyond ERM_FEATURE_LIMIT (or beyond
    ERM_DTYPE's range) raise DataError and leave the parameters as they were.
    """
    require_fittable(train)
    limit, name = float(np.finfo(ERM_DTYPE).max), np.dtype(ERM_DTYPE).name
    scale = float(np.abs(train.features).max())
    if scale > limit:
        raise DataError(f"train features exceed {limit:.4g}, the largest {name} ERM trains in")
    if scale > ERM_FEATURE_LIMIT:
        raise DataError(f"train features reach {scale:.3g}, beyond {ERM_FEATURE_LIMIT:.3g}: ERM "
                        f"steps in {name} (range +-{limit:.4g}), which Adam's squared "
                        "gradients overflow at this feature scale; rescale the features")
    features = train.features.astype(ERM_DTYPE)
    narrow(encoder.params() + classifier.params())

    def workspace(rows: int) -> DenseWorkspace:
        return DenseWorkspace(encoder.net, np.empty((rows, features.shape[1]), ERM_DTYPE))

    def loss_fn(idx: np.ndarray, work: DenseWorkspace | None) -> Tensor:
        return erm_loss(encoder, classifier, batch_rows(features, idx, work), train.labels[idx],
                        work)

    try:
        return train_minibatches("erm", loss_fn,
                                 [encoder.net.weight_tensors(), classifier.params()],
                                 encoder.net.bias_tensors(), config.l2,
                                 config.optimizer.lr, train.n, config.batch_size,
                                 config.epochs, seed, workspace)
    finally:
        narrow(encoder.params())  # each its own array, not a view of Adam's vector
        for p in classifier.params():
            p.data = p.data.astype(np.float64)
