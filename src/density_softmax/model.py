"""Residual feed-forward encoder, bias-free linear classifier, ERM training.

The encoder is an input projection followed by `depth` residual blocks
y = x + relu(Wx + b), so its width is the latent dimension. The
classifier is a single d_z x K matrix with no bias; logits are z @ theta.
ERM and re-optimization share the head's fused ``head_cross_entropy``, and
every training stage shares ``train_minibatches``: Adam at a fixed rate over
the weights packed first and the biases after, with the one L2 path
(``optim.L2Penalty``) over that weight prefix.

ERM steps in float32 (``ERM_DTYPE``): ``erm_train`` casts the features and
the encoder's and head's parameters down once, trains them, and widens the
parameters back to float64, which is exact. ``init_model`` draws weights
that float32 holds exactly, so an untrained parameter survives the round
trip too. Every later stage (the train latents, the density fit and
``compute_scale``, re-optimization) and serving run in float64.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autodiff import Tensor, bound_grad
from .config import EncoderConfig, TrainConfig
from .data import DataError, LabeledSet, require_fittable
from .layers import Activation, Dense, DenseNet, DenseWorkspace, fan_in_uniform
from .ops import finite_rows
from .optim import Adam, L2Penalty

# The dtype ERM trains the encoder and head in; the model keeps float64
# arrays that hold its values exactly.
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
        """The latents of x's rows as a batch; a 1-D x is one row."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} input columns, got {x.shape[1]}")
        with np.errstate(over="ignore", invalid="ignore"):
            z = self.net.forward(x)
        # a finite but huge input row can overflow on its way through the stack
        finite_rows(z, "latent")
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
    stage's training workspace for batches of ``rows`` rows: the loop makes
    one for the full batches once Adam has packed, and drops it on the way
    out. Each epoch visits the n rows in a seeded shuffle; per batch it
    builds the scalar loss node `loss_fn(idx, work)`, the data term, on that
    workspace, or with work None for a shorter last batch (the node then
    makes its own); with l2 > 0 it adds l2 * sum(w^2) over the weights
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
    rows = min(batch_size, n)
    work = None if workspace is None else workspace(rows)
    rng = np.random.default_rng(seed)
    trace: list[float] = []
    last_finite = None
    try:
        for epoch in range(epochs):
            losses = []
            for batch, idx in enumerate(minibatches(n, batch_size, rng)):
                loss = loss_fn(idx, work if len(idx) == rows else None)
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
    ERM_DTYPE, the full batches on one encoder workspace; on the way out, diverged
    or not, every parameter is a float64 array again. Train features beyond
    ERM_FEATURE_LIMIT (or beyond ERM_DTYPE's range) raise DataError.
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
    params = encoder.params() + classifier.params()
    for p in params:
        p.data = p.data.astype(ERM_DTYPE)

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
        for p in params:
            p.data = p.data.astype(np.float64)
