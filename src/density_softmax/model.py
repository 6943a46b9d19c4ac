"""Residual feed-forward encoder, bias-free linear classifier, ERM training.

The encoder is an input projection followed by `depth` residual blocks
y = x + relu(Wx + b), so its width is the latent dimension. The
classifier is a single d_z x K matrix with no bias; logits are z @ theta.
ERM and re-optimization share the head's fused ``head_cross_entropy``, and
every training stage shares ``train_minibatches``: Adam at a fixed rate.

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
from .layers import Activation, Dense, DenseNet, fan_in_uniform, l2_backward, l2_value
from .ops import finite_rows
from .optim import Adam

# The dtype ERM trains the encoder and head in; the model keeps float64
# arrays that hold its values exactly.
ERM_DTYPE = np.float32


class TrainingDiverged(RuntimeError):
    """Raised when a training loss goes non-finite (learning rate too high).

    Names the stage ("erm", "flow" or "reopt"), the epoch and the batch within
    it, and the last finite loss of the run (None if the first batch failed).
    """

    def __init__(self, stage: str, epoch: int, batch: int,
                 last_finite_loss: float | None):
        super().__init__(
            f"non-finite {stage} loss at epoch {epoch}, batch {batch} "
            f"(last finite loss {last_finite_loss}); lower the learning rate")
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

    def encode_tape(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """Training forward: the latents of x and the cache that
        ``DenseNet.backward_cached`` takes."""
        cache: list = []
        return self.net.forward(x, cache=cache), cache

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


def train_minibatches(stage: str, loss_fn: Callable[[np.ndarray], Tensor],
                      params: list[Tensor], lr: float, n: int, batch_size: int,
                      epochs: int, seed: int) -> list[float]:
    """The minibatch loop every training stage shares.

    Each epoch visits the n rows in a seeded shuffle; per batch it builds the
    scalar loss node `loss_fn(idx)`, checks it is finite, runs backward into
    Adam's packed gradient and takes one Adam step at the fixed rate lr.
    Returns the per-epoch mean loss trace; a non-finite loss raises
    TrainingDiverged. On the way out every ``grad`` is set to None, so a
    trained model holds no gradient memory.
    """
    opt = Adam(params, lr)
    rng = np.random.default_rng(seed)
    trace: list[float] = []
    last_finite = None
    try:
        for epoch in range(epochs):
            losses = []
            for batch, idx in enumerate(minibatches(n, batch_size, rng)):
                loss = loss_fn(idx)
                value = float(loss.data)
                if not np.isfinite(value):
                    raise TrainingDiverged(stage, epoch, batch, last_finite)
                loss.backward()
                opt.step()
                losses.append(value)
                last_finite = value
            trace.append(float(np.mean(losses)))
    finally:
        for p in params:
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
             labels: np.ndarray, l2: float) -> Tensor:
    """Mean cross-entropy of softmax(encode(x) @ theta) plus l2 * sum(w^2)
    over every weight matrix, as one loss node. Its rule runs the head, the
    encoder stack (no gradient for x) and the L2 term."""
    z, cache = encoder.encode_tape(x)
    loss, head_rule = head_cross_entropy(z, classifier.theta, labels)
    weights = encoder.net.weight_tensors() + [classifier.theta] if l2 != 0.0 else []
    if weights:
        loss = loss + l2_value([w.data for w in weights], l2)

    def rule() -> None:
        encoder.net.backward_cached(cache, head_rule(input_grad=True), input_grad=False)
        if weights:
            l2_backward(weights, l2)

    return Tensor(loss, rule)


def erm_train(encoder: Encoder, classifier: Classifier, train: LabeledSet,
              config: TrainConfig, seed: int) -> list[float]:
    """Minimize mean cross-entropy of softmax(classifier(encoder(x))), in the
    batch order seed draws (config.seed is not read).

    Returns the per-epoch mean loss trace. An optional l2 coefficient adds
    l2 * sum(w^2) over all weight matrices to the loss. The steps run in
    ERM_DTYPE; on the way out, diverged or not, every parameter is a float64
    array again. Train features beyond ERM_DTYPE's range raise DataError.
    """
    require_fittable(train)
    limit = np.finfo(ERM_DTYPE).max
    if np.abs(train.features).max() > limit:
        raise DataError(f"train features exceed {limit:.4g}, the largest "
                        f"{np.dtype(ERM_DTYPE).name} ERM trains in")
    features = train.features.astype(ERM_DTYPE)
    params = encoder.params() + classifier.params()
    for p in params:
        p.data = p.data.astype(ERM_DTYPE)

    def loss_fn(idx: np.ndarray) -> Tensor:
        return erm_loss(encoder, classifier, features[idx], train.labels[idx], config.l2)

    try:
        return train_minibatches("erm", loss_fn, params, config.optimizer.lr, train.n,
                                 config.batch_size, config.epochs, seed)
    finally:
        for p in params:
            p.data = p.data.astype(np.float64)
