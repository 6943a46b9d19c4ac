"""Residual feed-forward encoder, bias-free linear classifier, ERM training.

The encoder is an input projection followed by `depth` residual blocks
y = x + relu(Wx + b), so width must equal the latent dimension. The
classifier is a single d_z x K matrix with no bias; logits are z @ theta.
ERM and re-optimization share the head's fused ``head_cross_entropy``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autodiff import Tensor
from .data import LabeledSet, require_fittable
from .layers import Activation, Dense, DenseNet, fan_in_uniform, l2_backward, l2_value
from .ops import finite_rows
from .optim import OptimizerSpec


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


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int = 2
    width: int = 128
    depth: int = 12
    latent_dim: int | None = None  # None: equal to width
    activation: Activation = "relu"

    def __post_init__(self):
        if self.latent_dim is None:
            object.__setattr__(self, "latent_dim", self.width)
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.width != self.latent_dim:
            raise ValueError("width must equal latent_dim for residual blocks")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    lr_decay_epochs: tuple[int, ...] = ()
    lr_decay_ratio: float = 1.0
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def lr_at(self, epoch: int) -> float:
        decays = sum(1 for e in self.lr_decay_epochs if epoch >= e)
        return self.optimizer.lr * (self.lr_decay_ratio**decays)


class Encoder:
    """Input projection plus residual relu blocks."""

    def __init__(self, config: EncoderConfig, net: DenseNet):
        self.config = config
        self.net = net

    def encode(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.config.input_dim:
            raise ValueError(f"expected {self.config.input_dim} input columns, got {x.shape[1]}")
        with np.errstate(over="ignore", invalid="ignore"):
            z = self.net.forward(x)
        # a finite but huge input row can overflow on its way through the stack
        finite_rows(z, "latent")
        return z[0] if squeeze else z

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


def init_model(config: EncoderConfig, k: int, seed: int) -> tuple[Encoder, Classifier]:
    """Fan-in scaled-uniform init, deterministic per seed."""
    if k < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    layers = [Dense.init(rng, config.input_dim, config.width, config.activation)]
    for _ in range(config.depth):
        layers.append(Dense.init(rng, config.width, config.width, config.activation,
                                 residual=True))
    encoder = Encoder(config, DenseNet(layers))
    theta = Tensor(fan_in_uniform(rng, config.latent_dim, k))
    return encoder, Classifier(theta)


def minibatches(n: int, batch_size: int, rng: np.random.Generator):
    """Shuffled index batches; the order is a pure function of the rng state."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def train_minibatches(stage: str, loss_fn: Callable[[np.ndarray], Tensor],
                      params: list[Tensor], optimizer: OptimizerSpec, n: int,
                      batch_size: int, epochs: int, seed: int,
                      lr_at: Callable[[int], float] | None = None) -> list[float]:
    """The minibatch loop every training stage shares.

    Each epoch visits the n rows in a seeded shuffle; per batch it builds the
    scalar loss node `loss_fn(idx)`, checks it is finite, clears the grads,
    runs backward and takes one optimizer step. `lr_at(epoch)`, if given,
    sets the learning rate at the start of each epoch. Returns the per-epoch
    mean loss trace; a non-finite loss raises TrainingDiverged.
    """
    opt = optimizer.build()
    rng = np.random.default_rng(seed)
    trace: list[float] = []
    last_finite = None
    for epoch in range(epochs):
        if lr_at is not None:
            opt.lr = lr_at(epoch)
        losses = []
        for batch, idx in enumerate(minibatches(n, batch_size, rng)):
            loss = loss_fn(idx)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDiverged(stage, epoch, batch, last_finite)
            for p in params:
                p.zero_grad()
            loss.backward()
            opt.step(params)
            losses.append(value)
            last_finite = value
        trace.append(float(np.mean(losses)))
    return trace


def head_cross_entropy(z: np.ndarray, theta: Tensor, labels: np.ndarray,
                       s: np.ndarray | None = None) -> tuple[float, Callable]:
    """Mean cross-entropy of softmax(s * (z @ theta)) against integer labels
    (no scaling when s is None), fused.

    The forward is a max-shifted log-sum-exp and the backward the closed
    form (softmax - onehot) / n; shift invariance of softmax makes treating
    the per-row max as a constant exact. Returns the loss and its rule:
    ``rule(g, input_grad=False)`` adds g * d(loss)/d(theta) to theta's
    gradient and returns g * d(loss)/dz, or None when ``input_grad`` is false.
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

    def rule(g, input_grad: bool = False) -> np.ndarray | None:
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[rows, labels] -= 1.0
        g_logits = g * probs / n
        if s is not None:
            g_logits = g_logits * s[:, None]
        theta.accumulate(z.T @ g_logits)
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

    def rule(g) -> None:
        encoder.net.backward_cached(cache, head_rule(g, input_grad=True),
                                    input_grad=False)
        if weights:
            l2_backward(weights, l2, g)

    return Tensor(loss, rule)


def erm_train(encoder: Encoder, classifier: Classifier, train: LabeledSet,
              config: TrainConfig) -> list[float]:
    """Minimize mean cross-entropy of softmax(classifier(encoder(x))).

    Returns the per-epoch mean loss trace. An optional l2 coefficient adds
    l2 * sum(w^2) over all weight matrices to the loss.
    """
    require_fittable(train)

    def loss_fn(idx: np.ndarray) -> Tensor:
        return erm_loss(encoder, classifier, train.features[idx], train.labels[idx],
                        config.l2)

    return train_minibatches("erm", loss_fn, encoder.params() + classifier.params(),
                             config.optimizer, train.n, config.batch_size,
                             config.epochs, config.seed, config.lr_at)
