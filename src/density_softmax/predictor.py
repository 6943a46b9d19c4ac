"""Density-softmax predictor: frozen encoder, scaled likelihood, re-tuned head.

Training runs three steps: (1) standard ERM on encoder + classifier,
(2) density fit on the frozen encoder's train latents followed by likelihood
scaling, (3) re-optimization of the classifier alone against the
density-scaled objective. Inference multiplies each sample's logits by its
scaled likelihood s in (0, 1] before the softmax:

    probs = softmax(s * (z @ theta)),  z = encode(x),  s = scaled_likelihood(z)

so s -> 0 drives the prediction to uniform while s = 1 reproduces the plain
softmax bit for bit. Positive scaling never reorders logits, so the argmax
(and accuracy) match the plain softmax with the same weights. The ERM
baseline is the same model type without a density (s = 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .autodiff import Tensor
from .data import LabeledSet, require_fittable
from .density import FlowConfig, ScaledDensity, compute_scale, flow_fit, kde_fit
from .layers import fan_in_uniform
from .model import (Classifier, Encoder, EncoderConfig, TrainConfig, erm_train,
                    head_cross_entropy, init_model, train_minibatches)
from .ops import entropy, finite_rows, softmax
from .optim import OptimizerSpec


@dataclass(frozen=True)
class DensityConfig:
    """Which density estimator step 2 fits on the train latents."""

    kind: Literal["kde", "flow"] = "kde"
    bandwidth: float | None = None  # kde; None = Scott's rule
    flow: FlowConfig = FlowConfig()

    def __post_init__(self):
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError("bandwidth must be > 0")


@dataclass(frozen=True)
class ReoptConfig:
    epochs: int = 10
    batch_size: int = 128
    lr: float = 1e-4  # Adam
    reinit: bool = False  # start step 3 from fresh weights instead of step 1's
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class Prediction:
    probs: np.ndarray
    scaled_likelihood: np.ndarray | None  # None: no density (plain softmax)
    latent: np.ndarray | None  # None for an ensemble


@dataclass
class DensitySoftmaxModel:
    """Encoder, linear head and, optionally, a scaled density; without a
    density it is the plain-softmax (ERM) model."""

    encoder: Encoder
    classifier: Classifier
    density: ScaledDensity | None = None

    @property
    def k(self) -> int:
        return self.classifier.k

    @property
    def input_dim(self) -> int:
        return self.encoder.config.input_dim

    def predict(self, x: np.ndarray) -> Prediction:
        """One encoder pass, one density pass, one matrix product per sample.

        Rows with a NaN or an infinity are rejected up front (ValueError).
        """
        z = finite_rows(x)
        latent = self.encoder.encode(z)
        logits = self.classifier.logits(latent)
        if self.density is None:
            return Prediction(probs=softmax(logits), scaled_likelihood=None, latent=latent)
        s = self.density.scaled_likelihood(latent)
        probs = softmax(s[:, None] * logits)
        return Prediction(probs=probs, scaled_likelihood=s, latent=latent)

    def param_count(self) -> int:
        total = self.encoder.param_count() + self.classifier.param_count()
        return total if self.density is None else total + self.density.param_count()


@dataclass
class Ensemble:
    """Deep ensemble: members differ only by seed; the prediction is the
    arithmetic mean of member probability vectors."""

    members: list[DensitySoftmaxModel]

    def __post_init__(self):
        if not self.members:
            raise ValueError("an ensemble needs at least one member")
        first = self.members[0]
        for i, m in enumerate(self.members[1:], start=1):
            if m.k != first.k:
                raise ValueError(f"ensemble member {i} has k = {m.k}, "
                                 f"member 0 has k = {first.k}")
            dims = m.input_dim, first.input_dim
            if dims[0] != dims[1]:
                raise ValueError(f"ensemble member {i} has input_dim = {dims[0]}, "
                                 f"member 0 has input_dim = {dims[1]}")

    @property
    def k(self) -> int:
        return self.members[0].k

    @property
    def input_dim(self) -> int:
        return self.members[0].input_dim

    def predict(self, x: np.ndarray) -> Prediction:
        probs = np.mean([m.predict(x).probs for m in self.members], axis=0)
        return Prediction(probs=probs, scaled_likelihood=None, latent=None)

    def param_count(self) -> int:
        return sum(m.param_count() for m in self.members)


def ensemble_train(m: int, encoder_config: EncoderConfig, k: int,
                   train: LabeledSet, train_config: TrainConfig) -> Ensemble:
    if m < 2:
        raise ValueError("an ensemble needs at least 2 members")
    members = []
    for i in range(m):
        enc, clf = init_model(encoder_config, k, train_config.seed + i)
        erm_train(enc, clf, train, replace(train_config, seed=train_config.seed + i))
        members.append(DensitySoftmaxModel(enc, clf))
    return Ensemble(members)


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass
class PipelineResult:
    model: DensitySoftmaxModel
    erm_model: DensitySoftmaxModel  # step-1 head, no density; shares the encoder
    erm_loss_trace: list[float]
    density_loss_trace: list[float]
    reopt_loss_trace: list[float]


def reoptimize_classifier(model: DensitySoftmaxModel, train: LabeledSet,
                          config: ReoptConfig) -> list[float]:
    """Step 3: refit the classifier against softmax(s * logits) targets.

    Latents and scaled likelihoods are precomputed once (encoder and density
    are frozen), so each step's loss node touches only the d_z x K head.
    """
    require_fittable(train)
    if config.reinit:
        d_z, k = model.classifier.theta.data.shape
        model.classifier.theta.data[...] = fan_in_uniform(np.random.default_rng(config.seed),
                                                          d_z, k)
    z = model.encoder.encode(train.features)
    s = model.density.scaled_likelihood(z)
    theta = model.classifier.theta

    def loss_fn(idx: np.ndarray) -> Tensor:
        return Tensor(*head_cross_entropy(z[idx], theta, train.labels[idx], s[idx]))

    return train_minibatches("reopt", loss_fn, [theta], OptimizerSpec(lr=config.lr),
                             train.n, config.batch_size, config.epochs, config.seed)


def train_pipeline(train: LabeledSet, encoder_config: EncoderConfig,
                   train_config: TrainConfig, density_config: DensityConfig,
                   reopt_config: ReoptConfig, k: int = 2) -> PipelineResult:
    """Run all three training steps and keep the step-1 head as a baseline."""
    require_fittable(train)
    encoder, classifier = init_model(encoder_config, k, train_config.seed)
    try:
        erm_trace = erm_train(encoder, classifier, train, train_config)
    except Exception as exc:
        raise PipelineError("erm", exc) from exc
    erm_classifier = classifier.clone()

    try:
        train_z = encoder.encode(train.features)
        density_trace: list[float] = []
        if density_config.kind == "kde":
            fitted = kde_fit(train_z, density_config.bandwidth)
        else:
            fitted, density_trace = flow_fit(
                train_z, replace(density_config.flow, seed=train_config.seed))
        density = compute_scale(fitted, train_z)
    except Exception as exc:
        raise PipelineError("density", exc) from exc

    model = DensitySoftmaxModel(encoder=encoder, classifier=classifier, density=density)
    try:
        reopt_trace = reoptimize_classifier(
            model, train, replace(reopt_config, seed=train_config.seed))
    except Exception as exc:
        raise PipelineError("reoptimize", exc) from exc

    return PipelineResult(model=model,
                          erm_model=DensitySoftmaxModel(encoder, erm_classifier),
                          erm_loss_trace=erm_trace,
                          density_loss_trace=density_trace,
                          reopt_loss_trace=reopt_trace)


def predictive_summaries(probs: np.ndarray, scaled_likelihood: np.ndarray) -> dict:
    """Per-sample uncertainty summaries from a batch of predictions.

    Binary-only summaries (variance p(1-p), u(x) = 1 - 2|p - 0.5|, entropy in
    bits) require K = 2 and raise otherwise. Entropy in nats is always
    returned.
    """
    probs = np.atleast_2d(probs)
    out = {
        "max_prob": probs.max(axis=1),
        "entropy_nats": entropy(probs, "nats"),
        "scaled_likelihood": np.asarray(scaled_likelihood),
    }
    if probs.shape[1] == 2:
        p = probs[:, 1]
        out["variance"] = p * (1.0 - p)
        out["u"] = 1.0 - 2.0 * np.abs(p - 0.5)
        out["entropy_bits"] = entropy(probs, "bits")
    return out
