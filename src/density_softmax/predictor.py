"""Density-softmax predictor: frozen encoder, scaled likelihood, re-tuned head.

Training runs three steps: (1) standard ERM on encoder + classifier,
(2) density fit on the frozen encoder's train latents (a KDE or coupling
layers on their coordinates under one ``LatentProjection``, times its
Gaussian on each row's distance off the projection's subspace),
then likelihood scaling in one scoring pass over the latent rows, (3)
re-optimization of the classifier alone against the density-scaled
objective, starting from step 1's head. Every step that trains uses Adam
at its own fixed learning rate. Step 1 steps in float32 and leaves the
encoder in float32, which it also serves in (a 1-row batch walked as two
rows, a row past float32's range walked again in float64; see
``Encoder.encode``), and the head as a float64 array of float32 values;
the latents it hands on, steps 2 and 3, and the head and density at
inference are float64. Inference multiplies each sample's logits by its
scaled likelihood s in (0, 1] before the softmax:

    probs = softmax(s * (z @ theta)),  z = encode(x),  s = scaled_likelihood(z)

so s -> 0 drives the prediction to uniform while s = 1 reproduces the plain
softmax bit for bit. In exact arithmetic a positive s never reorders the
logits, so the argmax would match the plain softmax with the same weights.
In floating point it need not: once s * logits falls below an ulp of the
softmax, the probabilities tie exactly and ``argmax(probs)`` picks class 0.
So a prediction serves its class as ``labels``, the argmax of the logits,
which is the plain softmax's class, and the metrics score it (at the
confidence max(probs), so a tied row counts at 1/K). The ERM baseline is
the same model type without a density (s = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .config import DensityConfig, EncoderConfig, ReoptConfig, TrainConfig
from .data import LabeledSet, require_fittable
from .density import ScaledDensity, compute_scale, flow_fit, kde_fit
from .model import (Classifier, Encoder, erm_train, head_cross_entropy, init_model,
                    train_minibatches)
from .ops import entropy, finite_rows, softmax


@dataclass(frozen=True)
class Prediction:
    probs: np.ndarray
    labels: np.ndarray  # the served class of each row (see the module docstring)
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
        return self.encoder.input_dim

    def predict(self, x: np.ndarray) -> Prediction:
        """One encoder pass, one density pass, one matrix product per sample;
        the served class is the argmax of the logits.

        Rows with a NaN or an infinity are rejected up front (ValueError).
        At the default config's shapes a row's latent has the same bits in
        a batch-1 call as in a batched one, and so has its s under a KDE;
        only a flow's s can differ in the last bits (see
        ScaledDensity.scaled_likelihood). The head's K-column product can
        round a row's logits, and so its probs, differently in another
        batch.
        """
        z = finite_rows(x)
        latent = self.encoder.encode(z)
        logits = self.classifier.logits(latent)
        labels = logits.argmax(axis=1)
        if self.density is None:
            return Prediction(softmax(logits), labels, scaled_likelihood=None, latent=latent)
        s = self.density.scaled_likelihood(latent)
        probs = softmax(s[:, None] * logits)
        return Prediction(probs, labels, scaled_likelihood=s, latent=latent)

    def param_count(self) -> int:
        total = self.encoder.param_count() + self.classifier.param_count()
        return total if self.density is None else total + self.density.param_count()


@dataclass
class Ensemble:
    """Deep ensemble: members differ only by seed; the prediction is the
    arithmetic mean of member probability vectors, and its class their
    argmax."""

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
        return Prediction(probs, probs.argmax(axis=1), scaled_likelihood=None, latent=None)

    def param_count(self) -> int:
        return sum(m.param_count() for m in self.members)


def ensemble_train(m: int, erm_model: DensitySoftmaxModel, encoder_config: EncoderConfig,
                   train: LabeledSet, train_config: TrainConfig) -> Ensemble:
    """erm_model, trained at train_config.seed, and m - 1 ERM models at seed + 1..m-1."""
    if m < 2:
        raise ValueError("an ensemble needs at least 2 members")
    members = [erm_model]
    for seed in range(train_config.seed + 1, train_config.seed + m):
        enc, clf = init_model(encoder_config, train.features.shape[1], erm_model.k, seed)
        erm_train(enc, clf, train, train_config, seed)
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


def reoptimize_classifier(classifier: Classifier, train: LabeledSet, z: np.ndarray,
                          s: np.ndarray, config: ReoptConfig, seed: int) -> list[float]:
    """Step 3: refit the classifier, from its current weights, against
    softmax(s * logits) targets, in the batch order seed draws.

    z and s are the train rows' latents and scaled likelihoods, computed once
    by the pipeline (encoder and density are frozen), so each step's loss
    node touches only the d_z x K head.
    """
    require_fittable(train)
    if len(z) != train.n or len(s) != train.n:
        raise ValueError(f"{len(z)} latents and {len(s)} scaled likelihoods "
                         f"for {train.n} train rows")
    theta = classifier.theta

    def loss_fn(idx: np.ndarray, _) -> Tensor:
        return Tensor(*head_cross_entropy(z[idx], theta, train.labels[idx], s[idx]))

    return train_minibatches("reopt", loss_fn, [[theta]], [], 0.0, config.lr,
                             train.n, config.batch_size, config.epochs, seed)


def train_pipeline(train: LabeledSet, encoder_config: EncoderConfig,
                   train_config: TrainConfig, density_config: DensityConfig,
                   reopt_config: ReoptConfig, k: int) -> PipelineResult:
    """Run all three training steps and keep the step-1 head as a baseline."""
    require_fittable(train)
    seed = train_config.seed  # the run's seed: every stage draws from it
    encoder, classifier = init_model(encoder_config, train.features.shape[1], k, seed)
    try:
        erm_trace = erm_train(encoder, classifier, train, train_config, seed)
    except Exception as exc:
        raise PipelineError("erm", exc) from exc
    erm_classifier = classifier.clone()

    try:
        train_z = encoder.encode(train.features)
        density_trace: list[float] = []
        if density_config.kind == "kde":
            fitted = kde_fit(train_z, density_config.bandwidth)
        else:
            fitted, density_trace = flow_fit(train_z, density_config.flow, seed)
        density, train_s = compute_scale(fitted, train_z)
    except Exception as exc:
        raise PipelineError("density", exc) from exc

    try:
        reopt_trace = reoptimize_classifier(classifier, train, train_z, train_s, reopt_config,
                                            seed)
    except Exception as exc:
        raise PipelineError("reoptimize", exc) from exc

    return PipelineResult(model=DensitySoftmaxModel(encoder, classifier, density),
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
