"""Output checks for the benchmark and the digests that fingerprint a run.

Every check returns the problems it found as short strings; an operation
whose checks return anything counts as failed.

The argmax check is tie-aware: a positive scale s never reorders logits,
but when s * (logit gap) is below float64 resolution, ``softmax`` returns
exactly equal probabilities (every OOD row, whose s is near the floor, is
such a tie). The property that holds in floating point is that the class
with the largest logit attains the largest probability; with no tie this
is the same as ``argmax probs == argmax logits``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from density_softmax.density import LIKELIHOOD_FLOOR

SUM_TOL = 1e-12
BATCH_REL_TOL = 1e-12


def prediction_problems(probs: np.ndarray, s: np.ndarray,
                        logits: np.ndarray) -> list[str]:
    """Checks on one predict() output against the plain logits."""
    problems = []
    if not np.all(np.isfinite(probs)):
        problems.append("non-finite probs")
    elif np.any(np.abs(probs.sum(axis=1) - 1.0) > SUM_TOL):
        problems.append("probs rows do not sum to 1")
    if not np.all((s >= LIKELIHOOD_FLOOR) & (s <= 1.0)):
        problems.append("scaled likelihood outside [floor, 1]")
    top = probs[np.arange(len(probs)), logits.argmax(axis=1)]
    if np.any(top != probs.max(axis=1)):
        problems.append("argmax of softmax(s*logits) differs from argmax of logits")
    return problems


def model_problems(model, pred) -> list[str]:
    """Checks on one DensitySoftmaxModel.predict() output."""
    return prediction_problems(pred.probs, pred.scaled_likelihood,
                               model.classifier.logits(pred.latent))


def tied_rows(probs: np.ndarray) -> int:
    """Rows whose largest probability is shared by more than one class."""
    return int(((probs == probs.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum())


def train_scale_problems(model, train_x: np.ndarray, batch_size: int = 128) -> list[str]:
    """max s over the train latents must be exactly 1.

    The latents are encoded in one pass and scored in the same 128-row
    batches that compute_scale used, so the arithmetic is identical.
    """
    z = model.encoder.encode(train_x)
    best = max(float(model.density.scaled_likelihood(z[i:i + batch_size]).max())
               for i in range(0, len(z), batch_size))
    return [] if best == 1.0 else [f"max train scaled likelihood is {best!r}, not 1"]


def trace_problems(traces: dict[str, list[float]]) -> list[str]:
    return [f"non-finite {name} loss trace" for name, trace in traces.items()
            if not np.all(np.isfinite(trace))]


def batch_mismatch_rows(single: np.ndarray, batched: np.ndarray,
                        tol: float = BATCH_REL_TOL) -> np.ndarray:
    """Rows where a batch-1 result differs from the batched one by more than
    tol relative to the row's largest magnitude."""
    single = np.atleast_2d(single)
    batched = np.atleast_2d(batched)
    scale = np.abs(batched).max(axis=1)
    return np.abs(single - batched).max(axis=1) > tol * scale


def digest(*arrays) -> str:
    """Short sha256 over the float64 bytes of each array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes())
    return h.hexdigest()[:16]
