"""Plain-numpy inference ops: input check, softmax, entropy."""

from __future__ import annotations

import numpy as np

PROB_FLOOR = 1e-12


class NonFiniteRow(ValueError):
    """A batch row holds a NaN or an infinity: "<what> row <row> is not finite"."""

    def __init__(self, what: str, row: int):
        super().__init__(f"{what} row {row} is not finite")
        self.what = what
        self.row = row


def finite_rows(x, what: str = "input") -> np.ndarray:
    """x as a float64 batch of rows (one row if x is a vector). Raises
    ValueError naming the shape when x is not one row or a non-empty 2-D
    batch, and NonFiniteRow naming the first row that holds a NaN or an
    infinity."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError(f"{what} has shape {x.shape}; expected one row or a "
                         "non-empty (rows, columns) batch")
    if not np.isfinite(x).all():
        row = int(np.argmin(np.isfinite(x).reshape(len(x), -1).all(axis=1)))
        raise NonFiniteRow(what, row)
    return x


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis (max-subtracted exponentials)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0 or logits.shape[-1] < 2:
        raise ValueError("softmax needs at least 2 logits")
    if not np.all(np.isfinite(logits)):
        raise ValueError("softmax input must be finite")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def entropy(probs: np.ndarray, base: str = "nats") -> np.ndarray:
    """Shannon entropy along the last axis. base is 'nats' or 'bits'."""
    logs = {"nats": np.log, "bits": np.log2}
    if base not in logs:
        raise ValueError(f"unknown entropy base {base!r}")
    p = np.clip(np.asarray(probs, dtype=np.float64), PROB_FLOOR, 1.0)
    return -(p * logs[base](p)).sum(axis=-1)

