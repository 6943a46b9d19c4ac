"""Plain-numpy inference ops: input check, the two-row rule, softmax, entropy."""

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


def gemm_rows(x: np.ndarray) -> np.ndarray:
    """x, or a 1-row x repeated to two rows, for a product whose rows
    should not depend on the batch. numpy sends a 1-row product to gemv,
    whose last bits differ from gemm's. OpenBLAS's gemm gives a row the same
    bits in every product of two or more rows at the default config's
    shapes: the encoder's 2 -> 128 and 128 -> 128 layers in float32 and
    float64, and the KDE's r + 1 coordinates against its 1000 support rows
    (tests/test_ops.py checks them on the BLAS at hand). At some other
    output widths, such as 500 or 1001 support rows or a 100-wide layer, a
    row's last bits move with the batch even so. The caller keeps the first
    len(x) rows of the product."""
    return np.repeat(x, 2, axis=0) if len(x) == 1 else x


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

