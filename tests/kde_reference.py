"""Reference Gaussian KDE kernels.

`KdeModel.log_density` walks the query rows in chunks through reused
buffers; `kde_log_density` keeps the whole-matrix form of the same formula,
so tests can hold the chunked kernel to it bit for bit, and
`chunkwise_log_density` runs it over the program's chunks (`chunk_bounds`).
It takes each row's coordinates and residual term from the model's
projection (`LatentProjection.project`, which TestLatentProjection checks on
its own), reads the support and derives the rest itself, its norms by
`np.vecdot` as the program takes them.
`full_space_log_density` is the KDE on d-wide support rows, which the
projected one equals where the support lies in its subspace.
"""

import math

import numpy as np

from density_softmax.density import KDE_CHUNK_ROWS, chunk_bounds
from density_softmax.ops import gemm_rows

LOG_2PI = math.log(2.0 * math.pi)


def logsumexp(a: np.ndarray, axis=None):
    a = np.asarray(a, dtype=np.float64)
    m = a.max(axis=axis, keepdims=True)
    out = np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m
    return float(out.item()) if axis is None else np.squeeze(out, axis=axis)


def kde_log_density(kde, z: np.ndarray) -> np.ndarray:
    """log-mean of unit-bandwidth Gaussian kernels on the coordinates q plus
    the projection's residual term, every log-kernel in one matrix: the
    GEMM of [q, 1] against [s, -||s||^2/2] gives q.s - ||s||^2/2, and
    ||q||^2/2 and the residual term come after the log-sum-exp. A 1-row z
    is scored as two rows, as the program walks it (ops.gemm_rows)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    rows = len(z)
    projection, support = kde.projection, kde.support
    with np.errstate(over="ignore", invalid="ignore"):
        q, off = projection.project(gemm_rows(z))
        query = np.hstack([q, np.ones((len(q), 1))])
        # C-ordered as KdeModel.kernel_operand: gemm can round a transposed
        # (F-ordered) operand's products other ways
        operand = np.ascontiguousarray(np.vstack([support.T, -0.5 * np.vecdot(support, support)]))
        out = logsumexp(query @ operand, axis=1) - np.vecdot(q, q) * 0.5 + off
    (n, r), d = support.shape, projection.mean.size
    norm = (math.log(n) + float(np.log(projection.scales).sum())
            + (d - r) * math.log(projection.residual_scale) + 0.5 * d * LOG_2PI)
    return (np.fmax(out, -np.inf) - norm)[:rows]


def chunkwise_log_density(kde, z: np.ndarray) -> np.ndarray:
    """kde_log_density over each chunk of KdeModel.log_density. At a latent
    width of a few dims OpenBLAS's gemm gives a row other last bits in
    another row block, so a one-shot product is no oracle there."""
    bounds = chunk_bounds(len(z), KDE_CHUNK_ROWS)
    return np.concatenate([kde_log_density(kde, z[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])


def full_space_log_density(support: np.ndarray, bandwidth: float, z: np.ndarray) -> np.ndarray:
    """log-mean of Gaussian kernels at the d-wide support rows, every squared
    distance in one matrix by the expansion ||z-s||^2 = ||z||^2 - 2 z.s +
    ||s||^2: the unprojected KDE."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    n, d = support.shape
    sq = (
        (z * z).sum(axis=1)[:, None]
        - 2.0 * z @ support.T
        + (support * support).sum(axis=1)[None, :]
    )
    np.maximum(sq, 0.0, out=sq)
    log_kernels = -sq / (2.0 * bandwidth**2)
    norm = math.log(n) + d * math.log(bandwidth) + 0.5 * d * LOG_2PI
    return logsumexp(log_kernels, axis=1) - norm
