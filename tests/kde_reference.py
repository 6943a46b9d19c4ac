"""Reference Gaussian KDE kernels.

`KdeModel.log_density` walks the query rows in chunks through one reused
buffer; `kde_log_density` keeps the whole-matrix form of the same formula,
so tests can hold the chunked kernel to it bit for bit. It reads the
model's stored facts (mean, directions, support coordinates, bandwidth) and derives the rest itself. `full_space_log_density` is the
KDE on d-wide support rows, which the projected one equals where the
support lies in its subspace.
"""

import math

import numpy as np

from density_softmax.ops import gemm_rows

LOG_2PI = math.log(2.0 * math.pi)


def logsumexp(a: np.ndarray, axis=None):
    a = np.asarray(a, dtype=np.float64)
    m = a.max(axis=axis, keepdims=True)
    out = np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m
    return float(out.item()) if axis is None else np.squeeze(out, axis=axis)


def kde_log_density(kde, z: np.ndarray) -> np.ndarray:
    """log-mean of Gaussian kernels on the coordinates c plus the Gaussian
    on the residual, every log-kernel in one matrix: the GEMM of [c/h, 1]
    against [s/h, -||s/h||^2/2] gives c.s/h^2 - ||s||^2/(2h^2), and
    ||c||^2 + ||residual||^2 = ||z - mean||^2 comes after the log-sum-exp.
    A 1-row z is scored as two rows, as the program walks it (ops.gemm_rows)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    rows = len(z)
    z = gemm_rows(z)
    mean, directions, h = kde.mean, kde.directions, kde.bandwidth
    n, d = kde.support.shape[0], mean.size
    with np.errstate(over="ignore", invalid="ignore"):
        centered = z - mean
        query = np.hstack([np.einsum("rd,nd->nr", directions, centered) / h,
                           np.ones((len(z), 1))])
        v = kde.support / h
        support = np.hstack([v, -0.5 * np.einsum("nr,nr->n", v, v)[:, None]])
        sq = np.einsum("nd,nd->n", centered, centered) / h / h * 0.5
        out = logsumexp(query @ support.T, axis=1) - sq
    norm = math.log(n) + d * math.log(h) + 0.5 * d * LOG_2PI
    return (np.fmax(out, -np.inf) - norm)[:rows]


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
