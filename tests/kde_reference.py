"""Reference Gaussian KDE kernel: the one-shot n x N expansion.

`KdeModel.log_density` walks the query rows in chunks through one reused
buffer; this module keeps the whole-matrix form it replaced, so tests can
hold the chunked kernel to it bit for bit.
"""

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def logsumexp(a: np.ndarray, axis=None):
    a = np.asarray(a, dtype=np.float64)
    m = a.max(axis=axis, keepdims=True)
    out = np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m
    return float(out.item()) if axis is None else np.squeeze(out, axis=axis)


def kde_log_density(support: np.ndarray, bandwidth: float, z: np.ndarray) -> np.ndarray:
    """log-mean of Gaussian kernels, every squared distance in one matrix."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    n, d = support.shape
    # squared distances via the expansion ||z-s||^2 = ||z||^2 - 2 z.s + ||s||^2
    sq = (
        (z * z).sum(axis=1)[:, None]
        - 2.0 * z @ support.T
        + (support * support).sum(axis=1)[None, :]
    )
    np.maximum(sq, 0.0, out=sq)
    log_kernels = -sq / (2.0 * bandwidth**2)
    norm = math.log(n) + d * math.log(bandwidth) + 0.5 * d * LOG_2PI
    return logsumexp(log_kernels, axis=1) - norm
