"""Latent-space density estimation and likelihood scaling.

Two estimators share the same interface (``log_density`` over rows):

* :class:`KdeModel` — Gaussian kernel density with a scalar bandwidth.
* :class:`FlowModel` — affine coupling flow with exact log-likelihood via
  the change-of-variables formula: log p(z) = log N(t; 0, I) + log|det J|
  where t is the stacked coupling transform of z. Each coupling layer
  splits z into pass-through columns P (its mask's ones, a prefix or a
  suffix of the columns) and transformed columns T, and its subnets read
  only z_P and compute only the T outputs. The log-det sums still run over
  a full-width array (s in T, zeros in P), so numpy's pairwise summation
  groups the terms as it does for the masked product s * (1 - mask) and
  the sums stay bit-identical to it (see :class:`CouplingLayer`).

After fitting, :func:`compute_scale` records the maximum train-point
log-density (a streaming max over batches); scaled likelihoods are then
exp(log p(z) - max), which lives in (0, 1] with the densest train point
mapping to exactly 1. Values that underflow are floored at the smallest
positive normal float so the interval stays open at 0 (this includes rows so
far out that every squared distance overflows: their log-density is -inf);
test points denser than any train point clamp to 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .layers import Dense, DenseNet, l2_backward, l2_value
from .model import train_minibatches
from .optim import OptimizerSpec

LIKELIHOOD_FLOOR = sys.float_info.min  # smallest positive normal float64

LOG_2PI = math.log(2.0 * math.pi)


# -- kernel density estimation ----------------------------------------------


# Query rows per distance GEMM in KdeModel.log_density: the compute_scale
# batch, so a chunk's 128 x n buffer stays ~1 MB at n = 1000 support rows.
KDE_CHUNK_ROWS = 128


@dataclass(frozen=True)
class KdeModel:
    """Gaussian KDE: log-mean of isotropic Gaussian kernels at the support.

    The support is copied and made read-only at construction, and its
    squared row norms and the kernel normalizer are cached then (derived
    state: not serialized, not compared), so a query pays only for its own
    rows.
    """

    support: np.ndarray  # n x d latent matrix
    bandwidth: float
    support_sq: np.ndarray = field(init=False, repr=False, compare=False)
    log_norm: float = field(init=False, repr=False, compare=False)  # log n h^d (2 pi)^(d/2)

    def __post_init__(self):
        support = np.array(self.support, dtype=np.float64)
        if support.ndim != 2 or support.shape[0] == 0:
            raise ValueError("KDE support must be a non-empty matrix")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        support.flags.writeable = False
        support_sq = (support * support).sum(axis=1)
        support_sq.flags.writeable = False
        n, d = support.shape
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "support_sq", support_sq)
        object.__setattr__(self, "log_norm", math.log(n) + d * math.log(self.bandwidth)
                           + 0.5 * d * LOG_2PI)

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def log_density(self, z: np.ndarray) -> np.ndarray:
        """Log-density of each row of z; -inf where every squared distance
        to the support overflows (a far, huge row), never NaN.

        Walks z in chunks of KDE_CHUNK_ROWS rows through one reused
        chunk x n buffer: ||z||^2 - 2 z.s + ||s||^2, clamped at 0, over
        -2h^2, then a max-shifted log-sum-exp. A 1-row tail is folded into
        the chunk before it, because numpy sends a 1-row product to another
        BLAS kernel whose last bits differ from the batched ones.
        """
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        rows = z.shape[0]
        bounds = list(range(0, rows, KDE_CHUNK_ROWS)) + [rows]
        if len(bounds) > 2 and rows - bounds[-2] == 1:
            del bounds[-2]
        buf = np.empty((min(rows, KDE_CHUNK_ROWS + 1), self.support.shape[0]))
        out = np.empty(rows)
        denom = -2.0 * self.bandwidth**2
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for lo, hi in zip(bounds, bounds[1:]):
                zc = z[lo:hi]
                a = buf[:hi - lo]
                np.matmul(zc * -2.0, self.support.T, out=a)
                a += (zc * zc).sum(axis=1)[:, None]
                a += self.support_sq
                np.maximum(a, 0.0, out=a)
                a /= denom
                m = a.max(axis=1)
                a -= m[:, None]
                np.exp(a, out=a)
                lse = out[lo:hi]
                np.log(a.sum(axis=1), out=lse)
                lse += m
        # A row whose max is -inf or NaN (every distance overflowed) came
        # out NaN; fmax turns exactly those into -inf.
        np.fmax(out, -np.inf, out=out)
        out -= self.log_norm
        return out

    def param_count(self) -> int:
        return self.support.size + 1  # stored support plus the bandwidth


def scott_bandwidth(z: np.ndarray) -> float:
    """Scott's factor n^(-1/(d+4)) times the mean per-dimension std."""
    z = np.asarray(z, dtype=np.float64)
    n, d = z.shape
    sigma = float(z.std(axis=0).mean())
    if sigma == 0.0:
        sigma = 1.0
    return float(n ** (-1.0 / (d + 4))) * sigma


def kde_fit(z: np.ndarray, bandwidth: float | None = None) -> KdeModel:
    z = np.asarray(z, dtype=np.float64)
    if bandwidth is None:
        bandwidth = scott_bandwidth(z)
    return KdeModel(support=z, bandwidth=float(bandwidth))


# -- coupling flow ------------------------------------------------------------


@dataclass
class CouplingLayer:
    """Affine coupling (RealNVP) on the split z = (z_P, z_T): the mask's
    ones mark the pass-through columns P, its zeros the transformed columns T.

    forward:  t_P = z_P,  t_T = z_T * exp(s) + b   with s = S(z_P), b = T(z_P)
    inverse:  z_P = t_P,  z_T = (t_T - b) * exp(-s)
    log|det| = sum of s over T.

    The kernels work on the column halves: each subnet reads z_P through
    its first layer's rows P and computes only its outputs T through its
    last layer's columns T, so no arithmetic runs on the zeros of a masked
    product. The skipped first-layer rows T and last-layer columns P stay
    in the parameters and get a zero data gradient (plus the L2 term). The
    halves are slices, cached at construction, so the mask's ones must be a
    prefix or a suffix (the only masks ``FlowModel.build`` writes), and both
    subnets must map len(mask) columns to len(mask) columns through
    non-residual end layers.

    The log-det sums run over a full-width array with s in T and zeros in
    P, laid out as the masked product s * (1 - mask) would be: numpy's
    pairwise summation groups terms by their position, so each sum groups
    its terms as the masked composition's does. Where the half-width
    matmuls also equal the full-width ones (at the default 128-d latent),
    the loss and its trace are bit-identical to the masked composition; at
    some small widths OpenBLAS picks another kernel for a half-width
    product, which moves the last bits.
    """

    mask: np.ndarray
    s_net: DenseNet
    t_net: DenseNet
    p_cols: slice = field(init=False, repr=False, compare=False)
    t_cols: slice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=np.float64)
        if not ((self.mask == 0) | (self.mask == 1)).all():
            raise ValueError("mask must be binary")
        d, k = self.mask.size, int(self.mask.sum())
        if k in (0, d):
            raise ValueError("mask needs at least one 0 and one 1")
        if self.mask[:k].all():
            self.p_cols, self.t_cols = slice(0, k), slice(k, d)
        elif self.mask[d - k:].all():
            self.p_cols, self.t_cols = slice(d - k, d), slice(0, d - k)
        else:
            raise ValueError("mask ones must be a prefix or a suffix of the mask")
        for name, net in (("s_net", self.s_net), ("t_net", self.t_net)):
            if not net.layers:
                raise ValueError("coupling subnets need at least one layer")
            first, last = net.layers[0], net.layers[-1]
            maps = (first.weight.data.shape[0], last.weight.data.shape[1])
            if maps != (d, d):
                raise ValueError(f"{name} maps {maps[0]} -> {maps[1]} columns, "
                                 f"the mask has length {d}")
            if first.residual or last.residual:
                raise ValueError(f"{name} first and last layers must not be residual")

    def _log_det_layout(self, s: np.ndarray) -> np.ndarray:
        """Zeros of the full width with s in the columns T."""
        out = np.zeros((s.shape[0], self.mask.size))
        out[:, self.t_cols] = s
        return out

    def forward(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inference forward: t and log|det| per row. Works in place on the
        s-net's fresh output."""
        p, tc = self.p_cols, self.t_cols
        zp = z[:, p]
        u = self.s_net.forward(zp, p, tc)
        out = self._log_det_layout(u)
        log_det = out.sum(axis=1)
        np.exp(u, out=u)
        u *= z[:, tc]
        u += self.t_net.forward(zp, p, tc)
        out[:, tc] = u
        out[:, p] = zp
        return out, log_det

    def inverse(self, t: np.ndarray) -> np.ndarray:
        p, tc = self.p_cols, self.t_cols
        tp = t[:, p]
        s = self.s_net.forward(tp, p, tc)
        b = self.t_net.forward(tp, p, tc)
        z = np.empty(t.shape)
        z[:, p] = tp
        z[:, tc] = (t[:, tc] - b) * np.exp(-s)
        return z

    def forward_cached(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Training forward: (t, sum of s over the batch, cache for backward)."""
        p, tc = self.p_cols, self.t_cols
        zp, zt = z[:, p], z[:, tc]
        s, s_cache = self.s_net.forward_cached(zp, p, tc)
        b, b_cache = self.t_net.forward_cached(zp, p, tc)
        out = self._log_det_layout(s)
        s_sum = out.sum()
        e = np.exp(s)
        out[:, tc] = zt * e + b
        out[:, p] = zp
        return out, s_sum, (zt, e, s_cache, b_cache)

    def backward_cached(self, cache: tuple, g_t: np.ndarray, g_s_sum,
                        t_net_first: bool, input_grad: bool = True) -> np.ndarray | None:
        """Add the subnets' parameter gradients; return d(loss)/dz, or None
        when ``input_grad`` is false.

        z_P collects three contributions, and floating-point addition is
        not associative, so their order is fixed to the one the per-op
        test oracle's depth-first walk produces: the pass-through term, then the
        s-net's, then the t-net's; `t_net_first` swaps the last two, which
        is the tape's order in the flow's final coupling layer.
        """
        zt, e, s_cache, b_cache = cache
        p, tc = self.p_cols, self.t_cols
        g_out = g_t[:, tc]
        g_s = g_s_sum + g_out * zt * e
        g_p_s = self.s_net.backward_cached(s_cache, g_s, p, tc, input_grad)
        g_p_t = self.t_net.backward_cached(b_cache, g_out, p, tc, input_grad)
        if not input_grad:
            return None
        g_z = np.empty(g_t.shape)
        g_z[:, tc] = g_out * e
        g_z[:, p] = (g_t[:, p] + g_p_t + g_p_s if t_net_first
                     else g_t[:, p] + g_p_s + g_p_t)
        return g_z

    def params(self) -> list[Tensor]:
        return self.s_net.params() + self.t_net.params()


def _coupling_subnet(rng: np.random.Generator, dim: int, hidden_units: int,
                     hidden_layers: int, final_activation: str) -> DenseNet:
    # Zero-initialized output layer makes the freshly built flow the identity.
    layers = [Dense.init(rng, dim, hidden_units, "relu")]
    for _ in range(hidden_layers - 1):
        layers.append(Dense.init(rng, hidden_units, hidden_units, "relu"))
    layers.append(Dense.init(rng, hidden_units, dim, final_activation, zero=True))
    return DenseNet(layers)


@dataclass(frozen=True)
class FlowConfig:
    coupling_layers: int = 4
    hidden_units: int = 16
    hidden_layers: int = 4
    epochs: int = 3000
    batch_size: int = 128
    l2: float = 0.01
    lr: float = 1e-4  # Adam
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        for name in ("batch_size", "coupling_layers", "hidden_units", "hidden_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


class FlowModel:
    """Stack of coupling layers with alternating half masks over a standard
    normal base; provides exact log-density, forward, and inverse maps."""

    def __init__(self, dim: int, layers: list[CouplingLayer]):
        if dim < 2:
            raise ValueError("flow needs dim >= 2")
        for i, layer in enumerate(layers):
            self.check_mask(i, layer.mask, dim)
        self.dim = dim
        self.layers = layers

    @staticmethod
    def check_mask(index: int, mask: np.ndarray, dim: int) -> None:
        """A coupling mask must span the flow's dim columns."""
        if mask.shape != (dim,):
            raise ValueError(f"coupling layer {index} mask has length "
                             f"{mask.size}, the flow is {dim}-d")

    @classmethod
    def build(cls, dim: int, config: FlowConfig) -> "FlowModel":
        rng = np.random.default_rng(config.seed)
        half = np.zeros(dim)
        half[: dim // 2] = 1.0
        layers = []
        for i in range(config.coupling_layers):
            mask = half if i % 2 == 0 else 1.0 - half
            layers.append(CouplingLayer(
                mask=mask.copy(),
                s_net=_coupling_subnet(rng, dim, config.hidden_units,
                                       config.hidden_layers, "tanh"),
                t_net=_coupling_subnet(rng, dim, config.hidden_units,
                                       config.hidden_layers, "linear"),
            ))
        return cls(dim, layers)

    def forward(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        log_det = np.zeros(z.shape[0])
        for i, layer in enumerate(self.layers):
            z, ld = layer.forward(z)
            if not np.all(np.isfinite(z)):
                raise FloatingPointError(f"non-finite values after coupling layer {i}")
            log_det += ld
        return z, log_det

    def inverse(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_2d(np.asarray(t, dtype=np.float64))
        for i, layer in enumerate(reversed(self.layers)):
            t = layer.inverse(t)
            if not np.all(np.isfinite(t)):
                raise FloatingPointError(f"non-finite values inverting coupling layer {i}")
        return t

    def log_density(self, z: np.ndarray) -> np.ndarray:
        """Log-density of each row of z; -inf where ||t||^2 overflows (a far,
        huge row)."""
        t, log_det = self.forward(z)
        with np.errstate(over="ignore"):
            base = -0.5 * (t * t).sum(axis=1) - 0.5 * self.dim * LOG_2PI
        return base + log_det

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params())

    def weight_tensors(self) -> list[Tensor]:
        return [w for layer in self.layers
                for w in layer.s_net.weight_tensors() + layer.t_net.weight_tensors()]

    def nll_loss(self, batch: np.ndarray, l2: float) -> Tensor:
        """Mean negative log-likelihood of the batch plus l2 * sum(w^2) over
        the subnets' weight matrices, as one loss node; its rule walks the
        coupling layers in reverse, then adds the L2 term."""
        n, d = batch.shape
        t = np.asarray(batch, dtype=np.float64)
        caches = []
        s_total = None
        for layer in self.layers:
            t, s_sum, cache = layer.forward_cached(t)
            caches.append(cache)
            s_total = s_sum if s_total is None else s_total + s_sum
        # mean over the batch of [0.5*||t||^2 - log_det] plus the base constant
        loss = ((t * t).sum() * 0.5 - s_total) * (1.0 / n) + 0.5 * d * LOG_2PI
        weights = self.weight_tensors() if l2 != 0.0 else []
        if weights:
            loss = loss + l2_value(weights, l2)
        def rule(upstream) -> None:
            r = upstream * (1.0 / n)
            g = (r * 0.5) * (2.0 * t)
            last = len(self.layers) - 1
            for i in range(last, -1, -1):
                g = self.layers[i].backward_cached(caches[i], g, -r, i == last, i > 0)
            if weights:
                l2_backward(weights, l2, upstream)

        return Tensor(loss, rule)


def flow_fit(z: np.ndarray, config: FlowConfig) -> tuple[FlowModel, list[float]]:
    """Fit a coupling flow to latent rows by minimizing mean NLL.

    Returns the model and the per-epoch loss trace.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    if n < config.batch_size:
        raise ValueError(f"need at least batch_size={config.batch_size} rows, got {n}")
    flow = FlowModel.build(z.shape[1], config)
    trace = train_minibatches(
        "flow", lambda idx: flow.nll_loss(z[idx], config.l2), flow.params(),
        OptimizerSpec(lr=config.lr), n, config.batch_size, config.epochs, config.seed)
    return flow, trace


# -- likelihood scaling -------------------------------------------------------


@dataclass(frozen=True)
class ScaledDensity:
    """A fitted density plus the max train log-density used for scaling."""

    inner: KdeModel | FlowModel
    max_train_log_density: float

    def scaled_likelihood(self, z: np.ndarray) -> np.ndarray:
        """exp(log p(z) - max train log p), clamped into [floor, 1]."""
        s = self.inner.log_density(z) - self.max_train_log_density
        np.minimum(s, 0.0, out=s)
        with np.errstate(under="ignore"):
            np.exp(s, out=s)
        return np.maximum(s, LIKELIHOOD_FLOOR, out=s)  # exp of <= 0 is <= 1

    def param_count(self) -> int:
        return self.inner.param_count() + 1  # plus the scale constant


def compute_scale(density: KdeModel | FlowModel, train_z: np.ndarray,
                  batch_size: int = 128) -> ScaledDensity:
    """Streaming max of train log-densities over batches."""
    train_z = np.asarray(train_z, dtype=np.float64)
    if train_z.ndim != 2 or train_z.shape[0] == 0:
        raise ValueError("train_z must be a non-empty matrix")
    best = -np.inf
    for start in range(0, train_z.shape[0], batch_size):
        batch_max = float(density.log_density(train_z[start:start + batch_size]).max())
        if batch_max > best:
            best = batch_max
    return ScaledDensity(inner=density, max_train_log_density=best)
