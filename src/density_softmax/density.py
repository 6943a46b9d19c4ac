"""Latent-space density estimation and likelihood scaling.

Two estimators share the same interface (``log_density`` over rows):

* :class:`KdeModel` — Gaussian kernel density with a scalar bandwidth.
* :class:`FlowModel` — affine coupling flow with exact log-likelihood via
  the change-of-variables formula: log p(z) = log N(t; 0, I) + log|det J|
  where t is the stacked coupling transform of z. Each coupling layer
  splits z into pass-through columns P and transformed columns T, fixed by
  its index (:func:`halves`): even layers pass through the first dim // 2
  columns, odd layers the rest, so no mask is stored. Its s-net and t-net
  are one stacked net: each depth's two weight matrices live in one
  (2, in, out) array, so one matmul runs both subnets. The net maps the |P|
  columns of z_P to the |T| outputs, so it stores only the weights it reads
  (see :class:`CouplingLayer`). One walk
  serves inference (``forward``, ``log_density``) and training
  (``nll_loss``): it carries the flow state as its two column halves from
  layer to layer and joins them once at the end. The log-det sums still run
  over a full-width array (s in T, zeros in P), so numpy's pairwise
  summation groups the terms as it does for the masked product
  s * (1 - mask) and the sums stay bit-identical to it.

Both estimators walk their query rows in fixed chunks (``KDE_CHUNK_ROWS``,
``FLOW_CHUNK_ROWS``), folding a 1-row tail into the chunk before it (see
:func:`chunk_bounds`). A chunked pass equals a one-shot pass bit for bit
where every chunk's product runs the same gemm kernel, as checked at the
128-d default latent; at narrow latents a row's last bits can depend on the
batch it comes in.
The KDE raises its max-shifted log-kernels to at least
``KDE_LOG_KERNEL_FLOOR`` = -700 before the exp, which keeps numpy on its
vectorized exp (a subnormal or zero result costs 15-150x more per element)
and moves no output bit: each row's largest kernel is e^0 = 1, and a term
below e^-700 is far under half an ulp of that row sum.

After fitting, :func:`compute_scale` records the maximum train-point
log-density (one chunked pass over the train latents, whose scaled
likelihoods it also returns for re-optimization); scaled likelihoods are then
exp(log p(z) - max), which lives in (0, 1] with the densest train point
mapping to exactly 1. Values that underflow are floored at the smallest
positive normal float so the interval stays open at 0 (this includes rows so
far out that every squared distance, or the flow transform, overflows: their
log-density is -inf); test points denser than any train point clamp to 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .layers import (Dense, DenseNet, activation_grad, apply_activation, fan_in_uniform,
                     l2_backward, l2_value)
from .model import train_minibatches

LIKELIHOOD_FLOOR = sys.float_info.min  # smallest positive normal float64

LOG_2PI = math.log(2.0 * math.pi)


# -- kernel density estimation ----------------------------------------------


# Query rows per distance GEMM in KdeModel.log_density, so a chunk's
# 128 x n buffer stays ~1 MB at n = 1000 support rows.
KDE_CHUNK_ROWS = 128

# Floor of the max-shifted log-kernels in KdeModel.log_density: e^-700 is a
# normal float, so the exp stays on numpy's vectorized path; below about
# -708 numpy computes each element alone.
KDE_LOG_KERNEL_FLOOR = -700.0

# Rows per pass in FlowModel.log_density: enough to amortize the per-layer
# numpy calls, few enough that a chunk's stacked (2, rows, hidden)
# activations stay in cache.
FLOW_CHUNK_ROWS = 256


def chunk_bounds(rows: int, chunk: int) -> list[int]:
    """Row bounds of fixed chunks over rows, with a 1-row tail folded into
    the chunk before it: numpy sends a 1-row product to another BLAS kernel
    (gemv) whose last bits differ from the batched (gemm) ones. A chunked
    pass is then bit-identical to a one-shot pass where the gemm gives each
    row the same bits in any row block, as at the 128-d default latent; at
    a narrow latent (d = 2) OpenBLAS can give a row other last bits in
    another block."""
    bounds = list(range(0, rows, chunk)) + [rows]
    if len(bounds) > 2 and rows - bounds[-2] == 1:
        del bounds[-2]
    return bounds


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

        Walks z in chunks of KDE_CHUNK_ROWS rows (see chunk_bounds) through
        one reused chunk x n buffer: ||z||^2 - 2 z.s + ||s||^2, clamped at 0,
        over -2h^2, then a max-shifted log-sum-exp whose shifted log-kernels
        are raised to at least KDE_LOG_KERNEL_FLOOR before the exp.

        The floor leaves every output bit as it was: after the shift the
        nearest kernel is exactly e^0 = 1, so each row sum is at least 1,
        and a floored term is below e^-700 ~ 1e-304, some 10^288 times less
        than half an ulp of 1. It can only change a partial sum of the
        pairwise summation that is itself tiny, and the row sum absorbs that
        partial. tests/kde_reference.py keeps the unfloored kernel as the
        oracle.
        """
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        rows = z.shape[0]
        bounds = chunk_bounds(rows, KDE_CHUNK_ROWS)
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
                np.maximum(a, KDE_LOG_KERNEL_FLOOR, out=a)
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


FINAL = ("tanh", "linear")  # the s-net's and t-net's last activations, per slot


def halves(dim: int, index: int) -> tuple[slice, slice]:
    """The pass-through columns P and the transformed columns T of coupling
    layer ``index``: even layers pass through the first dim // 2 columns,
    odd layers the rest, so each layer passes through what the one before
    it transformed."""
    first, rest = slice(0, dim // 2), slice(dim // 2, dim)
    return (first, rest) if index % 2 == 0 else (rest, first)


def _width(cols: slice) -> int:
    """The number of columns of one of the halves."""
    return cols.stop - cols.start


class CouplingLayer:
    """Affine coupling (RealNVP) on the split z = (z_P, z_T) of
    :func:`halves`: P the pass-through columns, T the transformed ones.

    forward:  t_P = z_P,  t_T = z_T * exp(s) + b   with s = S(z_P), b = T(z_P)
    log|det| = sum of s over T.

    ``net`` is the s-net and the t-net stacked: each depth's weights are one
    (2, in, out) array and its biases one (2, 1, out) array, slot 0 the
    s-net and slot 1 the t-net, so one matmul runs a dense step of both (the
    same gemm per slot as a separate product, so no sum is reordered). It
    maps the |P| columns of z_P to the |T| columns of s and b through
    non-residual end layers, so it holds only the weights a masked
    full-width net would read; its last layer is linear, and ``FINAL`` is
    applied per slot after it.

    ``forward``, the one coupling step for inference and training, takes the
    halves z_P and z_T and returns t_T and s; t_P is z_P itself, and no
    arithmetic runs on the zeros of a masked product. ``backward_cached``
    also works on halves.

    The log-det sums run over a full-width array with s in T and zeros in
    P, laid out as the masked product s * (1 - mask) would be: numpy's
    pairwise summation groups terms by their position, so each sum groups
    its terms as the masked composition's does. Where the half-width
    matmuls also equal the full-width ones (at the default 128-d latent),
    the loss and its trace are bit-identical to the masked composition; at
    some small widths OpenBLAS picks another kernel for a half-width
    product, which moves the last bits.
    """

    def __init__(self, net: DenseNet, dim: int, index: int):
        what = f"coupling layer {index} net"
        if not net.layers:
            raise ValueError(f"{what} needs at least one layer")
        for i, layer in enumerate(net.layers):
            shape = layer.weight.data.shape
            if len(shape) != 3 or shape[0] != 2:
                raise ValueError(f"{what} layer {i} weight has shape {shape}, "
                                 "not a (2, in, out) stack")
        self.p_cols, self.t_cols = halves(dim, index)
        first, last = net.layers[0], net.layers[-1]
        maps = (first.weight.data.shape[1], last.weight.data.shape[2])
        needs = (_width(self.p_cols), _width(self.t_cols))
        if maps != needs:
            raise ValueError(f"{what} maps {maps[0]} -> {maps[1]} columns; in the "
                             f"{dim}-d flow its halves need {needs[0]} -> {needs[1]}")
        if first.residual or last.residual:
            raise ValueError(f"{what} first and last layers must not be residual")
        if last.activation != "linear":
            raise ValueError(f"{what} last layer is {last.activation}, not linear")
        self.net = net
        self.dim = dim

    def _log_det_layout(self, s: np.ndarray) -> np.ndarray:
        """Zeros of the full width with s in the columns T."""
        out = np.zeros((s.shape[0], self.dim))
        out[:, self.t_cols] = s
        return out

    def forward(self, zp: np.ndarray, zt: np.ndarray, caches: list | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """The coupling step on the halves z_P, z_T: t_T and s (t_P is z_P
        itself). Given a caches list, appends what ``backward_cached``
        needs."""
        net_cache = None if caches is None else []
        st = self.net.forward(zp, net_cache)
        for slot, activation in enumerate(FINAL):
            apply_activation(st[slot], activation, out=st[slot])
        s, b = st
        e = np.exp(s)
        t_t = zt * e
        t_t += b
        if caches is not None:
            caches.append((zt, e, st, net_cache))
        return t_t, s

    def backward_cached(self, cache: tuple, g_p: np.ndarray, g_t: np.ndarray, g_s_sum,
                        t_net_first: bool, input_grad: bool = True
                        ) -> tuple[np.ndarray, np.ndarray] | None:
        """Given d(loss)/d(t_P), d(loss)/d(t_T) and d(loss)/d(sum of s),
        write the subnets' parameter gradients; return d(loss)/d(z_P) and
        d(loss)/d(z_T), or None when ``input_grad`` is false.

        z_P collects three contributions, and floating-point addition is
        not associative, so their order is fixed to the one the per-op
        test oracle's depth-first walk produces: the pass-through term, then the
        s-net's, then the t-net's; `t_net_first` swaps the last two, which
        is the tape's order in the flow's final coupling layer.
        """
        zt, e, st, net_cache = cache
        g = np.empty(st.shape)
        activation_grad(g_s_sum + g_t * zt * e, st[0], FINAL[0], g[0])
        activation_grad(g_t, st[1], FINAL[1], g[1])
        g_in = self.net.backward_cached(net_cache, g, input_grad)
        if not input_grad:
            return None
        g_zp = g_p + g_in[1] + g_in[0] if t_net_first else g_p + g_in[0] + g_in[1]
        return g_zp, g_t * e

    def params(self) -> list[Tensor]:
        return self.net.params()

    def weight_slots(self) -> list[np.ndarray]:
        """The subnets' 2-D weight matrices, views of the stack: the s-net's,
        then the t-net's."""
        weights = self.net.weight_tensors()
        return [w.data[slot] for slot in (0, 1) for w in weights]


def _coupling_net(rng: np.random.Generator, dim: int, hidden_units: int,
                  hidden_layers: int, index: int) -> DenseNet:
    """A fresh stacked net of coupling layer ``index``: the s-net's weights
    are drawn, then the t-net's, and each depth's pair is stacked. The first
    matrix is drawn over all dim input rows, as a full-width net's is, and
    keeps the rows P, so the generator's stream is that of a full-width
    net. The zero last layer makes the freshly built flow the identity."""
    p_cols, t_cols = halves(dim, index)
    widths = [dim] + [hidden_units] * hidden_layers
    shapes = list(zip(widths, widths[1:]))

    def subnet() -> list[np.ndarray]:
        drawn = [fan_in_uniform(rng, *shape) for shape in shapes]
        return [drawn[0][p_cols]] + drawn[1:] + [np.zeros((hidden_units, _width(t_cols)))]

    s_net, t_net = subnet(), subnet()
    return DenseNet([Dense(Tensor(np.stack(pair)), Tensor(np.zeros((2, 1, pair[0].shape[1]))),
                           "relu" if i < hidden_layers else "linear")
                     for i, pair in enumerate(zip(s_net, t_net))])


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
    """Stack of coupling layers over a standard normal base, built from one
    stacked net per layer; provides exact log-density and the forward map.

    Layer i's columns are ``halves(dim, i)``, so each layer passes through
    exactly the columns the layer before it transformed, and the walk hands
    a layer's two halves to the next one swapped, with no re-cut of the
    state."""

    def __init__(self, dim: int, nets: list[DenseNet]):
        if dim < 2:
            raise ValueError("flow needs dim >= 2")
        if not nets:
            raise ValueError("flow needs at least one coupling layer")
        self.dim = dim
        self.layers = [CouplingLayer(net, dim, i) for i, net in enumerate(nets)]

    @classmethod
    def build(cls, dim: int, config: FlowConfig) -> "FlowModel":
        rng = np.random.default_rng(config.seed)
        return cls(dim, [_coupling_net(rng, dim, config.hidden_units, config.hidden_layers, i)
                         for i in range(config.coupling_layers)])

    def forward(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """t and log|det| of each row of z."""
        return self._walk(np.atleast_2d(np.asarray(z, dtype=np.float64)), 1)

    def _walk(self, z: np.ndarray, axis: int | None, caches: list | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """t of the rows of z and the log-det: each layer's log-det layout
        summed over ``axis`` (1: per row, None: over the batch), added up
        layer by layer. The state travels as the next layer's halves (zp, zt)
        and is joined once at the end. Given a caches list, each layer
        appends its cache."""
        first, last = self.layers[0], self.layers[-1]
        zp, zt = z[:, first.p_cols], z[:, first.t_cols]
        log_det = 0.0
        for layer in self.layers:
            t_t, s = layer.forward(zp, zt, caches)
            log_det = log_det + layer._log_det_layout(s).sum(axis=axis)
            # this layer's T is the next layer's P, and its P the next's T
            zp, zt = t_t, zp
        t = np.empty(z.shape)
        t[:, last.t_cols] = zp
        t[:, last.p_cols] = zt
        return t, log_det

    def log_density(self, z: np.ndarray) -> np.ndarray:
        """Log-density of each row of z; -inf where the transform or
        ||t||^2 overflows (a far, huge row), never NaN. Walks z in chunks of
        FLOW_CHUNK_ROWS rows (see chunk_bounds), which bounds the
        temporaries and keeps the subnets' products in cache."""
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        rows = z.shape[0]
        bounds = chunk_bounds(rows, FLOW_CHUNK_ROWS)
        out = np.empty(rows)
        const = 0.5 * self.dim * LOG_2PI
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in zip(bounds, bounds[1:]):
                t, log_det = self._walk(z[lo:hi], 1)
                base = -0.5 * (t * t).sum(axis=1) - const
                np.add(base, log_det, out=out[lo:hi])
        # A row whose transform overflowed came out NaN; the log-det is a
        # sum of tanh values, so no row is +inf, and fmax turns exactly the
        # NaN rows into -inf.
        return np.fmax(out, -np.inf, out=out)

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params())

    def weight_tensors(self) -> list[Tensor]:
        """The subnets' 2-D weight matrices (read-only views of the stacked
        slots), layer by layer: the s-net's, then the t-net's. The L2 value
        sums them in this order."""
        return [Tensor(_read_only(w)) for layer in self.layers for w in layer.weight_slots()]

    def nll_loss(self, batch: np.ndarray, l2: float) -> Tensor:
        """Mean negative log-likelihood of the batch plus l2 * sum(w^2) over
        the subnets' weight matrices, as one loss node; its rule walks the
        coupling layers in reverse, then adds the L2 term.

        The forward is the inference walk with caches; the gradient travels
        as the halves (g_p, g_t) like the flow state."""
        n, d = batch.shape
        caches: list = []
        t, s_total = self._walk(np.asarray(batch, dtype=np.float64), None, caches)
        # mean over the batch of [0.5*||t||^2 - log_det] plus the base constant
        loss = ((t * t).sum() * 0.5 - s_total) * (1.0 / n) + 0.5 * d * LOG_2PI
        if l2 != 0.0:
            loss = loss + l2_value([w for layer in self.layers for w in layer.weight_slots()],
                                   l2)
        def rule(upstream) -> None:
            r = upstream * (1.0 / n)
            g = (r * 0.5) * (2.0 * t)
            last = len(self.layers) - 1
            g_p, g_t = g[:, self.layers[last].p_cols], g[:, self.layers[last].t_cols]
            for i in range(last, -1, -1):
                g_z = self.layers[i].backward_cached(caches[i], g_p, g_t, -r, i == last,
                                                     i > 0)
                if g_z is not None:
                    # layer i's P and T are layer i-1's T and P
                    g_t, g_p = g_z
            if l2 != 0.0:
                l2_backward([w for layer in self.layers for w in layer.net.weight_tensors()],
                            l2, upstream)

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
        config.lr, n, config.batch_size, config.epochs, config.seed)
    return flow, trace


# -- likelihood scaling -------------------------------------------------------


@dataclass(frozen=True)
class ScaledDensity:
    """A fitted density plus the max train log-density used for scaling."""

    inner: KdeModel | FlowModel
    max_train_log_density: float

    def scaled_likelihood(self, z: np.ndarray) -> np.ndarray:
        """exp(log p(z) - max train log p), clamped into [floor, 1]."""
        return self.scale(self.inner.log_density(z))

    def scale(self, log_density: np.ndarray) -> np.ndarray:
        """The scaled likelihood of rows whose log-density the inner model
        gave: exp(log_density - max train log p), clamped into [floor, 1]."""
        s = log_density - self.max_train_log_density
        np.minimum(s, 0.0, out=s)
        with np.errstate(under="ignore"):
            np.exp(s, out=s)
        return np.maximum(s, LIKELIHOOD_FLOOR, out=s)  # exp of <= 0 is <= 1

    def param_count(self) -> int:
        return self.inner.param_count() + 1  # plus the scale constant


def compute_scale(density: KdeModel | FlowModel,
                  train_z: np.ndarray) -> tuple[ScaledDensity, np.ndarray]:
    """The density scaled by its max train log-density, and the scaled
    likelihood of each train row, from one density pass over train_z (which
    the density walks in its own chunks), so the densest train row scales to
    exactly 1 in the same pass that serves the train rows."""
    train_z = np.asarray(train_z, dtype=np.float64)
    if train_z.ndim != 2 or train_z.shape[0] == 0:
        raise ValueError("train_z must be a non-empty matrix")
    log_p = density.log_density(train_z)
    scaled = ScaledDensity(inner=density, max_train_log_density=float(log_p.max()))
    return scaled, scaled.scale(log_p)
