"""Latent-space density estimation and likelihood scaling.

Two estimators share the same interface (``log_density`` over rows):

* :class:`KdeModel` — Gaussian kernel density with a scalar bandwidth.
* :class:`FlowModel` — affine coupling flow with exact log-likelihood via
  the change-of-variables formula: log p(z) = log N(t; 0, I) + log|det J|
  where t is the stacked coupling transform of z. Each coupling layer
  splits z into pass-through columns P (its mask's ones, a prefix or a
  suffix of the columns) and transformed columns T. Its s-net and t-net
  are stacked: each depth's two weight matrices live in one (2, in, out)
  array, so one matmul runs both subnets, reading only z_P and computing
  only the T outputs (see :class:`CouplingLayer`). One walk serves
  inference (``forward``, ``log_density``) and training (``nll_loss``): it
  carries the flow state as its two column halves from layer to layer and
  joins them once at the end. The log-det sums still run over a full-width
  array (s in T, zeros in P), so numpy's pairwise summation groups the
  terms as it does for the masked product s * (1 - mask) and the sums stay
  bit-identical to it.

Both estimators walk their query rows in fixed chunks (``KDE_CHUNK_ROWS``,
``FLOW_CHUNK_ROWS``), folding a 1-row tail into the chunk before it, so a
chunked pass equals a one-shot pass bit for bit (see :func:`chunk_bounds`).

After fitting, :func:`compute_scale` records the maximum train-point
log-density (a streaming max over batches); scaled likelihoods are then
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
from .layers import (Dense, DenseNet, activation_grad, apply_activation, l2_backward,
                     l2_value)
from .model import train_minibatches
from .optim import OptimizerSpec

LIKELIHOOD_FLOOR = sys.float_info.min  # smallest positive normal float64

LOG_2PI = math.log(2.0 * math.pi)


# -- kernel density estimation ----------------------------------------------


# Query rows per distance GEMM in KdeModel.log_density: the compute_scale
# batch, so a chunk's 128 x n buffer stays ~1 MB at n = 1000 support rows.
KDE_CHUNK_ROWS = 128

# Rows per pass in FlowModel.log_density: enough to amortize the per-layer
# numpy calls, few enough that a chunk's stacked (2, rows, hidden)
# activations stay in cache.
FLOW_CHUNK_ROWS = 256


def chunk_bounds(rows: int, chunk: int) -> list[int]:
    """Row bounds of fixed chunks over rows, with a 1-row tail folded into
    the chunk before it: numpy sends a 1-row product to another BLAS kernel
    (gemv) whose last bits differ from the batched (gemm) ones, so a chunked
    pass stays bit-identical to a one-shot pass."""
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
        over -2h^2, then a max-shifted log-sum-exp.
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


def _stack_shape(layer: Dense, last: bool) -> dict:
    """What two subnets' layers must share to stack: all but the last
    layer's activation, which each slot applies for itself."""
    return {"weight shape": layer.weight.data.shape, "bias": layer.bias is None,
            "residual": layer.residual, "activation": None if last else layer.activation}


class CouplingLayer:
    """Affine coupling (RealNVP) on the split z = (z_P, z_T): the mask's
    ones mark the pass-through columns P, its zeros the transformed columns T.

    forward:  t_P = z_P,  t_T = z_T * exp(s) + b   with s = S(z_P), b = T(z_P)
    inverse:  z_P = t_P,  z_T = (t_T - b) * exp(-s)
    log|det| = sum of s over T.

    Stacked subnets: ``net`` holds the s-net and the t-net as one stack of
    Dense layers, each depth's weights in one (2, in, out) array and its
    biases in one (2, 1, out) array, slot 0 the s-net and slot 1 the t-net.
    Each dense step of both subnets is then one matmul over the stack; the
    stacked product runs the same gemm per slot as a separate product, so no
    sum is reordered. The stacked last layer is linear and ``final`` holds
    the subnets' own last activations (tanh for s, linear for t), applied
    per slot. The constructor takes the two subnets, which must share one
    architecture, and copies them into the stack; ``s_net`` and ``t_net``
    are read-only per-subnet views of the slots (what a container stores).

    Halves: ``forward``, the one coupling step for inference and training,
    takes the column halves z_P and z_T and returns t_T and s; t_P is z_P
    itself. The stack reads z_P through its first layer's rows P and
    computes only the T outputs through its last layer's columns T, so no
    arithmetic runs on the zeros of a masked product. The skipped first-layer
    rows T and last-layer columns P stay in the parameters and get a zero
    data gradient (plus the L2 term). The halves are slices, cached at
    construction, so the mask's ones must be a prefix or a suffix (the only
    masks ``FlowModel.build`` writes), and both subnets must map len(mask)
    columns to len(mask) columns through non-residual end layers.
    ``backward_cached`` also takes and returns the halves.

    The log-det sums run over a full-width array with s in T and zeros in
    P, laid out as the masked product s * (1 - mask) would be: numpy's
    pairwise summation groups terms by their position, so each sum groups
    its terms as the masked composition's does. Where the half-width
    matmuls also equal the full-width ones (at the default 128-d latent),
    the loss and its trace are bit-identical to the masked composition; at
    some small widths OpenBLAS picks another kernel for a half-width
    product, which moves the last bits.
    """

    def __init__(self, mask: np.ndarray, s_net: DenseNet, t_net: DenseNet):
        self.mask = np.asarray(mask, dtype=np.float64)
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
        for name, net in (("s_net", s_net), ("t_net", t_net)):
            if not net.layers:
                raise ValueError("coupling subnets need at least one layer")
            first, last = net.layers[0], net.layers[-1]
            maps = (first.weight.data.shape[0], last.weight.data.shape[1])
            if maps != (d, d):
                raise ValueError(f"{name} maps {maps[0]} -> {maps[1]} columns, "
                                 f"the mask has length {d}")
            if first.residual or last.residual:
                raise ValueError(f"{name} first and last layers must not be residual")
        if len(s_net.layers) != len(t_net.layers):
            raise ValueError(f"s_net has {len(s_net.layers)} layers, t_net has "
                             f"{len(t_net.layers)}; the subnets must share one shape")
        end = len(s_net.layers) - 1
        stack = []
        for i, (s, t) in enumerate(zip(s_net.layers, t_net.layers)):
            a, b = (_stack_shape(x, i == end) for x in (s, t))
            differ = [key for key in a if a[key] != b[key]]
            if differ:
                raise ValueError(f"s_net and t_net differ in layer {i} ({', '.join(differ)}); "
                                 "the subnets must share one shape")
            bias = None if s.bias is None else Tensor(
                np.stack([s.bias.data, t.bias.data]).reshape(2, 1, -1))
            stack.append(Dense(Tensor(np.stack([s.weight.data, t.weight.data])), bias,
                               s.activation if i < end else "linear", s.residual))
        self.net = DenseNet(stack)
        self.final = (s_net.layers[-1].activation, t_net.layers[-1].activation)

    def _subnet(self, slot: int) -> DenseNet:
        end = len(self.net.layers) - 1
        return DenseNet([
            Dense(Tensor(_read_only(x.weight.data[slot])),
                  None if x.bias is None else Tensor(_read_only(x.bias.data[slot, 0])),
                  self.final[slot] if i == end else x.activation, x.residual)
            for i, x in enumerate(self.net.layers)])

    @property
    def s_net(self) -> DenseNet:
        """Read-only view of the s-net (slot 0 of the stack)."""
        return self._subnet(0)

    @property
    def t_net(self) -> DenseNet:
        """Read-only view of the t-net (slot 1 of the stack)."""
        return self._subnet(1)

    def _log_det_layout(self, s: np.ndarray) -> np.ndarray:
        """Zeros of the full width with s in the columns T."""
        out = np.zeros((s.shape[0], self.mask.size))
        out[:, self.t_cols] = s
        return out

    def _finish(self, st: np.ndarray) -> np.ndarray:
        """Apply each subnet's last activation to its slot of the stack's
        output, in place."""
        for slot, activation in enumerate(self.final):
            apply_activation(st[slot], activation, out=st[slot])
        return st

    def forward(self, zp: np.ndarray, zt: np.ndarray, caches: list | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """The coupling step on the halves z_P, z_T: t_T and s (t_P is z_P
        itself). Given a caches list, appends what ``backward_cached``
        needs."""
        net_cache = None if caches is None else []
        st = self._finish(self.net.forward(zp, self.p_cols, self.t_cols, net_cache))
        s, b = st
        e = np.exp(s)
        t_t = zt * e
        t_t += b
        if caches is not None:
            caches.append((zt, e, st, net_cache))
        return t_t, s

    def inverse(self, t: np.ndarray) -> np.ndarray:
        p, tc = self.p_cols, self.t_cols
        tp = t[:, p]
        s, b = self._finish(self.net.forward(tp, p, tc))
        z = np.empty(t.shape)
        z[:, p] = tp
        z[:, tc] = (t[:, tc] - b) * np.exp(-s)
        return z

    def backward_cached(self, cache: tuple, g_p: np.ndarray, g_t: np.ndarray, g_s_sum,
                        t_net_first: bool, input_grad: bool = True
                        ) -> tuple[np.ndarray, np.ndarray] | None:
        """Given d(loss)/d(t_P), d(loss)/d(t_T) and d(loss)/d(sum of s), add
        the subnets' parameter gradients; return d(loss)/d(z_P) and
        d(loss)/d(z_T), or None when ``input_grad`` is false.

        z_P collects three contributions, and floating-point addition is
        not associative, so their order is fixed to the one the per-op
        test oracle's depth-first walk produces: the pass-through term, then the
        s-net's, then the t-net's; `t_net_first` swaps the last two, which
        is the tape's order in the flow's final coupling layer.
        """
        zt, e, st, net_cache = cache
        g = np.empty(st.shape)
        activation_grad(g_s_sum + g_t * zt * e, st[0], self.final[0], g[0])
        activation_grad(g_t, st[1], self.final[1], g[1])
        g_in = self.net.backward_cached(net_cache, g, self.p_cols, self.t_cols,
                                        input_grad)
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
        if not layers:
            raise ValueError("flow needs at least one coupling layer")
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
        """t and log|det| of each row of z."""
        return self._walk(np.atleast_2d(np.asarray(z, dtype=np.float64)), 1)

    def _walk(self, z: np.ndarray, axis: int | None, caches: list | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """t of the rows of z and the log-det: each layer's log-det layout
        summed over ``axis`` (1: per row, None: over the batch), added up
        layer by layer. The state travels as its two column halves (layer
        i's T is layer i+1's P) and is joined once at the end. Given a
        caches list, each layer appends its cache."""
        n, d = z.shape
        first = self.layers[0]
        halves = ((first.p_cols, z[:, first.p_cols]), (first.t_cols, z[:, first.t_cols]))
        log_det = 0.0
        for layer in self.layers:
            zp, zt = _take(halves, layer, n, d)
            t_t, s = layer.forward(zp, zt, caches)
            log_det = log_det + layer._log_det_layout(s).sum(axis=axis)
            halves = ((layer.p_cols, zp), (layer.t_cols, t_t))
        return _join(halves, n, d), log_det

    def inverse(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_2d(np.asarray(t, dtype=np.float64))
        for i, layer in enumerate(reversed(self.layers)):
            t = layer.inverse(t)
            if not np.all(np.isfinite(t)):
                raise FloatingPointError(f"non-finite values inverting coupling layer {i}")
        return t

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
        as its two column halves like the flow state."""
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
            p, tc = self.layers[last].p_cols, self.layers[last].t_cols
            g_halves = ((p, g[:, p]), (tc, g[:, tc]))
            for i in range(last, -1, -1):
                layer = self.layers[i]
                g_p, g_t = _take(g_halves, layer, n, d)
                g_z = layer.backward_cached(caches[i], g_p, g_t, -r, i == last, i > 0)
                if g_z is not None:
                    g_halves = ((layer.p_cols, g_z[0]), (layer.t_cols, g_z[1]))
            if l2 != 0.0:
                l2_backward([w for layer in self.layers for w in layer.net.weight_tensors()],
                            l2, upstream)

        return Tensor(loss, rule)


def _join(halves, n: int, d: int) -> np.ndarray:
    """The full-width rows of two column halves ((cols, array), (cols, array))."""
    full = np.empty((n, d))
    for cols, part in halves:
        full[:, cols] = part
    return full


def _take(halves, layer: CouplingLayer, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The layer's P and T columns from two column halves: the halves
    themselves when they split where the layer does (alternating masks),
    else slices of the joined width."""
    (a_cols, a), (b_cols, b) = halves
    p, tc = layer.p_cols, layer.t_cols
    if (a_cols, b_cols) == (p, tc):
        return a, b
    if (a_cols, b_cols) == (tc, p):
        return b, a
    full = _join(halves, n, d)
    return full[:, p], full[:, tc]


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
