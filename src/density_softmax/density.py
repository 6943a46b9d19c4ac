"""Latent-space density estimation and likelihood scaling.

Two estimators share the same interface: ``log_density`` of latent rows,
up to a constant, which refuses rows of another width than the train
latents'. Each models the rows' coordinates on the train latents' top
principal directions, and scores each row's distance off their subspace
with a Gaussian, so a row far from the train latents in any direction
still scores low. In all 128 latent dims a fitted density's log p spreads
over so many nats that almost every row's scaled likelihood collapses
toward 0, while on two moons 99% of the variance lies in about 4
directions and 99.99% in about 17.

* :class:`KdeModel` — Gaussian kernel density with a scalar bandwidth h on
  the rows' coordinates in the directions holding KDE_VARIANCE_KEPT of the
  variance (:func:`kde_fit`), times a Gaussian of width h on the residual;
  it holds its mean, directions, support and bandwidth itself, and one
  GEMM gives every log-kernel.
* :class:`FlowModel` — affine coupling flow with exact log-likelihood via
  the change-of-variables formula, on the rows' whitened coordinates in the
  directions holding PROJECTION_VARIANCE_KEPT, which its
  :class:`LatentProjection` maps them to (:func:`flow_fit`):
  log p(c) = log N(t; 0, I) + log|det J|
  where c are a latent row's coordinates and t their stacked coupling
  transform. Each coupling layer splits c into pass-through columns P and
  transformed columns T, fixed by its index (:func:`halves`): even layers
  pass through the first dim // 2 columns, odd layers the rest, so no mask
  is stored. Its s-net and t-net are one stacked net: each depth's two
  weight matrices live in one (2, in, out) array, so one matmul runs both
  subnets. The net maps the |P| columns of c_P to the |T| outputs, so it
  stores only the weights it reads (see :class:`CouplingLayer`). One walk
  serves inference (``forward``, ``log_density``) and training
  (``nll_loss``): it carries the flow state as its two column halves from
  layer to layer, joins them once at the end, and sums each row's log-det
  from s. In training the walk writes every array into a
  :class:`FlowWorkspace` that the fit makes once for its full batches, and
  the backward reads it there, so such a step allocates no array (the relu
  mask aside); the fit drops it.

Both estimators project each row by einsum, which gives a row the same
coordinates in any batch. The KDE walks its query rows in fixed chunks of
``KDE_CHUNK_ROWS`` (see :func:`chunk_bounds`), which bound its chunk x
support kernel block. The flow scores all rows in one coupling walk, whose
temporaries are as wide as the coordinates (r = 3-4 on the default config)
or the hidden layers. At narrow widths a row's last bits can depend on the
batch it comes in.
The KDE raises its max-shifted log-kernels to at least
``KDE_LOG_KERNEL_FLOOR`` = -700 before the exp, which keeps numpy on its
vectorized exp (a subnormal or zero result costs 15-150x more per element)
and moves no output bit: each row's largest kernel is e^0 = 1, and a term
below e^-700 is far under half an ulp of that row sum.

After fitting, :func:`compute_scale` records the maximum train-point
log-density (one density pass over the train latents, whose scaled
likelihoods it also returns for re-optimization); scaled likelihoods are
then exp(log p(z) - max), which lives in (0, 1] with the densest train
point mapping to exactly 1. A projection is affine, so its log-Jacobian is
a constant that cancels in that difference, as does the normalizer of the
Gaussian on the residual (:meth:`FlowModel.log_density`). Values that
underflow are floored at the smallest positive normal float so the interval
stays open at 0 (this includes rows so far out that every squared distance,
the projection or the flow transform overflows: their log-density is -inf);
test points denser than any train point clamp to 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .config import FlowConfig
from .layers import (Dense, DenseNet, DenseWorkspace, activation_grad, apply_activation,
                     fan_in_uniform)
from .model import batch_rows, train_minibatches

LIKELIHOOD_FLOOR = sys.float_info.min  # smallest positive normal float64

LOG_2PI = math.log(2.0 * math.pi)


# -- kernel density estimation ----------------------------------------------


# Query rows per kernel GEMM in KdeModel.log_density, so a chunk's
# 128 x n buffer stays ~1 MB at n = 1000 support rows.
KDE_CHUNK_ROWS = 128

# Floor of the max-shifted log-kernels in KdeModel.log_density: e^-700 is a
# normal float, so the exp stays on numpy's vectorized path; below about
# -708 numpy computes each element alone.
KDE_LOG_KERNEL_FLOOR = -700.0


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


def latent_rows(z, width: int) -> np.ndarray:
    """z as a float64 matrix of latent rows (a vector is one row), once
    each row is width wide; numpy would otherwise broadcast a row of
    another width against a width-wide mean."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if z.ndim != 2 or z.shape[1] != width:
        raise ValueError(f"latent rows have shape {z.shape}; the density reads rows "
                         f"{width} wide")
    return z


@dataclass(frozen=True)
class KdeModel:
    """Gaussian KDE of latent rows on their top principal coordinates.

    A d-wide latent row z has the r coordinates c = (z - mean) @
    directions.T, where ``directions`` holds r orthonormal rows; ``support``
    holds the train rows' coordinates. The density is an r-dim KDE of c
    with the scalar bandwidth h times an isotropic Gaussian of width h on
    the residual, the row's centered part off the directions' span:

        log p(z) = log mean_j N(c; s_j, h^2 I_r) - ||residual||^2 / (2 h^2)
                   - (d - r) log h - (d - r)/2 log 2 pi,

    which equals the full-space KDE exactly when the support lies in the
    subspace, and scores a row far off it low in every direction.

    The arrays are copied and made read-only at construction, and two
    derived values are cached then (not serialized, not compared): the
    ``augmented`` n x (r + 1) support [s / h, -||s / h||^2 / 2] and the
    normalizer ``log_norm`` = log n + d log h + d/2 log 2 pi.
    """

    mean: np.ndarray  # (d,)
    directions: np.ndarray  # (r, d)
    support: np.ndarray  # (n, r) train coordinates
    bandwidth: float
    augmented: np.ndarray = field(init=False, repr=False, compare=False)
    log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("mean", "directions", "support"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), float)))
        h = float(self.bandwidth)
        object.__setattr__(self, "bandwidth", h)
        if not 0 < h < np.inf:
            raise ValueError("bandwidth must be positive and finite")
        support = self.support
        if support.ndim != 2 or support.shape[0] == 0:
            raise ValueError("KDE support must be a non-empty matrix")
        n, r = support.shape
        want = (r, self.dim)
        if self.directions.shape != want:
            raise ValueError(f"kde directions have shape {self.directions.shape}; a support "
                             f"of shape {support.shape} over a {want[1]}-d mean needs {want}")
        augmented = np.empty((n, r + 1))
        np.divide(support, h, out=augmented[:, :r])
        augmented[:, r] = np.einsum("nr,nr->n", augmented[:, :r], augmented[:, :r])
        augmented[:, r] *= -0.5
        augmented.flags.writeable = False
        object.__setattr__(self, "augmented", augmented)
        object.__setattr__(self, "log_norm", math.log(n) + self.dim * math.log(h)
                           + 0.5 * self.dim * LOG_2PI)

    @property
    def dim(self) -> int:
        """d, the width of the latent rows."""
        return self.mean.size

    def log_density(self, z: np.ndarray) -> np.ndarray:
        """Log-density of each latent row of z; -inf where a value overflows
        (a far, huge row), never NaN.

        Walks z in chunks of KDE_CHUNK_ROWS rows (see chunk_bounds) through
        reused buffers. Each chunk is centered and projected by einsum,
        which sums each dot product over the row alone, so a row scores
        alike in any batch. One GEMM of the augmented query [c / h, 1]
        against ``augmented`` then gives every c.s / h^2 - ||s||^2 / (2 h^2),
        the log-kernel plus the row's ||c||^2 / (2 h^2); a max-shifted
        log-sum-exp runs over them, its shifted terms raised to at least
        KDE_LOG_KERNEL_FLOOR before the exp. The row's own term comes after:
        the directions are orthonormal, so ||c||^2 + ||residual||^2 =
        ||z - mean||^2, and one norm per row gives both the kernels' missing
        part and the residual's Gaussian. It is divided by h twice, so that
        at a tiny h no step multiplies an infinity by 0.

        No squared distance is formed, so none needs a clamp at 0: the shift
        bounds every exp at e^0 = 1 whatever the rounding, and rounding that
        lifts a row's log-density above the densest train row's only scales
        it to s = 1. The floor moves no output bit: each row sum is at least
        the nearest kernel's e^0 = 1, and a floored term is below e^-700 ~
        1e-304, far under half an ulp of it; it can only change a partial
        sum of the pairwise summation that is itself tiny, and the row sum
        absorbs that partial. tests/kde_reference.py keeps the unfloored
        one-shot kernel as the oracle.
        """
        z = latent_rows(z, self.dim)
        rows = z.shape[0]
        bounds = chunk_bounds(rows, KDE_CHUNK_ROWS)
        cap = min(rows, KDE_CHUNK_ROWS + 1)
        r = self.directions.shape[0]
        centered = np.empty((cap, self.dim))
        query = np.empty((cap, r + 1))
        query[:, r] = 1.0
        buf = np.empty((cap, self.support.shape[0]))
        out = np.empty(rows)
        h, mean, directions = self.bandwidth, self.mean, self.directions
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for lo, hi in zip(bounds, bounds[1:]):
                c = np.subtract(z[lo:hi], mean, out=centered[:hi - lo])
                q = query[:hi - lo]
                np.divide(np.einsum("rd,nd->nr", directions, c), h, out=q[:, :r])
                a = buf[:hi - lo]
                np.matmul(q, self.augmented.T, out=a)
                m = a.max(axis=1)
                a -= m[:, None]
                np.maximum(a, KDE_LOG_KERNEL_FLOOR, out=a)
                np.exp(a, out=a)
                lse = out[lo:hi]
                np.log(a.sum(axis=1), out=lse)
                lse += m
                sq = np.einsum("nd,nd->n", c, c)
                sq /= h
                sq /= h
                sq *= 0.5
                lse -= sq
        # A row whose max is -inf or NaN, or whose norm overflowed to meet
        # an infinite max, came out NaN; fmax turns exactly those into -inf.
        np.fmax(out, -np.inf, out=out)
        out -= self.log_norm
        return out

    def param_count(self) -> int:
        """The support, the mean, the directions and the bandwidth."""
        return self.support.size + self.mean.size + self.directions.size + 1


def scott_bandwidth(z: np.ndarray) -> float:
    """Scott's factor n^(-1/(d+4)) times the mean per-dimension std."""
    z = np.asarray(z, dtype=np.float64)
    n, d = z.shape
    sigma = float(z.std(axis=0).mean())
    if sigma == 0.0:
        sigma = 1.0
    return float(n ** (-1.0 / (d + 4))) * sigma


def kde_fit(z: np.ndarray, bandwidth: float | None = None) -> KdeModel:
    """The KDE of the latent rows z on their fewest top principal
    directions that keep KDE_VARIANCE_KEPT of the variance (at least 1),
    from one SVD of the centered rows. The bandwidth defaults to Scott's
    rule on the full d-wide rows."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ValueError("KDE support must be a non-empty matrix")
    if bandwidth is None:
        bandwidth = scott_bandwidth(z)
    mean, sv, vt, noise = _principal_axes(z)
    directions = vt[:max(1, _directions_holding(sv, noise, KDE_VARIANCE_KEPT))]
    return KdeModel(mean, directions, np.einsum("rd,nd->nr", directions, z - mean), bandwidth)


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
    maps the |P| columns of z_P to the |T| columns of s and b, so it holds
    only the weights a masked full-width net would read. :func:`coupling_net`
    lays it out: relu layers, then a linear last layer, after which
    ``FINAL`` is applied per slot.

    ``forward``, the one coupling step for inference and training, takes the
    halves z_P and z_T and returns t_T and s; t_P is z_P itself, and no
    arithmetic runs on the zeros of a masked product. ``backward``
    also works on halves.
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
        maps = (net.layers[0].weight.data.shape[1], net.layers[-1].weight.data.shape[2])
        needs = (_width(self.p_cols), _width(self.t_cols))
        if maps != needs:
            raise ValueError(f"{what} maps {maps[0]} -> {maps[1]} columns; in the "
                             f"{dim}-d flow its halves need {needs[0]} -> {needs[1]}")
        self.net = net

    def forward(self, zp: np.ndarray, zt: np.ndarray, work: CouplingWorkspace | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """The coupling step on the halves z_P, z_T: t_T and s (t_P is z_P
        itself). Given the layer's workspace, whose input halves zp and zt
        must be, every array goes into it, where ``backward`` reads it."""
        if work is not None and zt is not work.zt:
            raise ValueError("a coupling workspace's forward runs on its own input halves")
        st = self.net.forward(zp, None if work is None else work.net)
        for slot, activation in enumerate(FINAL):
            apply_activation(st[slot], activation, out=st[slot])
        s, b = st
        e = np.exp(s, out=None if work is None else work.e)
        t_t = np.multiply(zt, e, out=None if work is None else work.t_t)
        t_t += b
        return t_t, s

    def backward(self, work: CouplingWorkspace, g_p: np.ndarray, g_t: np.ndarray, g_s_sum,
                 t_net_first: bool, input_grad: bool = True
                 ) -> tuple[np.ndarray, np.ndarray] | None:
        """Given the workspace of the last forward, d(loss)/d(t_P),
        d(loss)/d(t_T) and d(loss)/d(sum of s), write the subnets' parameter
        gradients; return d(loss)/d(z_P) and d(loss)/d(z_T) in the
        workspace's arrays, or None when ``input_grad`` is false.

        z_P collects three contributions, and floating-point addition is
        not associative, so their order is fixed to the one the per-op
        test oracle's depth-first walk produces: the pass-through term, then the
        s-net's, then the t-net's; `t_net_first` swaps the last two, which
        is the tape's order in the flow's final coupling layer.
        """
        e, g = work.e, work.g
        st = work.net.layers[-1].act
        # d(loss)/ds = g_s_sum + g_t * z_T * e, through the s-net's tanh
        u = np.multiply(g_t, work.zt, out=work.u)
        u *= e
        u += g_s_sum
        activation_grad(u, st[0], FINAL[0], g[0])
        activation_grad(g_t, st[1], FINAL[1], g[1])
        g_in = self.net.backward(work.net, g, input_grad)
        if not input_grad:
            return None
        first, second = (g_in[1], g_in[0]) if t_net_first else (g_in[0], g_in[1])
        g_zp = np.add(g_p, first, out=work.g_zp)
        g_zp += second
        return g_zp, np.multiply(g_t, e, out=work.g_zt)

    def params(self) -> list[Tensor]:
        return self.net.params()


class CouplingWorkspace:
    """A coupling layer's training arrays on its input halves zp and zt, in
    their dtype (see ``FlowWorkspace``): its net's ``DenseWorkspace`` on zp,
    the forward's e = exp(s) and t_T, and the backward's scratch and
    outputs."""

    __slots__ = ("zt", "net", "e", "t_t", "u", "g", "g_zp", "g_zt")

    def __init__(self, layer: CouplingLayer, zp: np.ndarray, zt: np.ndarray):
        self.zt = zt
        self.net = DenseWorkspace(layer.net, zp)
        self.e, self.t_t, self.u, self.g_zt = (np.empty(zt.shape, zt.dtype) for _ in range(4))
        self.g = np.empty((2,) + zt.shape, zt.dtype)
        self.g_zp = np.empty(zp.shape, zp.dtype)


def coupling_net(layers: list[tuple[Tensor, Tensor]]) -> DenseNet:
    """A coupling layer's stacked s-/t-net over its (weight, bias) pairs, fresh
    or loaded: relu layers, then a linear last layer."""
    end = len(layers) - 1
    return DenseNet([Dense(weight, bias, "linear" if i == end else "relu")
                     for i, (weight, bias) in enumerate(layers)])


def _fresh_net(rng: np.random.Generator, dim: int, config: FlowConfig, index: int) -> DenseNet:
    """A fresh stacked net of coupling layer ``index``: the s-net's weights
    are drawn, then the t-net's, and each depth's pair is stacked. The first
    matrix is drawn over all dim input rows, as a full-width net's is, and
    keeps the rows P, so the generator's stream is that of a full-width
    net. The zero last layer makes the freshly built flow the identity."""
    p_cols, t_cols = halves(dim, index)
    widths = [dim] + [config.hidden_units] * config.hidden_layers
    shapes = list(zip(widths, widths[1:]))

    def subnet() -> list[np.ndarray]:
        drawn = [fan_in_uniform(rng, *shape) for shape in shapes]
        return [drawn[0][p_cols]] + drawn[1:] + [np.zeros((config.hidden_units, _width(t_cols)))]

    s_net, t_net = subnet(), subnet()
    return coupling_net([(Tensor(np.stack(pair)), Tensor(np.zeros((2, 1, pair[0].shape[1]))))
                         for pair in zip(s_net, t_net)])


class FlowModel:
    """A density of latent rows: coupling layers, one stacked net each, over
    a standard normal base on the rows' coordinates under ``projection``,
    times a Gaussian on each row's residual off them. ``log_density`` takes
    latent rows; ``forward`` and ``nll_loss`` take coordinates.

    Layer i's columns are ``halves(dim, i)``, so each layer passes through
    exactly the columns the layer before it transformed, and the walk hands
    a layer's two halves to the next one swapped, with no re-cut of the
    state."""

    def __init__(self, projection: LatentProjection, nets: list[DenseNet]):
        dim = projection.dim
        if dim < 2:
            raise ValueError("flow needs dim >= 2")
        if not nets:
            raise ValueError("flow needs at least one coupling layer")
        self.projection = projection
        self.dim = dim
        self.layers = [CouplingLayer(net, dim, i) for i, net in enumerate(nets)]

    @classmethod
    def build(cls, projection: LatentProjection, config: FlowConfig, seed: int) -> "FlowModel":
        rng = np.random.default_rng(seed)
        return cls(projection, [_fresh_net(rng, projection.dim, config, i)
                                for i in range(config.coupling_layers)])

    def forward(self, c: np.ndarray, work: FlowWorkspace | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """t of each row of the coordinates c and its log-det: each layer's
        s summed per row, added up layer by layer. The state travels as the
        next layer's halves (zp, zt) and is joined once at the end. Given a
        workspace, c must be its input array, and every array of the walk
        goes into the workspace."""
        if work is None:
            z = np.atleast_2d(np.asarray(c, dtype=np.float64))
            first = self.layers[0]
            halves = z[:, first.p_cols], z[:, first.t_cols]
            works, s_sum, log_det_out, t = [None] * len(self.layers), None, None, np.empty(z.shape)
        else:
            if c is not work.x:
                raise ValueError("a flow workspace's forward runs on its own input array")
            halves, works, s_sum, log_det_out, t = (work.halves, work.layers, work.s_sum,
                                                    work.log_det, work.t)
        zp, zt = halves
        log_det = 0.0
        for layer, layer_work in zip(self.layers, works):
            t_t, s = layer.forward(zp, zt, layer_work)
            log_det = np.add(log_det, s.sum(axis=1, out=s_sum), out=log_det_out)
            # this layer's T is the next layer's P, and its P the next's T
            zp, zt = t_t, zp
        last = self.layers[-1]
        t[:, last.t_cols] = zp
        t[:, last.p_cols] = zt
        return t, log_det

    def log_density(self, z: np.ndarray) -> np.ndarray:
        """Log-density of each latent row of z, up to a constant: that of its
        coordinates, from one ``forward`` walk, plus the projection's
        residual term; -inf where a value overflows (a far, huge row), never
        NaN."""
        coords, off = self.projection.project(z)
        with np.errstate(over="ignore", invalid="ignore"):
            t, log_det = self.forward(coords)
            out = -0.5 * (t * t).sum(axis=1) - 0.5 * self.dim * LOG_2PI
            out += log_det
            out += off
        # A row whose projection or transform overflowed came out NaN; the
        # log-det is a sum of tanh values and the residual term is <= 0, so
        # no row is +inf, and fmax turns exactly the NaN rows into -inf.
        return np.fmax(out, -np.inf, out=out)

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params()) + self.projection.param_count()

    def weight_tensors(self) -> list[Tensor]:
        """The subnets' 2-D weight matrices (read-only views of the stacked
        slots), layer by layer: the s-net's, then the t-net's. The L2 value
        sums them in this order."""
        return [Tensor(_read_only(w.data[slot])) for layer in self.layers
                for slot in (0, 1) for w in layer.net.weight_tensors()]

    def nll_loss(self, batch: np.ndarray, work: FlowWorkspace | None = None) -> Tensor:
        """Mean negative log-likelihood of a batch of coordinates as one loss
        node, the data term (``train_minibatches`` adds the L2 term); its
        rule walks the coupling layers in reverse.

        The forward is the inference walk on the workspace, whose input
        array the batch must be (without one, one is made on the batch); the
        gradient travels as the halves (g_p, g_t) like the flow state."""
        n, d = batch.shape
        if work is None:
            work = FlowWorkspace(self, batch)
        t, log_det = self.forward(batch, work)
        # mean over the batch of [0.5*||t||^2 - log_det] plus the base constant
        loss = ((np.multiply(t, t, out=work.sq).sum() * 0.5 - log_det.sum()) * (1.0 / n)
                + 0.5 * d * LOG_2PI)

        def rule() -> None:
            r = 1.0 / n
            # d(loss)/dt = (r * 0.5) * (2.0 * t)
            np.multiply(t, 2.0, out=work.g)
            work.g *= r * 0.5
            g_p, g_t = work.g_halves
            last = len(self.layers) - 1
            for i in range(last, -1, -1):
                g_z = self.layers[i].backward(work.layers[i], g_p, g_t, -r, i == last, i > 0)
                if g_z is not None:
                    # layer i's P and T are layer i-1's T and P
                    g_t, g_p = g_z

        return Tensor(loss, rule)


class FlowWorkspace:
    """The flow's training arrays on one input array ``x`` of coordinates,
    in x's dtype, made once per fit for the full batches, so such a step
    allocates no array (the relu mask aside): x's first halves, one
    ``CouplingWorkspace`` per layer (each on the halves its forward reads,
    which are the arrays the layer before it wrote), the log-det sums, t and
    its square, and d(loss)/dt with its last layer's halves. As a
    ``DenseWorkspace``, it belongs to the one optimizer it first bound to."""

    def __init__(self, flow: FlowModel, x: np.ndarray):
        self.x = x
        first, last = flow.layers[0], flow.layers[-1]
        zp, zt = self.halves = (x[:, first.p_cols], x[:, first.t_cols])
        self.layers = []
        for layer in flow.layers:
            work = CouplingWorkspace(layer, zp, zt)
            self.layers.append(work)
            zp, zt = work.t_t, zp
        self.s_sum, self.log_det = (np.empty(x.shape[0], x.dtype) for _ in range(2))
        self.t, self.sq, self.g = (np.empty(x.shape, x.dtype) for _ in range(3))
        self.g_halves = (self.g[:, last.p_cols], self.g[:, last.t_cols])


def flow_fit(train_z: np.ndarray, config: FlowConfig, seed: int) -> tuple[FlowModel, list[float]]:
    """Fit the projection of the train latent rows (:func:`fit_projection`,
    one SVD), then the coupling layers on their coordinates by minimizing
    mean NLL plus the L2 term; seed draws the initial weights and the batch
    order. The full batches step on one workspace, which the loop makes
    and drops.
    The model's log-density is of latent rows, up to a constant.

    Returns the model and the per-epoch loss trace.
    """
    train_z = np.asarray(train_z, dtype=np.float64)
    projection = fit_projection(train_z)
    coords, _ = projection.project(train_z)
    n = coords.shape[0]
    if n < config.batch_size:
        raise ValueError(f"need at least batch_size={config.batch_size} rows, got {n}")
    flow = FlowModel.build(projection, config, seed)
    trace = train_minibatches(
        "flow", lambda idx, work: flow.nll_loss(batch_rows(coords, idx, work), work),
        [layer.net.weight_tensors() for layer in flow.layers],
        [b for layer in flow.layers for b in layer.net.bias_tensors()],
        config.l2, config.lr, n, config.batch_size, config.epochs, seed,
        lambda rows: FlowWorkspace(flow, np.empty((rows, flow.dim))))
    return flow, trace


# -- latent projection --------------------------------------------------------


# Share of the train latents' variance that the flow's coordinates keep: the
# fewest top principal directions holding it, and at least 2 (a coupling
# layer needs two halves).
PROJECTION_VARIANCE_KEPT = 0.99

# Share of the train latents' variance that the KDE's coordinates keep: the
# fewest top principal directions holding it, and at least 1. It is more
# than the flow keeps because the KDE scores the residual at its bandwidth,
# narrower than the left-out spread: at 99.99% (r = 16-20 on the default
# config) an iid row's log s moved by at most 0.11 against the 128-d KDE.
KDE_VARIANCE_KEPT = 0.9999


@dataclass(frozen=True)
class LatentProjection:
    """The flow's view of latent rows: their whitened top principal
    coordinates, (z - mean) @ directions.T / scales, and the log-density of
    each row's residual off their subspace under N(0, residual_scale^2 I).

    ``directions`` holds r orthonormal rows, the top right singular vectors
    of the centered train latents, and ``scales`` the train latents'
    standard deviation along each, so the train coordinates have mean 0 and
    unit variance per column. ``residual_scale`` is their standard
    deviation along the largest direction the coordinates leave out, so the
    Gaussian on the residual is at least as wide as the train latents along
    every direction it covers, and a row far off the subspace still scores
    low. The arrays are copied and made read-only at construction.
    """

    mean: np.ndarray  # (d,)
    directions: np.ndarray  # (r, d)
    scales: np.ndarray  # (r,)
    residual_scale: float

    def __post_init__(self):
        for name in ("mean", "directions", "scales"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), float)))
        object.__setattr__(self, "residual_scale", float(self.residual_scale))
        want = (self.scales.size, self.mean.size)
        if self.directions.shape != want:
            raise ValueError(f"projection directions have shape {self.directions.shape}; "
                             f"{want[0]} scales over a {want[1]}-d mean need {want}")
        if not np.all((self.scales > 0) & (self.scales < np.inf)):
            raise ValueError("projection scales must be positive and finite")
        if not 0 < self.residual_scale < np.inf:
            raise ValueError("projection residual_scale must be positive and finite")

    @property
    def dim(self) -> int:
        """r, the width of the coordinates."""
        return self.directions.shape[0]

    def project(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The coordinates of each row of z, and -||residual||^2 /
        (2 residual_scale^2), where the residual is the row's centered part
        off the directions' span. A row of another width than the mean
        raises ValueError.

        Each is a function of its row alone: numpy's einsum sums every dot
        product over the row's entries in one loop, whatever the batch,
        where a BLAS product with r columns rounds a row differently in
        batches of other sizes, and the densest train row could then score
        below 1 when served in another batch than compute_scale's. Under the
        flow walk's errstate: a huge row's values overflow to an infinity or
        NaN, which the density maps to -inf, with no warning."""
        z = latent_rows(z, self.mean.size)
        with np.errstate(over="ignore", invalid="ignore"):
            centered = z - self.mean
            coords = np.einsum("nd,rd->nr", centered, self.directions)
            centered -= np.einsum("nr,rd->nd", coords, self.directions)
            off = (centered * centered).sum(axis=1)
            off *= -0.5 / self.residual_scale**2
            coords /= self.scales
        return coords, off

    def param_count(self) -> int:
        return self.mean.size + self.directions.size + self.scales.size + 1


def _principal_axes(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The mean of the n latent rows z, the singular values and right
    singular vectors of the centered rows, and the rank tolerance: a
    direction varies when its singular value exceeds max(n, d) * eps *
    sqrt(n) * max|z|, numpy's tolerance taken relative to the rows'
    magnitude, since centering leaves rounding noise of about eps * max|z|
    per entry even where every row is equal.

    The SVD is of the centered rows' R factor, which has their singular
    values and right singular vectors, so no n x d left factor is made.
    From n >= 11 d / 6 on, where LAPACK's gesdd QR-factors a tall matrix
    itself, the values and vectors are bit for bit those of
    ``np.linalg.svd`` of the centered rows; below that they agree to
    rounding."""
    n = z.shape[0]
    mean = z.mean(axis=0)
    _, sv, vt = np.linalg.svd(np.linalg.qr(z - mean, mode="r"), full_matrices=False)
    tolerance = max(z.shape) * np.finfo(np.float64).eps * math.sqrt(n) * np.abs(z).max()
    return mean, sv, vt, tolerance


def _directions_holding(sv: np.ndarray, tolerance: float, kept: float) -> int:
    """The fewest top directions whose squared singular values hold the
    share kept of their sum, and at most the varying ones (0 if none)."""
    varying = int((sv > tolerance).sum())
    if varying == 0:
        return 0
    power = sv * sv
    share = np.cumsum(power) / power.sum()
    return min(varying, int(np.searchsorted(share, kept)) + 1)


def fit_projection(z: np.ndarray) -> LatentProjection:
    """The projection of the n latent rows z onto their fewest top principal
    directions that keep PROJECTION_VARIANCE_KEPT of the variance (at least
    2), from one SVD of the centered rows (see _principal_axes).

    Raises ValueError when the rows vary along fewer than 2 directions. The
    residual scale comes from the largest singular value left out, and at
    least from the rank tolerance, so it stays positive where the rows lie
    in r directions."""
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    mean, sv, vt, noise = _principal_axes(z)
    varying = int((sv > noise).sum())
    if varying < 2:
        raise ValueError(f"the train latents vary along {varying} direction(s); "
                         "the flow needs at least 2")
    r = max(2, _directions_holding(sv, noise, PROJECTION_VARIANCE_KEPT))
    left_out = sv[r] if r < sv.size else 0.0
    return LatentProjection(mean, vt[:r], sv[:r] / math.sqrt(n),
                            float(max(left_out, noise)) / math.sqrt(n))


# -- likelihood scaling -------------------------------------------------------


@dataclass(frozen=True)
class ScaledDensity:
    """A fitted density of latent rows plus the max train log-density used
    for scaling."""

    inner: KdeModel | FlowModel
    max_train_log_density: float

    def scaled_likelihood(self, z: np.ndarray) -> np.ndarray:
        """exp(log p(z) - max train log p), clamped into [floor, 1], of each
        latent row of z. A row's s can differ in its last bits between a
        batch-1 call and a batched one: at narrow widths BLAS may round a
        row's products differently in another batch (see chunk_bounds)."""
        return self.scale(self.inner.log_density(z))

    def scale(self, log_density: np.ndarray) -> np.ndarray:
        """The scaled likelihood of rows of the given log-density:
        exp(log_density - max train log p), clamped into [floor, 1]."""
        s = log_density - self.max_train_log_density
        np.minimum(s, 0.0, out=s)
        with np.errstate(under="ignore"):
            np.exp(s, out=s)
        return np.maximum(s, LIKELIHOOD_FLOOR, out=s)  # exp of <= 0 is <= 1

    def param_count(self) -> int:
        return self.inner.param_count() + 1  # plus the scale constant


def compute_scale(density: KdeModel | FlowModel, train_z: np.ndarray
                  ) -> tuple[ScaledDensity, np.ndarray]:
    """The density scaled by its max train log-density, and the scaled
    likelihood of each train latent row, from one density pass over train_z,
    so the densest train row scales to exactly 1 in the same pass that
    serves the train rows.

    Served in other batches, the densest train row can score 1 minus an ulp
    or two (see ScaledDensity.scaled_likelihood); in 128- and 256-row
    batches it scored exactly 1 on the tests' pipelines."""
    train_z = np.asarray(train_z, dtype=np.float64)
    if train_z.ndim != 2 or train_z.shape[0] == 0:
        raise ValueError("train_z must be a non-empty matrix")
    log_p = density.log_density(train_z)
    scaled = ScaledDensity(inner=density, max_train_log_density=float(log_p.max()))
    return scaled, scaled.scale(log_p)
