import os

# One BLAS thread, as perfbench/run.py pins it, set before numpy loads: at
# OpenBLAS's default thread count the suite stalls when another process
# keeps a core busy. CLI subprocesses inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import pytest

from density_softmax.autodiff import Tensor
from density_softmax.density import LatentProjection
from density_softmax.layers import Dense, fan_in_uniform
from density_softmax.model import erm_train, init_model
from density_softmax.predictor import DensitySoftmaxModel


def central_difference_grad(loss_fn, params: list[Tensor], h: float = 1e-5):
    """Numeric gradient oracle: perturb each parameter entry by +-h and
    difference the scalar loss. loss_fn rebuilds the graph from scratch."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn()
            flat[i] = orig - h
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def bind_grads(params, fill: float = np.nan):
    """Bind each parameter's grad to a fresh buffer of its dtype filled with
    ``fill``, as an optimizer binds views of its gradient vector, for calling
    a backward rule without one. NaN makes an entry a rule leaves unwritten show."""
    for p in params:
        p.grad = np.full(p.data.shape, fill, dtype=p.data.dtype)
    return params


def assert_float32_exact(arrays) -> None:
    """Each array is float64 and holds float32 values: what ERM, which steps
    in float32, leaves in the head."""
    for a in arrays:
        assert a.dtype == np.float64
        np.testing.assert_array_equal(a.astype(np.float32).astype(np.float64), a)


def assert_own_float32(arrays) -> None:
    """Each array is float32 and owns its memory, not a view of an
    optimizer's packed vector: what ERM leaves in the encoder."""
    for a in arrays:
        assert a.dtype == np.float32
        assert a.base is None


def assert_grads_close(analytic, numeric, rel_tol: float = 1e-4):
    for a, n in zip(analytic, numeric):
        denom = np.abs(a) + 1e-8
        rel = np.abs(a - n) / denom
        assert rel.max() < rel_tol, f"gradient mismatch: max rel err {rel.max():.3e}"


def dense(rng, in_dim: int, out_dim: int, activation: str = "relu",
          residual: bool = False) -> Dense:
    """A freshly initialized layer: a fan-in uniform weight, a zero bias."""
    return Dense(Tensor(fan_in_uniform(rng, in_dim, out_dim)), Tensor(np.zeros(out_dim)),
                 activation, residual)


def erm_model(encoder_config, train, train_config) -> DensitySoftmaxModel:
    """The 2-class ERM model train_pipeline trains first, at train_config.seed."""
    enc, clf = init_model(encoder_config, train.features.shape[1], 2, train_config.seed)
    erm_train(enc, clf, train, train_config, train_config.seed)
    return DensitySoftmaxModel(enc, clf)


def identity_projection(dim: int) -> LatentProjection:
    """The projection that keeps all of a dim-wide latent as it is: mean 0,
    directions I, scales 1; no row has a residual, so its term is 0."""
    return LatentProjection(np.zeros(dim), np.eye(dim), np.ones(dim), 1.0)


def count_forward_rows(monkeypatch, net) -> list[int]:
    """Spy on net.forward: the rows of each call, in call order."""
    rows = []
    forward = net.forward

    def spy(x, *args, **kwargs):
        rows.append(x.shape[0])
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(net, "forward", spy)
    return rows


@pytest.fixture
def rng():
    return np.random.default_rng(0)
