"""BLAS floor and FLOP count of one training step.

For every weight matrix W (in x out) and batch size b, a tape step runs
three matmuls: the forward x @ W (b x in x out), the input gradient
g @ W.T (b x out x in) and the weight gradient x.T @ g (in x b x out).
The floor is the time numpy takes for exactly those matmuls, with nothing
else: the gap between it and the measured step is Python and allocation
overhead.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

import numpy as np


def epoch_batches(n: int, batch_size: int) -> list[int]:
    full, rest = divmod(n, batch_size)
    return [batch_size] * full + ([rest] if rest else [])


def step_matmuls(weight_shapes: list[tuple[int, int]],
                 batches: list[int]) -> Counter:
    """(kind, b, in, out) -> how many times an epoch of steps runs it."""
    counts: Counter = Counter()
    for b in batches:
        for i, o in weight_shapes:
            for kind in ("fwd", "grad_in", "grad_w"):
                counts[(kind, b, i, o)] += 1
    return counts


def _time_matmul(kind: str, b: int, i: int, o: int, rng, reps: int) -> float:
    x = rng.standard_normal((b, i))
    w = rng.standard_normal((i, o))
    g = rng.standard_normal((b, o))
    if kind == "fwd":
        def op():
            return x @ w
    elif kind == "grad_in":
        def op():
            return g @ w.T
    else:
        def op():
            return x.T @ g
    op()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        op()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def step_floor(weight_shapes: list[tuple[int, int]], n: int, batch_size: int,
               reps: int = 200, seed: int = 0) -> dict:
    """Mean per-step BLAS floor (ms) and GFLOP over one epoch of batches."""
    batches = epoch_batches(n, batch_size)
    counts = step_matmuls(weight_shapes, batches)
    rng = np.random.default_rng(seed)
    floor_s = sum(c * _time_matmul(*key, rng, reps) for key, c in counts.items())
    flop = sum(c * 2 * b * i * o for (_, b, i, o), c in counts.items())
    steps = len(batches)
    return {"floor_ms": floor_s / steps * 1e3, "gflop": flop / steps / 1e9,
            "matmuls_per_step": sum(counts.values()) / steps, "steps_per_epoch": steps}
