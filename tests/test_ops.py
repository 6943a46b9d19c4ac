"""Softmax and entropy numerics, and the BLAS properties serving's batch
invariance rests on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from density_softmax.density import PROJECT_BLOCK_ROWS
from density_softmax.ops import entropy, gemm_rows, softmax
from kde_reference import logsumexp

finite_logits = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=8)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_hand_value(self):
        out = softmax(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_rejects_empty_and_single(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))
        with pytest.raises(ValueError):
            softmax(np.array([1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax(np.array([1.0, np.nan]))

    def test_large_logits_are_stable(self):
        out = softmax(np.array([1000.0, 1000.0, 999.0]))
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    @given(finite_logits, st.floats(min_value=-100, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, logits, c):
        u = np.array(logits)
        np.testing.assert_allclose(softmax(u + c), softmax(u), atol=1e-9)

    @given(finite_logits)
    @settings(max_examples=200, deadline=None)
    def test_simplex_output(self, logits):
        out = softmax(np.array(logits))
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-12

    @given(finite_logits, st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_permutation_equivariance(self, logits, rand):
        u = np.array(logits)
        perm = list(range(len(u)))
        rand.shuffle(perm)
        np.testing.assert_allclose(softmax(u[perm]), softmax(u)[perm], atol=1e-15)

    def test_batched_rows_match_single(self, rng):
        u = rng.normal(size=(5, 4))
        batched = softmax(u)
        for i in range(5):
            np.testing.assert_array_equal(batched[i], softmax(u[i]))


class TestEntropyAndLse:
    def test_uniform_binary_entropy(self):
        assert entropy(np.array([0.5, 0.5]), "bits") == pytest.approx(1.0, abs=1e-12)
        assert entropy(np.array([0.5, 0.5]), "nats") == pytest.approx(np.log(2), abs=1e-12)

    def test_unknown_base(self):
        with pytest.raises(ValueError):
            entropy(np.array([0.5, 0.5]), "dits")

    def test_logsumexp_matches_direct(self, rng):
        a = rng.normal(size=(4, 6))
        direct = np.log(np.exp(a).sum(axis=1))
        np.testing.assert_allclose(logsumexp(a, axis=1), direct, rtol=1e-12)
        assert logsumexp(a) == pytest.approx(np.log(np.exp(a).sum()), rel=1e-12)


def blas_name() -> str:
    """The BLAS numpy reports it was built with."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


def batch_dependent_rows(a: np.ndarray, b: np.ndarray) -> list[tuple[int, int]]:
    """(rows, first row) of each product of a block of a's rows with b that
    gives a row other bits than the product of all of a's rows: blocks of 2
    to 500 rows at several offsets, and single rows walked as two
    (ops.gemm_rows)."""
    full = a @ b
    found = [(m, lo) for m in (2, 3, 4, 5, 7, 8, 9, 16, 17, 127, 128, 129, 500)
             for lo in (0, 1, 13, len(a) - m)
             if not np.array_equal(a[lo:lo + m] @ b, full[lo:lo + m])]
    return found + [(1, i) for i in range(0, len(a), 20)
                    if not np.array_equal((gemm_rows(a[i:i + 1]) @ b)[:1], full[i:i + 1])]


def stacked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a's rows times b as LatentProjection.project runs its products: one
    stacked matmul over blocks of PROJECT_BLOCK_ROWS rows."""
    blocks = a.reshape(-1, PROJECT_BLOCK_ROWS, a.shape[1])
    return np.matmul(blocks, b).reshape(len(a), -1)


def block_dependent_rows(a: np.ndarray, b: np.ndarray) -> list[tuple[int, int]]:
    """(shift, row) of each row of a whose stacked product with b has other
    bits once a's rows are rolled by shift, which puts the row at another
    offset in another block, or once the row fills a block alone (shift 0),
    as a 1-row batch padded with copies of itself does."""
    full = stacked(a, b)
    found = []
    for shift in (1, 2, 3, 5, 7, 13, 100):
        moved = np.roll(stacked(np.roll(a, shift, axis=0), b), -shift, axis=0)
        found += [(shift, int(i)) for i in np.flatnonzero((moved != full).any(axis=1))]
    return found + [(0, i) for i in range(0, len(a), 17)
                    if not np.array_equal(stacked(np.repeat(a[i:i + 1], PROJECT_BLOCK_ROWS,
                                                            axis=0), b)[0], full[i])]


class TestGemmRowsAreBatchInvariant:
    """The BLAS properties that serving's batch invariance rests on (see
    ``ops.gemm_rows``): at the default config's shapes the BLAS gives a row
    the same bits in every gemm of two or more rows; a fixed-shape gemm of a
    projection block computes each of its rows on its own; and
    ``np.vecdot`` takes each row's dot product on its own. A BLAS without
    them fails here, by name, rather than as a batch-1 prediction that
    differs from the batched one."""

    ROWS = 1000

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("inner", [2, 128])
    def test_encoder_layers(self, dtype, inner):
        """The input projection (2 -> 128) and a residual block (128 -> 128)."""
        rng = np.random.default_rng(inner)
        x = rng.normal(size=(self.ROWS, inner)).astype(dtype)
        w = (rng.uniform(-1.0, 1.0, size=(inner, 128)) / np.sqrt(inner)).astype(dtype)
        found = batch_dependent_rows(x, w)
        assert found == [], (f"{blas_name()} rounds a row of a {np.dtype(dtype).name} "
                             f"{inner} -> 128 product differently by batch at (rows, "
                             f"first row) {found[:5]}")

    def test_kde_kernel(self):
        """The KDE's augmented queries [q, 1] (r + 1 columns, r = 1-21)
        against its C-ordered (r + 1) x 1000 kernel operand."""
        rng = np.random.default_rng(0)
        for r in range(1, 22):
            query = np.hstack([rng.normal(size=(self.ROWS, r)), np.ones((self.ROWS, 1))])
            operand = rng.normal(size=(r + 1, 1000))
            found = batch_dependent_rows(query, operand)
            assert found == [], (f"{blas_name()} rounds a row of the KDE's {r + 1}-column "
                                 f"kernel product differently by batch at (rows, first row) "
                                 f"{found[:5]}")

    @pytest.mark.parametrize("d", [16, 100, 128])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 13, 16, 20])
    def test_projection_blocks(self, r, d):
        """LatentProjection.project's two float64 products, in stacked
        blocks: the centered rows (k, 8, d) against the transposed view of
        the C-ordered r x d directions, and the coordinates (k, 8, r)
        against the directions."""
        rng = np.random.default_rng(100 * r + d)
        rows = 40 * PROJECT_BLOCK_ROWS
        directions = rng.normal(size=(r, d)) / np.sqrt(d)
        for a, b, what in ((rng.normal(size=(rows, d)), directions.T, f"{d} -> {r}"),
                           (rng.normal(size=(rows, r)), directions, f"{r} -> {d}")):
            found = block_dependent_rows(a, b)
            assert found == [], (f"{blas_name()} rounds a row of the projection's {what} "
                                 f"block product differently by block and offset at (shift, "
                                 f"row) {found[:5]}")

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 13, 16, 20, 21, 100, 128])
    def test_vecdot_rows(self, d):
        """np.vecdot of rows with themselves, the projection's residual norm
        and the KDE's ||q||^2 (whose rows are a strided view of its query):
        a row's value is the same bits over the whole batch, over a block at
        any offset, alone and in a strided view."""
        rng = np.random.default_rng(d)
        a = rng.normal(size=(self.ROWS, d))
        full = np.vecdot(a, a)
        wide = np.ones((self.ROWS, d + 1))
        wide[:, :d] = a
        found = [("strided", 0)] if not np.array_equal(
            np.vecdot(wide[:, :d], wide[:, :d]), full) else []
        found += [(m, lo) for m in (1, 2, 7, 8, 9, 129) for lo in (0, 1, 13, self.ROWS - m)
                  if not np.array_equal(np.vecdot(a[lo:lo + m], a[lo:lo + m]),
                                        full[lo:lo + m])]
        assert found == [], (f"{blas_name()} rounds a row's {d}-wide np.vecdot differently "
                             f"by batch at (rows, first row) {found[:5]}")
