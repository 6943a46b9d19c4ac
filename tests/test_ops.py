"""Softmax and entropy numerics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from density_softmax.ops import entropy, softmax
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
