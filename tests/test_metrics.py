"""Calibration and OOD metrics against hand values and brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from density_softmax.metrics import (accuracy, auroc, aupr,
                                     bin_index, brier_score, ece_from_bins,
                                     evaluate_predictions,
                                     expected_calibration_error,
                                     misclassified_ece,
                                     negative_log_likelihood, ood_detection,
                                     reliability_bins)


def binary_probs(confidences):
    """Rows predicting class 1 with the given max-probabilities."""
    conf = np.asarray(confidences, dtype=np.float64)
    return np.column_stack([1.0 - conf, conf])


class TestBinning:
    def test_left_open_right_closed(self):
        # conf exactly on an edge belongs to the lower bin
        assert bin_index(np.array([0.2]), 15)[0] == 3  # 0.2 == 3/15
        assert bin_index(np.array([1.0]), 15)[0] == 15
        assert bin_index(np.array([0.01]), 15)[0] == 1

    def test_minimum_confidence_lands_in_bin_one(self):
        # anything <= 1/M goes to bin 1
        assert bin_index(np.array([1.0 / 15]), 15)[0] == 1
        assert bin_index(np.array([0.5]), 2)[0] == 1

    def test_single_occupied_bin_at_ceiling(self):
        for m_bins in (10, 15, 20):
            probs = binary_probs(np.full(50, 0.95))
            labels = np.ones(50, dtype=int)
            stats = reliability_bins(probs, labels, m_bins)
            occupied = [s for s in stats if s.count]
            assert len(occupied) == 1
            assert occupied[0].bin == int(np.ceil(0.95 * m_bins))


class TestEce:
    def test_hand_example_four_samples(self):
        # confidences all 0.9, 2 of 4 correct, one bin: |0.5 - 0.9| = 0.4
        probs = binary_probs([0.9, 0.9, 0.9, 0.9])
        labels = np.array([1, 1, 0, 0])
        assert expected_calibration_error(probs, labels, bins=1) == \
            pytest.approx(0.4, abs=1e-12)

    def test_perfectly_calibrated_binwise_is_zero(self):
        # 10 samples at conf 0.8, exactly 8 correct: acc == conf in the bin
        probs = binary_probs(np.full(10, 0.8))
        labels = np.array([1] * 8 + [0] * 2)
        assert expected_calibration_error(probs, labels, bins=5) == \
            pytest.approx(0.0, abs=1e-12)

    def test_permutation_invariance(self, rng):
        probs = binary_probs(rng.uniform(0.5, 1.0, 100))
        labels = rng.integers(0, 2, 100)
        base = expected_calibration_error(probs, labels, 15)
        perm = rng.permutation(100)
        assert expected_calibration_error(probs[perm], labels[perm], 15) == \
            pytest.approx(base, abs=1e-15)

    def test_matches_reliability_bins_exactly(self, rng):
        probs = binary_probs(rng.uniform(0.5, 1.0, 200))
        labels = rng.integers(0, 2, 200)
        stats = reliability_bins(probs, labels, 15)
        assert ece_from_bins(stats, 200) == expected_calibration_error(probs, labels, 15)

    def test_bin_counts_partition_samples(self, rng):
        probs = binary_probs(rng.uniform(0.5, 1.0, 137))
        labels = rng.integers(0, 2, 137)
        stats = reliability_bins(probs, labels, 15)
        assert sum(s.count for s in stats) == 137

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            expected_calibration_error(np.zeros((0, 2)), np.zeros(0), 15)

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_ece_bounded(self, bins):
        rng = np.random.default_rng(bins)
        probs = binary_probs(rng.uniform(0.5, 1.0, 64))
        labels = rng.integers(0, 2, 64)
        assert 0.0 <= expected_calibration_error(probs, labels, bins) <= 1.0


class TestMisclassifiedEce:
    def test_hand_example(self):
        # 2 wrong of 4, conf 0.9, one bin: (4/2) * 0.4 = 0.8
        probs = binary_probs([0.9, 0.9, 0.9, 0.9])
        labels = np.array([1, 1, 0, 0])
        assert misclassified_ece(probs, labels, bins=1) == pytest.approx(0.8, abs=1e-12)

    def test_all_wrong_equals_ece(self):
        probs = binary_probs([0.9, 0.8, 0.7])
        labels = np.zeros(3, dtype=int)
        assert misclassified_ece(probs, labels, 15) == \
            pytest.approx(expected_calibration_error(probs, labels, 15), abs=1e-15)

    def test_all_correct_is_not_applicable(self):
        probs = binary_probs([0.9, 0.9])
        labels = np.ones(2, dtype=int)
        assert misclassified_ece(probs, labels, 15) is None

    def test_nonnegative(self, rng):
        probs = binary_probs(rng.uniform(0.5, 1.0, 50))
        labels = rng.integers(0, 2, 50)
        val = misclassified_ece(probs, labels, 15)
        assert val is None or val >= 0.0


class TestPointMetrics:
    def test_perfect_predictions(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        assert negative_log_likelihood(probs, labels) == pytest.approx(0.0, abs=1e-12)
        assert accuracy(probs, labels) == 1.0
        assert brier_score(probs, labels) == 0.0

    def test_uniform_binary(self):
        probs = np.full((4, 2), 0.5)
        labels = np.array([0, 1, 0, 1])
        assert negative_log_likelihood(probs, labels) == pytest.approx(np.log(2))
        assert brier_score(probs, labels) == pytest.approx(0.5)

    def test_brier_hand_value(self):
        assert brier_score(np.array([[0.7, 0.3]]), np.array([0])) == \
            pytest.approx(0.18, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_brier_of_uniform_is_k_minus_one_over_k(self, k):
        probs = np.full((6, k), 1.0 / k)
        labels = np.arange(6) % k
        assert brier_score(probs, labels) == pytest.approx((k - 1) / k, abs=1e-12)


class TestPredictedClasses:
    """Tied probabilities score on the served class, at the confidence
    max(probs) = 1/K; without ``predicted`` each metric keeps the argmax."""

    def tied(self):
        # rows 0-1 are tied (argmax picks class 0) but served as class 1
        probs = np.array([[0.5, 0.5], [0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])
        return probs, np.array([1, 1, 1, 1]), np.array([1, 1, 1, 0])

    def test_accuracy(self):
        probs, labels, predicted = self.tied()
        assert accuracy(probs, labels) == 0.25
        assert accuracy(probs, labels, predicted=predicted) == 0.75

    def test_bins_count_a_tied_row_at_one_over_k(self):
        probs, labels, predicted = self.tied()
        stats = reliability_bins(probs, labels, 2, predicted=predicted)
        assert (stats[0].count, stats[0].acc, stats[0].conf) == (2, 1.0, 0.5)
        assert (stats[1].count, stats[1].acc) == (2, 0.5)
        assert expected_calibration_error(probs, labels, 2, predicted=predicted) == \
            pytest.approx(0.5 * 0.5 + 0.5 * 0.35, abs=1e-12)
        assert misclassified_ece(probs, labels, 2, predicted=predicted) == \
            pytest.approx(4 * (0.5 * 0.5 + 0.5 * 0.35), abs=1e-12)

    def test_report_scores_the_predicted_classes(self):
        probs, labels, predicted = self.tied()
        report = evaluate_predictions("t", probs, labels, bins=2, predicted=predicted)
        assert report.accuracy == 0.75
        assert report.ece == expected_calibration_error(probs, labels, 2, predicted=predicted)
        assert report.mece == misclassified_ece(probs, labels, 2, predicted=predicted)
        plain = evaluate_predictions("t", probs, labels, bins=2)
        assert plain.accuracy == 0.25
        assert plain.ece == expected_calibration_error(probs, labels, 2)

    def test_argmax_classes_are_the_default(self, rng):
        probs = binary_probs(rng.uniform(0.5, 1.0, 50))
        labels = rng.integers(0, 2, 50)
        predicted = probs.argmax(axis=1)
        assert accuracy(probs, labels, predicted=predicted) == accuracy(probs, labels)
        assert reliability_bins(probs, labels, 15, predicted=predicted) == \
            reliability_bins(probs, labels, 15)

    @pytest.mark.parametrize("predicted, message", [
        (np.array([0, 1, 1]), "predicted classes must align with probability rows"),
        (np.array([0, 1, 2, 0]), "predicted class index out of range"),
        (np.array([0, -1, 1, 0]), "predicted class index out of range")])
    def test_bad_predicted_classes_rejected(self, predicted, message):
        probs, labels, _ = self.tied()
        with pytest.raises(ValueError, match=message):
            accuracy(probs, labels, predicted=predicted)


def brute_force_auroc(iid, ood):
    """All-pairs comparison: P(ood > iid) + 0.5 P(tie)."""
    wins = ties = 0
    for o in ood:
        for i in iid:
            if o > i:
                wins += 1
            elif o == i:
                ties += 1
    return (wins + 0.5 * ties) / (len(iid) * len(ood))


class TestOodDetection:
    def test_perfect_separation(self):
        out = ood_detection(np.array([0.1, 0.2, 0.3]), np.array([0.9, 0.8, 0.7]))
        assert out["auroc"] == 1.0
        assert out["aupr"] == 1.0

    def test_identical_distributions_near_chance(self, rng):
        iid = rng.normal(size=1000)
        ood = rng.normal(size=1000)
        assert auroc(iid, ood) == pytest.approx(0.5, abs=0.02)

    def test_three_vs_three_hand_ranked(self):
        iid = np.array([1.0, 2.0, 3.0])
        ood = np.array([2.5, 3.5, 0.5])
        assert auroc(iid, ood) == pytest.approx(brute_force_auroc(iid, ood), abs=1e-15)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_rank_statistic_equals_all_pairs(self, n_iid, n_ood, seed):
        rng = np.random.default_rng(seed)
        # coarse grid of score values forces plenty of ties
        iid = rng.integers(0, 6, n_iid).astype(float)
        ood = rng.integers(0, 6, n_ood).astype(float)
        assert auroc(iid, ood) == pytest.approx(brute_force_auroc(iid, ood), abs=1e-12)

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=80),
           st.lists(st.integers(-3, 3), min_size=1, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_tied_integer_scores_match_pairwise_definition(self, iid, ood):
        iid, ood = np.array(iid, dtype=float), np.array(ood, dtype=float)
        wins = (ood[:, None] > iid[None, :]).mean()
        ties = (ood[:, None] == iid[None, :]).mean()
        np.testing.assert_allclose(auroc(iid, ood), wins + 0.5 * ties, rtol=1e-12, atol=0)

    def test_direction_flag(self):
        """A score that is low for OOD rows is negated first."""
        iid = np.array([0.9, 0.8])  # iid scores HIGH under this scoring
        ood = np.array([0.1, 0.2])
        assert auroc(-iid, -ood) == 1.0
        assert aupr(-iid, -ood) == 1.0

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            auroc(np.array([]), np.array([1.0]))
        with pytest.raises(ValueError):
            aupr(np.array([1.0]), np.array([]))

    def test_aupr_chance_level_is_positive_rate(self, rng):
        iid = rng.normal(size=2000)
        ood = rng.normal(size=1000)
        # with indistinguishable scores AUPR approaches n_ood / n_total
        assert aupr(iid, ood) == pytest.approx(1 / 3, abs=0.05)


class TestEvalReport:
    def test_full_report_fields(self, rng):
        probs = binary_probs(rng.uniform(0.5, 1.0, 50))
        labels = rng.integers(0, 2, 50)
        report = evaluate_predictions("iid_test", probs, labels,
                                      scaled_likelihood=rng.uniform(0.1, 1.0, 50))
        doc = report.to_dict()
        for key in ("accuracy", "nll", "ece", "brier", "mean_entropy_nats",
                    "mean_scaled_likelihood", "bins"):
            assert doc[key] is not None
        assert doc["domain"] == "iid_test"
        assert all(np.isfinite(v) for v in (doc["accuracy"], doc["nll"],
                                            doc["ece"], doc["brier"]))

    def test_unlabeled_report_skips_label_metrics(self, rng):
        probs = binary_probs(rng.uniform(0.5, 1.0, 20))
        report = evaluate_predictions("ood", probs, None)
        assert report.accuracy is None
        assert report.ece is None
        assert report.mean_entropy_nats is not None
