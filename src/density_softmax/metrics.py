"""Calibration, predictive-performance, and OOD-detection metrics.

Binning convention: confidence is the max predicted probability; bin m of M
covers ((m-1)/M, m/M], so a confidence exactly on an edge belongs to the
lower bin and anything <= 1/M lands in bin 1. ``expected_calibration_error``
is computed from :func:`reliability_bins`, so the diagram data and the
scalar always agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .ops import PROB_FLOOR, entropy


@dataclass(frozen=True)
class BinStats:
    bin: int  # 1-based bin index m
    count: int
    acc: float
    conf: float


def _validate(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError("probs must be a non-empty n x K matrix")
    if labels.shape != (probs.shape[0],):
        raise ValueError("labels must align with probability rows")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError("label index out of range")
    return probs, labels


def bin_index(confidence: np.ndarray, bins: int) -> np.ndarray:
    """1-based bin index for each confidence under the ((m-1)/M, m/M] rule."""
    edges = np.arange(1, bins + 1) / bins
    idx = np.searchsorted(edges, confidence, side="left") + 1
    return np.clip(idx, 1, bins)


def reliability_bins(probs: np.ndarray, labels: np.ndarray, bins: int) -> list[BinStats]:
    probs, labels = _validate(probs, labels)
    if bins < 1:
        raise ValueError("need at least one bin")
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    idx = bin_index(conf, bins)
    stats = []
    for m in range(1, bins + 1):
        members = idx == m
        count = int(members.sum())
        if count == 0:
            stats.append(BinStats(bin=m, count=0, acc=0.0, conf=0.0))
        else:
            stats.append(BinStats(bin=m, count=count,
                                  acc=float(correct[members].mean()),
                                  conf=float(conf[members].mean())))
    return stats


def ece_from_bins(stats: list[BinStats], n: int) -> float:
    return float(sum(s.count / n * abs(s.acc - s.conf) for s in stats if s.count))


def expected_calibration_error(probs: np.ndarray, labels: np.ndarray,
                               bins: int = 15) -> float:
    """Bin-weighted |accuracy - confidence| gap; empty bins contribute 0."""
    stats = reliability_bins(probs, labels, bins)
    return ece_from_bins(stats, len(np.asarray(labels)))


def misclassified_ece(probs: np.ndarray, labels: np.ndarray, bins: int = 15
                      ) -> float | None:
    """Calibration gap normalized by the misclassified count instead of N.

    Returns None ("not applicable") when every sample is classified
    correctly.
    """
    probs, labels = _validate(probs, labels)
    return _mece(reliability_bins(probs, labels, bins), probs, labels)


def _mece(stats: list[BinStats], probs: np.ndarray, labels: np.ndarray) -> float | None:
    """misclassified_ece from the reliability bins of probs and labels."""
    n_wrong = int((probs.argmax(axis=1) != labels).sum())
    return ece_from_bins(stats, n_wrong) if n_wrong else None


def negative_log_likelihood(probs: np.ndarray, labels: np.ndarray) -> float:
    probs, labels = _validate(probs, labels)
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    probs, labels = _validate(probs, labels)
    return float((probs.argmax(axis=1) == labels).mean())


def brier_score(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean squared distance between the probability row and the one-hot label."""
    probs, labels = _validate(probs, labels)
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(labels)), labels] = 1.0
    return float(((probs - onehot) ** 2).sum(axis=1).mean())


def auroc(scores_iid: np.ndarray, scores_ood: np.ndarray,
          higher_is_ood: bool = True) -> float:
    """Rank-statistic AUROC with tied ranks averaged (Mann-Whitney)."""
    iid = np.asarray(scores_iid, dtype=np.float64)
    ood = np.asarray(scores_ood, dtype=np.float64)
    if iid.size == 0 or ood.size == 0:
        raise ValueError("both score sets must be non-empty")
    if not higher_is_ood:
        iid, ood = -iid, -ood
    combined = np.concatenate([iid, ood])
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty_like(combined)
    ranks[order] = np.arange(1, combined.size + 1, dtype=np.float64)
    # average ranks across ties
    sorted_vals = combined[order]
    i = 0
    while i < sorted_vals.size:
        j = i
        while j + 1 < sorted_vals.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    rank_sum_ood = ranks[iid.size:].sum()
    n_o, n_i = ood.size, iid.size
    return float((rank_sum_ood - n_o * (n_o + 1) / 2.0) / (n_o * n_i))


def aupr(scores_iid: np.ndarray, scores_ood: np.ndarray,
         higher_is_ood: bool = True) -> float:
    """Area under precision-recall with OOD as the positive class.

    Uses interpolated precision (max precision at recall >= r) integrated
    over the recall steps; tied scores enter a threshold together.
    """
    iid = np.asarray(scores_iid, dtype=np.float64)
    ood = np.asarray(scores_ood, dtype=np.float64)
    if iid.size == 0 or ood.size == 0:
        raise ValueError("both score sets must be non-empty")
    if not higher_is_ood:
        iid, ood = -iid, -ood
    scores = np.concatenate([iid, ood])
    positives = np.concatenate([np.zeros(iid.size, bool), np.ones(ood.size, bool)])
    order = np.argsort(-scores, kind="mergesort")
    scores, positives = scores[order], positives[order]
    n_pos = int(positives.sum())
    tp = np.cumsum(positives)
    k = np.arange(1, scores.size + 1)
    # keep only the last entry of each tied-score group
    last_of_group = np.append(scores[1:] != scores[:-1], True)
    precision = (tp / k)[last_of_group]
    recall = (tp / n_pos)[last_of_group]
    # interpolate: best precision achievable at this recall or beyond
    interp = np.maximum.accumulate(precision[::-1])[::-1]
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * interp).sum())


def ood_detection(scores_iid: np.ndarray, scores_ood: np.ndarray,
                  higher_is_ood: bool = True) -> dict[str, float]:
    return {
        "auroc": auroc(scores_iid, scores_ood, higher_is_ood),
        "aupr": aupr(scores_iid, scores_ood, higher_is_ood),
    }


@dataclass
class EvalReport:
    """Metric bundle for one model on one dataset domain."""

    domain: str
    n: int
    accuracy: float | None = None
    nll: float | None = None
    ece: float | None = None
    mece: float | None = None
    brier: float | None = None
    mean_entropy_nats: float | None = None
    mean_max_prob: float | None = None
    mean_scaled_likelihood: float | None = None
    auroc: float | None = None
    aupr: float | None = None
    param_count: int | None = None
    bins: list[BinStats] | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.bins is not None:
            d["bins"] = [asdict(b) for b in self.bins]
        return d


def evaluate_predictions(domain: str, probs: np.ndarray, labels: np.ndarray | None,
                         scaled_likelihood: np.ndarray | None = None,
                         bins: int = 15) -> EvalReport:
    """Full EvalReport for a batch; label-dependent metrics are skipped when
    labels are None (OOD sets carry sentinel labels only)."""
    probs = np.atleast_2d(probs)
    report = EvalReport(domain=domain, n=probs.shape[0])
    report.mean_entropy_nats = float(entropy(probs, "nats").mean())
    report.mean_max_prob = float(probs.max(axis=1).mean())
    if scaled_likelihood is not None:
        report.mean_scaled_likelihood = float(np.mean(scaled_likelihood))
    if labels is not None:
        report.accuracy = accuracy(probs, labels)
        report.nll = negative_log_likelihood(probs, labels)
        report.bins = reliability_bins(probs, labels, bins)
        report.ece = ece_from_bins(report.bins, report.n)
        report.mece = _mece(report.bins, *_validate(probs, labels))
        report.brier = brier_score(probs, labels)
    return report
