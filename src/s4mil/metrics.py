"""Accuracy and AUROC (binary and one-versus-rest).

The binary AUROC is the Mann-Whitney statistic, computed via midranks:
(#concordant pairs + 0.5 * #tied pairs) / (#pos * #neg).  Ranks are halves
of integers, so the rank-sum route equals brute-force pair counting exactly
in float64 for realistic sample counts.  One-vs-rest is the unweighted mean
of per-class binary AUROCs over classes present in the labels.  The rest
read (N, C) class probabilities and (N,) class labels.
"""

import numpy as np

from .errors import ContractError, UndefinedMetricError


def _checked(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """scores (N, C) as float64 rows on the simplex, and labels (N,) in 0..C-1."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] < 2 or labels.shape != scores.shape[:1]:
        raise ContractError(f"need (N >= 1, C >= 2) scores and (N,) labels, "
                            f"got {scores.shape} and {labels.shape}")
    if not np.isfinite(scores).all():
        raise ContractError(f"scores must be finite, got {scores[~np.isfinite(scores).all(axis=1)][0]}")
    if np.any(np.abs(scores.sum(axis=1) - 1.0) > 1e-6) or np.any(scores < -1e-12):
        raise ContractError("scores must lie on the probability simplex (within 1e-6)")
    if np.any(bad := (labels < 0) | (labels >= scores.shape[1])):
        raise ContractError(f"label {labels[bad][0]} out of range for {scores.shape[1]} classes")
    return scores, labels


def accuracy(scores, labels) -> float:
    """Fraction with argmax(scores) == label; ties go to the lowest class."""
    scores, labels = _checked(scores, labels)
    return float(np.mean(np.argmax(scores, axis=1) == labels))


def auroc_binary(scores, labels) -> float:
    """Probability a positive outranks a negative, ties counting half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ContractError(f"scores/labels must be matching vectors: {scores.shape} vs {labels.shape}")
    if np.any(bad := (labels != 0) & (labels != 1)):
        raise ContractError(f"binary AUROC labels must be 0 or 1, got {labels[bad][0]}")
    if np.isnan(scores).any():
        raise ContractError("AUROC scores must not be NaN: a NaN has no rank")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUROC undefined with {n_pos} positives and {n_neg} negatives"
        )
    # A run of c tied scores ending at 1-based rank e has midrank e - (c - 1) / 2.
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    midranks = np.cumsum(counts) - 0.5 * (counts - 1)
    rank_sum = midranks[group][pos].sum()
    return float((rank_sum - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg))


def auroc(scores, labels) -> float:
    """The binary AUROC of class 1's scores for two classes, one-vs-rest past two."""
    scores, labels = _checked(scores, labels)
    if scores.shape[1] == 2:
        return auroc_binary(scores[:, 1], labels)
    return auroc_ovr(scores, labels)


def auroc_ovr(scores, labels) -> float:
    """Unweighted mean of per-class binary AUROCs over classes present."""
    scores, labels = _checked(scores, labels)
    present = np.unique(labels)
    if present.size < 2:
        raise UndefinedMetricError(
            f"one-vs-rest AUROC needs >= 2 classes present, found {present.size}"
        )
    values = [auroc_binary(scores[:, k], (labels == k).astype(np.int64)) for k in present]
    return float(np.mean(values))
