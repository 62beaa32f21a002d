"""Accuracy and AUROC (binary and one-versus-rest).

The binary AUROC is the Mann-Whitney statistic, computed via midranks:
(#concordant pairs + 0.5 * #tied pairs) / (#pos * #neg).  Ranks are halves
of integers, so the rank-sum route equals brute-force pair counting exactly
in float64 for realistic sample counts.  One-vs-rest is the unweighted mean
of per-class binary AUROCs over classes present in the labels.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, UndefinedMetricError


@dataclass(frozen=True)
class ScoredPrediction:
    scores: np.ndarray  # per-class probabilities on the simplex
    true_label: int

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 1 or scores.size < 2:
            raise ContractError(f"scores must be a vector of >= 2 classes, got shape {scores.shape}")
        if not np.all(np.isfinite(scores)):
            raise ContractError(f"scores must be finite, got {scores}")
        if abs(scores.sum() - 1.0) > 1e-6 or np.any(scores < -1e-12):
            raise ContractError("scores must lie on the probability simplex (within 1e-6)")
        if not 0 <= self.true_label < scores.size:
            raise ContractError(f"label {self.true_label} out of range for {scores.size} classes")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)


def _stack(predictions) -> tuple[np.ndarray, np.ndarray]:
    preds = list(predictions)
    if not preds:
        raise ContractError("no predictions given")
    scores = np.stack([p.scores for p in preds])
    labels = np.array([p.true_label for p in preds], dtype=np.int64)
    return scores, labels


def accuracy(predictions) -> float:
    """Fraction with argmax(scores) == label; ties go to the lowest class."""
    scores, labels = _stack(predictions)
    return float(np.mean(np.argmax(scores, axis=1) == labels))


def auroc_binary(scores, labels) -> float:
    """Probability a positive outranks a negative, ties counting half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ContractError(f"scores/labels must be matching vectors: {scores.shape} vs {labels.shape}")
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


def auroc_ovr(predictions, num_classes: int) -> float:
    """Unweighted mean of per-class binary AUROCs over classes present."""
    scores, labels = _stack(predictions)
    if scores.shape[1] != num_classes:
        raise ContractError(f"predictions carry {scores.shape[1]} classes, expected {num_classes}")
    present = [k for k in range(num_classes) if np.any(labels == k)]
    if len(present) < 2:
        raise UndefinedMetricError(
            f"one-vs-rest AUROC needs >= 2 classes present, found {len(present)}"
        )
    values = [auroc_binary(scores[:, k], (labels == k).astype(np.int64)) for k in present]
    return float(np.mean(values))
