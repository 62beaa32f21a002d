import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from s4mil.errors import ContractError, UndefinedMetricError
from s4mil.metrics import ScoredPrediction, accuracy, auroc_binary, auroc_ovr


def pred(scores, label):
    return ScoredPrediction(scores=np.asarray(scores, dtype=np.float64), true_label=label)


def brute_force_auroc(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (pos.size * neg.size)


# --------------------------------------------------------------------------
# accuracy
# --------------------------------------------------------------------------

def test_accuracy_all_correct():
    preds = [pred([0.9, 0.1], 0), pred([0.2, 0.8], 1)]
    assert accuracy(preds) == 1.0


def test_accuracy_half_correct():
    preds = [pred([0.9, 0.1], 0), pred([0.9, 0.1], 1)]
    assert accuracy(preds) == 0.5


def test_accuracy_tie_goes_to_lowest_class():
    assert accuracy([pred([0.5, 0.5], 0)]) == 1.0
    assert accuracy([pred([0.5, 0.5], 1)]) == 0.0


def test_accuracy_empty_rejected():
    with pytest.raises(ContractError):
        accuracy([])


def test_scored_prediction_validates_simplex():
    with pytest.raises(ContractError, match="simplex"):
        ScoredPrediction(scores=np.array([0.9, 0.9]), true_label=0)


# --------------------------------------------------------------------------
# binary AUROC
# --------------------------------------------------------------------------

def test_auroc_perfect_ranking():
    assert auroc_binary([0.9, 0.8, 0.3], [1, 1, 0]) == 1.0


def test_auroc_inverted_ranking():
    assert auroc_binary([0.3, 0.9], [1, 0]) == 0.0


def test_auroc_all_ties():
    assert auroc_binary([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_auroc_single_class_is_an_error():
    with pytest.raises(UndefinedMetricError):
        auroc_binary([0.1, 0.9], [1, 1])


def test_auroc_rejects_nan_scores():
    with pytest.raises(ContractError, match="NaN"):
        auroc_binary([np.nan, 0.2, np.nan, 0.1], [1, 0, 0, 1])


def test_auroc_matches_brute_force_exactly():
    rng = np.random.default_rng(42)
    scores = np.round(rng.random(200), 2)  # coarse grid forces plenty of ties
    labels = rng.integers(0, 2, 200)
    if labels.sum() in (0, 200):
        labels[0] = 1 - labels[0]
    assert auroc_binary(scores, labels) == brute_force_auroc(scores, labels)


def test_auroc_flip_identity_for_tie_free_scores():
    rng = np.random.default_rng(1)
    scores = rng.permutation(np.linspace(0.01, 0.99, 60))
    labels = rng.integers(0, 2, 60)
    labels[:2] = [0, 1]
    assert auroc_binary(scores, labels) + auroc_binary(scores, 1 - labels) == pytest.approx(1.0)


@given(st.integers(1, 6))
def test_auroc_invariant_under_monotone_transforms(shift):
    rng = np.random.default_rng(shift)
    scores = rng.random(40)
    labels = rng.integers(0, 2, 40)
    labels[:2] = [0, 1]
    base = auroc_binary(scores, labels)
    assert auroc_binary(np.exp(scores), labels) == pytest.approx(base)
    assert auroc_binary(3.0 * scores + shift, labels) == pytest.approx(base)


def test_auroc_permutation_invariant():
    rng = np.random.default_rng(3)
    scores = rng.random(50)
    labels = rng.integers(0, 2, 50)
    labels[:2] = [0, 1]
    perm = rng.permutation(50)
    assert auroc_binary(scores, labels) == auroc_binary(scores[perm], labels[perm])


# --------------------------------------------------------------------------
# one-vs-rest
# --------------------------------------------------------------------------

def test_ovr_reduces_to_binary():
    rng = np.random.default_rng(4)
    p1 = rng.random(30)
    labels = rng.integers(0, 2, 30)
    labels[:2] = [0, 1]
    preds = [pred([1 - p, p], y) for p, y in zip(p1, labels)]
    assert auroc_ovr(preds, 2) == pytest.approx(auroc_binary(p1, labels))


def test_ovr_perfectly_separated_three_classes():
    preds = []
    for k in range(3):
        for _ in range(4):
            scores = np.full(3, 0.05)
            scores[k] = 0.9
            preds.append(pred(scores, k))
    assert auroc_ovr(preds, 3) == 1.0


def test_ovr_matches_mean_of_brute_force():
    rng = np.random.default_rng(5)
    raw = rng.random((60, 3))
    scores = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 3, 60)
    for k in range(3):
        labels[k] = k
    preds = [pred(s, y) for s, y in zip(scores, labels)]
    expected = np.mean([
        brute_force_auroc(scores[:, k], (labels == k).astype(int)) for k in range(3)
    ])
    assert auroc_ovr(preds, 3) == pytest.approx(expected, abs=0)


def test_ovr_excludes_absent_classes():
    rng = np.random.default_rng(6)
    raw = rng.random((20, 3))
    scores = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 2, 20)  # class 2 never appears
    labels[:2] = [0, 1]
    preds = [pred(s, y) for s, y in zip(scores, labels)]
    expected = np.mean([
        brute_force_auroc(scores[:, k], (labels == k).astype(int)) for k in range(2)
    ])
    assert auroc_ovr(preds, 3) == pytest.approx(expected, abs=0)


def test_ovr_single_class_is_an_error():
    preds = [pred([0.6, 0.3, 0.1], 0) for _ in range(5)]
    with pytest.raises(UndefinedMetricError):
        auroc_ovr(preds, 3)
