import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from s4mil.errors import ContractError, UndefinedMetricError
from s4mil.metrics import accuracy, auroc, auroc_binary, auroc_ovr


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
    assert accuracy([[0.9, 0.1], [0.2, 0.8]], [0, 1]) == 1.0


def test_accuracy_half_correct():
    assert accuracy([[0.9, 0.1], [0.9, 0.1]], [0, 1]) == 0.5


def test_accuracy_tie_goes_to_lowest_class():
    assert accuracy([[0.5, 0.5]], [0]) == 1.0
    assert accuracy([[0.5, 0.5]], [1]) == 0.0


def test_accuracy_empty_rejected():
    with pytest.raises(ContractError):
        accuracy(np.empty((0, 2)), np.empty(0, dtype=np.int64))


@pytest.mark.parametrize("metric", [accuracy, auroc_ovr])
def test_scores_off_the_simplex_are_rejected(metric):
    with pytest.raises(ContractError, match="simplex"):
        metric([[0.9, 0.9], [0.2, 0.8]], [0, 1])


@pytest.mark.parametrize("scores", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf],
                                    [1.0, 0.0, np.inf]])
@pytest.mark.parametrize("metric", [accuracy, auroc_ovr])
def test_non_finite_scores_are_rejected(metric, scores):
    # A NaN sum passes the simplex tolerance check, and argmax would then
    # score [nan, nan] as a correct class 0.
    fine = np.eye(len(scores))[:2]
    with pytest.raises(ContractError, match="finite"):
        metric(np.vstack([fine, scores]), [0, 1, 0])


@pytest.mark.parametrize("scores, labels", [
    ([0.5, 0.5], [0]),                  # one row, not (N, C)
    ([[1.0], [1.0]], [0, 0]),           # fewer than 2 classes
    ([[0.5, 0.5], [0.5, 0.5]], [0]),    # fewer labels than rows
    ([[0.5, 0.5]], [[0]]),              # labels not a vector
    ([[0.5, 0.5], [0.5, 0.5]], [0, 2]), # a label past the last class
    ([[0.5, 0.5], [0.5, 0.5]], [-1, 0]), # a negative label
])
@pytest.mark.parametrize("metric", [accuracy, auroc_ovr])
def test_malformed_scores_or_labels_are_rejected(metric, scores, labels):
    with pytest.raises(ContractError):
        metric(scores, labels)


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


@pytest.mark.parametrize("labels", [[0, 2, 1], [0, -1, 1], [0.5, 0, 1]])
def test_auroc_rejects_labels_other_than_0_and_1(labels):
    # a label other than 1 would otherwise count as a negative
    with pytest.raises(ContractError, match="0 or 1"):
        auroc_binary([0.1, 0.9, 0.5], labels)


def test_auroc_of_class_probabilities_is_binary_for_two_classes_and_ovr_past_two():
    rng = np.random.default_rng(5)
    labels = np.tile(np.arange(3), 10)
    scores = rng.dirichlet(np.ones(3), 30)
    assert auroc(scores, labels) == auroc_ovr(scores, labels)
    pair = np.stack([1 - scores[:, 1], scores[:, 1]], axis=1)
    assert auroc(pair, labels % 2) == auroc_binary(scores[:, 1], labels % 2)


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
    assert auroc_ovr(np.stack([1 - p1, p1], axis=1), labels) == pytest.approx(auroc_binary(p1, labels))


def test_ovr_perfectly_separated_three_classes():
    labels = np.repeat(np.arange(3), 4)
    scores = np.full((12, 3), 0.05)
    scores[np.arange(12), labels] = 0.9
    assert auroc_ovr(scores, labels) == 1.0


def test_ovr_matches_mean_of_brute_force():
    rng = np.random.default_rng(5)
    raw = rng.random((60, 3))
    scores = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 3, 60)
    for k in range(3):
        labels[k] = k
    expected = np.mean([
        brute_force_auroc(scores[:, k], (labels == k).astype(int)) for k in range(3)
    ])
    assert auroc_ovr(scores, labels) == pytest.approx(expected, abs=0)


def test_ovr_excludes_absent_classes():
    rng = np.random.default_rng(6)
    raw = rng.random((20, 3))
    scores = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 2, 20)  # class 2 never appears
    labels[:2] = [0, 1]
    expected = np.mean([
        brute_force_auroc(scores[:, k], (labels == k).astype(int)) for k in range(2)
    ])
    assert auroc_ovr(scores, labels) == pytest.approx(expected, abs=0)


def test_ovr_single_class_is_an_error():
    with pytest.raises(UndefinedMetricError):
        auroc_ovr(np.tile([0.6, 0.3, 0.1], (5, 1)), np.zeros(5, dtype=np.int64))
