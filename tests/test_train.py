import math

import numpy as np
import pytest

from s4mil import train
from s4mil.errors import ContractError, NumericalError
from s4mil.model import ModelConfig, ParameterVector, init_parameters
from s4mil.train import (
    AdamLookahead,
    SyntheticTaskSpec,
    TrainConfig,
    fit,
    generate_synthetic,
    kfold,
    mil_loss,
    multitask_loss,
    numerical_floor_events,
    read_history,
    write_history,
)


# --------------------------------------------------------------------------
# Losses
# --------------------------------------------------------------------------

def test_mil_loss_perfect_prediction_is_zero():
    assert mil_loss([np.array([0.0, 1.0])], [1]) == 0.0


def test_mil_loss_hand_values():
    assert mil_loss([np.array([0.5, 0.5])], [0]) == pytest.approx(math.log(2))
    loss = mil_loss([np.array([1.0, 0.0]), np.array([0.5, 0.5])], [0, 1])
    assert loss == pytest.approx(math.log(2) / 2)


def test_mil_loss_floor_event_recorded():
    numerical_floor_events.reset()
    loss = mil_loss([np.array([1.0, 0.0])], [1])
    assert numerical_floor_events.count == 1
    assert loss == pytest.approx(-math.log(1e-12))
    numerical_floor_events.reset()


def test_multitask_loss_hand_value():
    loss = multitask_loss(
        [np.array([0.0, 1.0])], [1],
        [np.array([[0.0, 1.0], [0.5, 0.5]])], [np.array([1, 1])],
        lam=5.0,
    )
    assert loss == pytest.approx(2.5 * math.log(2))


def test_multitask_lambda_zero_bit_equals_mil_loss():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        probs, labels, patch_probs, patch_labels = [], [], [], []
        for _ in range(m):
            raw = rng.random(3)
            probs.append(raw / raw.sum())
            labels.append(int(rng.integers(0, 3)))
            length = int(rng.integers(1, 7))
            praw = rng.random((length, 2))
            patch_probs.append(praw / praw.sum(axis=1, keepdims=True))
            patch_labels.append(rng.integers(0, 2, length))
        a = multitask_loss(probs, labels, patch_probs, patch_labels, lam=0.0)
        b = mil_loss(probs, labels)
        assert a == b  # bitwise


def test_losses_nonnegative_and_zero_iff_perfect():
    rng = np.random.default_rng(1)
    for _ in range(20):
        raw = rng.random(4) + 1e-3
        p = raw / raw.sum()
        y = int(rng.integers(0, 4))
        loss = mil_loss([p], [y])
        assert loss >= 0
        assert (loss == 0.0) == (p[y] == 1.0)
    perfect = multitask_loss([np.array([1.0, 0.0])], [0],
                             [np.ones((3, 1))], [np.zeros(3, dtype=int)], lam=5.0)
    assert perfect == 0.0


@pytest.mark.parametrize("label", [-1, 2, 7])
def test_losses_reject_a_slide_label_outside_the_classes(label):
    # -1 must not wrap around to the last class, nor 2 or 7 escape as an IndexError.
    probs = [np.array([0.5, 0.5]), np.array([0.3, 0.7])]
    with pytest.raises(ContractError, match=f"slide label {label} is outside 0..1"):
        mil_loss(probs, [0, label])
    with pytest.raises(ContractError, match=f"slide label {label} is outside 0..1"):
        multitask_loss(probs, [0, label], [np.full((2, 3), 1 / 3)] * 2, [np.zeros(2, int)] * 2,
                       lam=1.0)


@pytest.mark.parametrize("label", [-1, 3])
def test_multitask_loss_rejects_a_patch_label_outside_the_classes(label):
    with pytest.raises(ContractError, match=f"patch label {label} is outside 0..2"):
        multitask_loss([np.array([0.5, 0.5])], [1], [np.full((3, 3), 1 / 3)],
                       [np.array([0, label, 1])], lam=1.0)


# --------------------------------------------------------------------------
# Optimizer
# --------------------------------------------------------------------------

def test_adam_first_step_hand_value():
    # f(w) = w^2 at w=1: g=2, bias-corrected ratio == 1, so w <- 1 - lr.
    params = {"w": np.array([1.0])}
    cfg = TrainConfig(learning_rate=0.1, weight_decay=0.0)
    opt = AdamLookahead(params, cfg)
    opt.step(params, {"w": np.array([2.0])})
    assert params["w"][0] == pytest.approx(0.9, abs=1e-8)


def test_lookahead_alpha_one_sync_equals_fast():
    params = {"w": np.array([1.0, -2.0])}
    cfg = TrainConfig(learning_rate=0.05, weight_decay=0.0, lookahead_k=3, lookahead_alpha=1.0)
    opt = AdamLookahead(params, cfg)
    for _ in range(3):
        opt.step(params, {"w": np.array([0.3, -0.7])})
    assert np.array_equal(opt.slow["w"], params["w"])


def test_zero_gradients_are_a_fixed_point():
    start = np.array([0.5, -1.5, 3.0], dtype=np.float32)
    params = {"w": start.copy()}
    cfg = TrainConfig(weight_decay=0.0)
    opt = AdamLookahead(params, cfg)
    for _ in range(12):
        opt.step(params, {"w": np.zeros(3)})
    assert np.array_equal(params["w"], start)


def test_weight_decay_shrinks_without_gradient():
    params = {"w": np.array([1.0])}
    cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5, lookahead_k=1000)
    opt = AdamLookahead(params, cfg)
    opt.step(params, {"w": np.array([0.0])})
    assert params["w"][0] == pytest.approx(1.0 - 0.1 * 0.5)


def test_non_finite_gradient_names_parameter():
    params = {"good": np.zeros(2), "broken": np.zeros(2)}
    opt = AdamLookahead(params, TrainConfig())
    with pytest.raises(NumericalError, match="broken"):
        opt.step(params, {"good": np.zeros(2), "broken": np.array([1.0, np.nan])})


def reference_step(cfg, state, params, grads):
    # The optimizer's arithmetic one array at a time, as it ran before the
    # state became one vector; state holds per-name m, v, slow and a count.
    state["count"] += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    bias1 = 1.0 - b1 ** state["count"]
    bias2 = 1.0 - b2 ** state["count"]
    for name, value in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        m, v = state["m"][name], state["v"][name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + cfg.adam_eps)
        if cfg.weight_decay:
            update = update + cfg.weight_decay * value.astype(np.float64)
        value -= (cfg.learning_rate * update).astype(value.dtype)
    if state["count"] % cfg.lookahead_k == 0:
        for name, value in params.items():
            slow = state["slow"][name].astype(np.float64)
            slow += cfg.lookahead_alpha * (value.astype(np.float64) - slow)
            state["slow"][name] = slow.astype(value.dtype)
            value[...] = state["slow"][name]


@pytest.mark.parametrize("step_slice", [None, 7], ids=["one-slice", "slices-of-7"])
def test_flat_step_is_bytewise_the_per_array_reference(monkeypatch, step_slice):
    # 64 steps with 12 lookahead syncs and weight decay on, fed float32
    # gradients in both memory orders, as the tape hands them over, and every
    # third step float64 ones as fit passes them; slices of 7 values cross
    # every array boundary and leave a short last slice.
    if step_slice is not None:
        monkeypatch.setattr(train, "STEP_SLICE", step_slice)
    cfg = TrainConfig(learning_rate=3e-2, weight_decay=1e-2, lookahead_k=5, lookahead_alpha=0.5)
    model = init_parameters(ModelConfig(input_dim=6, hidden_dim=4, state_dim=4, num_classes=3,
                                        multitask=True, num_patch_classes=2), seed=11)
    expected = {k: v.copy() for k, v in model.params.items()}
    state = {"count": 0, "slow": {k: v.copy() for k, v in expected.items()},
             "m": {k: np.zeros(v.shape) for k, v in expected.items()},
             "v": {k: np.zeros(v.shape) for k, v in expected.items()}}
    opt = AdamLookahead(model.params, cfg)
    rng = np.random.default_rng(12)
    for step in range(64):
        grads = {}
        for i, (name, value) in enumerate(expected.items()):
            g = rng.standard_normal(value.shape).astype(np.float32)
            grads[name] = np.asfortranarray(g) if (i + step) % 2 else g
        assert any(g.ndim == 2 and not g.flags.c_contiguous for g in grads.values())
        if step % 3 == 0:  # fit's form: the float64 mean in the parameters' own layout
            grads = ParameterVector.pack(grads, np.float64)
        opt.step(model.params, grads)
        reference_step(cfg, state, expected, grads)
    assert state["count"] // cfg.lookahead_k == 12

    def flat(arrays):
        return np.concatenate([arrays[k].ravel() for k in expected]).tobytes()

    if step_slice:
        assert model.params.vector.size % step_slice  # the last slice is a short one
    assert model.params.vector.tobytes() == flat(expected)
    assert opt.m.tobytes() == flat(state["m"])
    assert opt.v.tobytes() == flat(state["v"])
    assert opt.slow.vector.tobytes() == flat(state["slow"])
    assert opt.slow.vector.dtype == np.float32


@pytest.mark.parametrize("grads,message", [
    ({"b": np.zeros(2)}, "no value for parameter 'w'"),
    ({}, "no value for parameter 'w'"),
    ({"w": np.zeros(3), "b": np.zeros(2), "x": np.zeros(1)}, "'x' is not a parameter"),
    ({"w": np.ones(1), "b": np.zeros(2)}, r"parameter 'w' has shape \(3,\), got \(1,\)"),
], ids=["missing", "empty", "unknown", "broadcastable-shape"])
def test_a_gradient_that_does_not_match_the_parameters_is_rejected(grads, message):
    params = {"w": np.array([1.0, 2.0, 3.0], dtype=np.float32), "b": np.zeros(2, dtype=np.float32)}
    opt = AdamLookahead(params, TrainConfig())
    with pytest.raises(ContractError, match=message):
        opt.step(params, grads)
    assert params["w"].tolist() == [1.0, 2.0, 3.0] and opt.step_count == 0


# --------------------------------------------------------------------------
# fit / early stopping
# --------------------------------------------------------------------------

def tiny_model(**kw):
    cfg = ModelConfig(input_dim=4, hidden_dim=4, state_dim=4, num_classes=2, **kw)
    return init_parameters(cfg, seed=0)


def tiny_bags(n=6, dim=4, seed=0):
    return generate_synthetic(
        SyntheticTaskSpec(num_bags=n, length_range=(4, 8), feature_dim=dim, signal_rate=0.5),
        seed=seed,
    )


def test_fit_constant_validation_stops_after_patience_plus_one():
    # learning_rate tiny enough that nothing moves => validation loss constant.
    model = tiny_model()
    bags = tiny_bags()
    cfg = TrainConfig(learning_rate=1e-30, weight_decay=0.0, patience=3, max_epochs=50)
    result = fit(model, bags[:4], bags[4:], cfg)
    assert len(result.history) == cfg.patience + 1
    assert result.best_epoch == 1


def test_fit_runs_to_max_epochs_without_stall():
    model = tiny_model()
    bags = tiny_bags(n=8)
    cfg = TrainConfig(learning_rate=5e-3, weight_decay=0.0, patience=50, max_epochs=4)
    result = fit(model, bags[:6], bags[6:], cfg)
    assert len(result.history) == 4


@pytest.mark.parametrize("bag_index", [2, 6])
def test_an_error_in_fit_names_the_epoch_and_the_bag(bag_index):
    # A NaN feature in a training bag (2) or a validation bag (6) is rejected
    # before the projection; the error keeps its type and says where.
    bags = tiny_bags(n=8)
    bags[bag_index].features[3, 1] = np.nan
    cfg = TrainConfig(learning_rate=1e-3, max_epochs=2)
    with pytest.raises(NumericalError, match=f"^epoch 1, bag {bags[bag_index].id}: "
                                             r"non-finite feature at token 3, feature 1: nan$"):
        fit(tiny_model(), bags[:6], bags[6:], cfg)


def test_an_error_in_evaluation_names_the_bag():
    from s4mil.train import evaluate_model

    bags = tiny_bags()
    bags[4].features[0, 0] = np.inf
    with pytest.raises(NumericalError, match=f"^bag {bags[4].id}: "):
        evaluate_model(tiny_model(), bags)


def test_fit_restores_best_validation_parameters():
    model = tiny_model()
    bags = tiny_bags(n=8, seed=3)
    cfg = TrainConfig(learning_rate=3e-3, weight_decay=0.0, patience=2, max_epochs=12)
    result = fit(model, bags[:6], bags[6:], cfg)
    losses = [r.val_loss for r in result.history]
    assert losses[result.best_epoch - 1] == min(losses)
    from s4mil.train import evaluate_model

    assert evaluate_model(result.model, bags[6:])["loss"] == pytest.approx(min(losses), rel=1e-6)


def test_single_bag_epoch_strictly_decreases_loss():
    model = tiny_model()
    bag = tiny_bags(n=2, seed=5)[1]  # a positive bag
    cfg = TrainConfig(learning_rate=1e-5, weight_decay=0.0, patience=50, max_epochs=2)
    result = fit(model, [bag], [bag], cfg)
    assert result.history[1].train_loss < result.history[0].train_loss


def test_fit_seeded_runs_identical_histories():
    bags = tiny_bags(n=8, seed=9)
    cfg = TrainConfig(learning_rate=1e-3, weight_decay=1e-4, patience=5, max_epochs=5, seed=7)
    r1 = fit(tiny_model(), bags[:6], bags[6:], cfg)
    r2 = fit(tiny_model(), bags[:6], bags[6:], cfg)
    assert r1.history == r2.history
    for k in r1.model.params:
        assert np.array_equal(r1.model.params[k], r2.model.params[k])


def test_fit_with_grad_accum_steps_on_the_mean_of_each_group_of_bags(monkeypatch):
    # 3 training bags, grad_accum=2: the epoch's first step gets the float64
    # mean of the first two shuffled bags' tape gradients, taken at the
    # initial parameters, and its second the last bag's gradients alone,
    # taken at the parameters the first step left.
    from s4mil.model import build_tape

    model = tiny_model()
    bags = tiny_bags(n=4, seed=2)
    train_bags = bags[:3]
    initial = model.copy_params()
    calls = []
    step = AdamLookahead.step

    def spy(self, params, grads):
        calls.append(({k: v.copy() for k, v in params.items()},
                      {k: v.copy() for k, v in grads.items()}))
        step(self, params, grads)

    monkeypatch.setattr(AdamLookahead, "step", spy)
    fit(model, train_bags, bags[3:], TrainConfig(learning_rate=1e-2, max_epochs=1, grad_accum=2))
    assert len(calls) == 2
    (params1, grads1), (params2, grads2) = calls
    for k in initial:
        assert params1[k].tobytes() == initial[k].tobytes(), k
        assert grads1[k].dtype == grads2[k].dtype == np.float64, k

    def tape_grads(params, bag):
        bundle = build_tape(model.config, params, bag.features, slide_label=bag.slide_label)
        return bundle.tape.backward()

    def same(got, expected):
        return all(got[k].tobytes() == expected[k].tobytes() for k in got)

    def pair_mean(a, b):  # fit's accumulation: float64 from the first bag on
        return {k: (np.asarray(a[k], dtype=np.float64) + b[k]) / 2 for k in a}

    at_start = [tape_grads(params1, bag) for bag in train_bags]
    firsts = [(i, j) for i in range(3) for j in range(i + 1, 3)
              if same(grads1, pair_mean(at_start[i], at_start[j]))]
    assert len(firsts) == 1
    (last,) = set(range(3)) - set(firsts[0])
    alone = tape_grads(params2, train_bags[last])
    assert same(grads2, {k: np.asarray(v, dtype=np.float64) / 1 for k, v in alone.items()})


def test_fit_rejects_empty_splits():
    model = tiny_model()
    bags = tiny_bags()
    with pytest.raises(ContractError):
        fit(model, [], bags, TrainConfig())
    with pytest.raises(ContractError):
        fit(model, bags, [], TrainConfig())


# --------------------------------------------------------------------------
# kfold
# --------------------------------------------------------------------------

def test_kfold_even_split_sizes():
    labels = [0] * 10 + [1] * 10
    splits = kfold(labels, k=10, seed=0)
    assert len(splits) == 10
    for train, val in splits:
        assert val.size == 2
        assert train.size == 18


def test_kfold_is_a_partition():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 2, 37)
    labels[:10] = 0
    labels[10:20] = 1
    splits = kfold(labels, k=5, seed=1)
    union = np.concatenate([val for _, val in splits])
    assert sorted(union.tolist()) == list(range(37))
    for train, val in splits:
        assert not set(train) & set(val)


def test_kfold_stratified_within_one_bag():
    labels = np.array([0] * 30 + [1] * 20)
    splits = kfold(labels, k=10, seed=2)
    for _, val in splits:
        zeros = int(np.sum(labels[val] == 0))
        ones = int(np.sum(labels[val] == 1))
        assert abs(zeros - 3) <= 1 and abs(ones - 2) <= 1


def test_kfold_small_class_falls_back_with_warning():
    labels = [0] * 18 + [1] * 2
    with pytest.warns(UserWarning, match="unstratified"):
        splits = kfold(labels, k=5, seed=3)
    union = np.concatenate([val for _, val in splits])
    assert sorted(union.tolist()) == list(range(20))


def test_kfold_k_larger_than_dataset_rejected():
    with pytest.raises(ContractError):
        kfold([0, 1, 0, 1], k=10)


# --------------------------------------------------------------------------
# Synthetic bags
# --------------------------------------------------------------------------

def test_synthetic_saturation_marks_every_token():
    spec = SyntheticTaskSpec(num_bags=4, length_range=(5, 9), feature_dim=3, signal_rate=1.0)
    for bag in generate_synthetic(spec, seed=0):
        if bag.slide_label == 1:
            assert np.all(bag.patch_labels == 1)
        else:
            assert np.all(bag.patch_labels == 0)


def test_synthetic_deterministic_given_seed():
    spec = SyntheticTaskSpec(num_bags=6, length_range=(3, 20), feature_dim=4)
    a = generate_synthetic(spec, seed=11)
    b = generate_synthetic(spec, seed=11)
    for x, y in zip(a, b):
        assert x.id == y.id and x.slide_label == y.slide_label
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.patch_labels, y.patch_labels)


def test_synthetic_noiseless_bags_linearly_separable_by_max_pool():
    spec = SyntheticTaskSpec(num_bags=20, length_range=(8, 30), feature_dim=5,
                             signal_rate=0.2, noise_sigma=0.0)
    bags = generate_synthetic(spec, seed=2)
    pos_min = min(bag.features.max(axis=0)[0] for bag in bags if bag.slide_label == 1)
    neg_max = max(bag.features.max(axis=0)[0] for bag in bags if bag.slide_label == 0)
    assert pos_min > neg_max  # a single threshold separates the classes


def test_synthetic_majority_task_labels_match_majority():
    spec = SyntheticTaskSpec(task="majority", num_bags=10, length_range=(9, 21),
                             feature_dim=2, signal_rate=0.7)
    for bag in generate_synthetic(spec, seed=3):
        frac = bag.patch_labels.mean()
        assert (frac > 0.5) == (bag.slide_label == 1)


def test_synthetic_spec_validation():
    with pytest.raises(ContractError, match="signal_rate"):
        SyntheticTaskSpec(signal_rate=0.0)
    with pytest.raises(ContractError, match="majority"):
        SyntheticTaskSpec(task="majority", signal_rate=0.3)
    with pytest.raises(ContractError, match="length_range"):
        SyntheticTaskSpec(length_range=(5, 2))


# --------------------------------------------------------------------------
# History files
# --------------------------------------------------------------------------

def test_history_round_trip(tmp_path):
    from s4mil.train import EpochRecord

    history = [EpochRecord(1, 0.5, 0.6, 0.75, 0.8125), EpochRecord(2, 0.4, 0.55, 0.8, float("nan"))]
    path = tmp_path / "history.csv"
    write_history(path, history)
    again = read_history(path)
    assert again[0] == history[0]
    assert again[1].epoch == 2 and math.isnan(again[1].val_auroc)


def test_patch_head_gradient_zero_when_lambda_zero():
    from s4mil.model import build_tape

    cfg = ModelConfig(input_dim=4, hidden_dim=4, state_dim=4, num_classes=2,
                      multitask=True, num_patch_classes=2)
    model = init_parameters(cfg, seed=1)
    rng = np.random.default_rng(0)
    features = rng.standard_normal((6, 4)).astype(np.float32)
    bundle = build_tape(cfg, model.params, features, slide_label=1,
                        patch_labels=np.zeros(6, dtype=np.int64), lam=0.0)
    grads = bundle.tape.backward()
    assert np.all(grads["patch_head.weight"] == 0.0)
    assert np.all(grads["patch_head.bias"] == 0.0)
    # and nonzero when the patch term is active
    bundle = build_tape(cfg, model.params, features, slide_label=1,
                        patch_labels=np.zeros(6, dtype=np.int64), lam=5.0)
    grads = bundle.tape.backward()
    assert np.any(grads["patch_head.weight"] != 0.0)


@pytest.mark.parametrize("key,value", [
    ("adam_beta1", 1.0), ("adam_beta1", -0.1),
    ("adam_beta2", 1.0), ("adam_beta2", 1.5),
    ("adam_eps", 0.0), ("adam_eps", -1e-8),
    ("weight_decay", -1e-4),
])
def test_train_config_rejects_an_optimizer_setting_out_of_range(key, value):
    # adam_beta1 = 1 used to turn every parameter into NaN on the first step.
    with pytest.raises(ContractError, match=f"^{key} must be "):
        TrainConfig(**{key: value})


def test_train_config_validation():
    with pytest.raises(ContractError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ContractError, match="patience"):
        TrainConfig(patience=0)
    with pytest.raises(ContractError, match="lambda"):
        TrainConfig(lam=-1.0)
