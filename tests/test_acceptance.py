"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v``; the conftest hook prints
one ACCEPTANCE pass/fail line per criterion.  The training-based criteria
take a few minutes each on one core.
"""

import tracemalloc

import numpy as np
import pytest

from s4mil import ssm
from s4mil.autograd import POLE_REAL_CEILING, Tape, check_gradients, ssm_parameters
from s4mil.cli import REGISTRY, run_bench, run_kernel_check
from s4mil.metrics import auroc_binary, auroc_ovr
from s4mil.model import (
    ModelConfig,
    _recurrence_layer_output,
    build_tape,
    count_parameters,
    forward_mil,
    init_parameters,
)
from s4mil.seeding import substream
from s4mil.ssm import ONE_BLOCK_MAX, STATE_BLOCK, conv_taps
from s4mil.train import (
    SyntheticTaskSpec,
    TrainConfig,
    evaluate_model,
    fit,
    generate_synthetic,
    kfold,
    mil_loss,
    multitask_loss,
)


def test_c01_parameter_count_reproduction():
    # Exact integers for the two reference configurations.
    small = ModelConfig(input_dim=1024, hidden_dim=512, state_dim=32, num_classes=2,
                        num_ssm_layers=1)
    large = ModelConfig(input_dim=1024, hidden_dim=512, state_dim=128, num_classes=2,
                        num_ssm_layers=1)
    assert count_parameters(small) == 1_085_954
    assert count_parameters(large) == 1_184_258
    walked = sum(v.size for v in init_parameters(small, seed=0).params.values())
    assert walked == 1_085_954


def test_c02_recurrence_convolution_duality():
    # 100 random stable channels, n_half <= 8, L <= 512, both rules, <= 1e-6.
    passed, worst, checked = run_kernel_check(
        trials=100, max_state=8, max_length=512, tolerance=1e-6, seed=20,
    )
    assert checked == 200  # both discretization rules per channel
    assert passed, f"worst relative error {worst:.3e} > 1e-6"


def _trained_regime_channels(rng, n_half, dt):
    # Poles -1/2 + i pi k (k < n_half) and pole real parts at the -1e-4
    # clamp, set there or clamped from above; zero feedthrough.
    a_re = np.repeat([[-0.5], [POLE_REAL_CEILING], [0.25]], n_half, axis=1)
    h = a_re.shape[0]
    return {
        "ssm0.a_re": a_re,
        "ssm0.a_im": np.tile(np.pi * np.arange(n_half), (h, 1)),
        "ssm0.c_re": rng.standard_normal((h, n_half)) * np.sqrt(0.5),
        "ssm0.c_im": rng.standard_normal((h, n_half)) * np.sqrt(0.5),
        "ssm0.log_dt": np.full(h, np.log(dt)),
        "ssm0.d": np.zeros(h),
    }


def _grad_free_ssm_conv(params, u, rule):
    tape = Tape(dtype=np.float64, grad_enabled=False)
    leaves = [tape.leaf(params[f"ssm0.{k}"]) for k in ("a_re", "a_im", "c_re", "c_im", "d", "log_dt")]
    return tape.ssm_conv(tape.leaf(u), *leaves, rule=rule).value


def _assert_op_matches_recurrence(params, u, rule):
    conv = _grad_free_ssm_conv(params, u, rule)
    rec = _recurrence_layer_output(params, "ssm0", u, rule)
    scale = np.max(np.abs(rec), axis=0)
    assert np.all(scale > 0.1)
    err = np.max(np.abs(conv - rec), axis=0) / scale
    assert np.all(err <= 1e-12), f"per-channel error over the channel's scale {err}"


@pytest.mark.parametrize("length", [1024, 4096])
@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_c02_duality_in_the_trained_regime(rule, length):
    # The layer op against the recurrence at the smallest init timestep
    # (dt 1e-3), on the init poles -1/2 + i pi k, k < N/2 = 16, and on pole
    # real parts at the -1e-4 clamp, set there or clamped from above.  The
    # feedthrough is zero so the comparison sees the convolution alone.
    rng = np.random.default_rng(21)
    params = _trained_regime_channels(rng, 16, 1e-3)
    u = rng.standard_normal((length, 3))
    _assert_op_matches_recurrence(params, u, rule)


@pytest.mark.parametrize("length", [1024 + 1, 1024 + 64, 1024 + 64 + 1, 3 * 512 - 1, 3 * 512,
                                    3 * 512 + 37, 8 * 512 + 1, 20000, 62235])
@pytest.mark.parametrize("dt", [1e-3, 0.1])
@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_c02_duality_across_carried_blocks(rule, dt, length):
    # Bags longer than one block of 1024 tokens are cut into 64-token blocks
    # that carry the SSM states from block to block (a last block of one
    # token at 1024 + 64 + 1); the layer op must still match the
    # recurrence, per channel, in the trained regime.
    assert ONE_BLOCK_MAX == 1024 and STATE_BLOCK == 64 and conv_taps(length) == STATE_BLOCK
    rng = np.random.default_rng(22)
    params = _trained_regime_channels(rng, 16, dt)
    u = rng.standard_normal((length, 3))
    _assert_op_matches_recurrence(params, u, rule)


@pytest.mark.parametrize("length", [1, 513, 2 * 512])
@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_c02_bags_of_at_most_one_block_take_one_full_length_convolution(rule, length):
    # A bag of at most ONE_BLOCK_MAX tokens is one block: the op is
    # kernel_bank over all L taps, one fft_causal_conv and the skip term,
    # byte for byte.
    rng = np.random.default_rng(23)
    params = _trained_regime_channels(rng, 16, 1e-3)
    params["ssm0.d"] = rng.standard_normal(3)
    u = rng.standard_normal((length, 3))
    names = ("a_re", "a_im", "c_re", "c_im", "log_dt")
    a, c, dt, _ = ssm_parameters(*(params[f"ssm0.{k}"] for k in names))
    disc = ssm.discretize(a, dt, rule)
    rows = np.ascontiguousarray(u.T)
    w = 2.0 * c * disc.b_bar
    direct = ssm.fft_causal_conv(ssm.kernel_bank(w, ssm.power_tables(disc.a_bar, length), length), rows)
    direct += params["ssm0.d"][:, None] * rows
    conv = _grad_free_ssm_conv(params, u, rule)
    assert np.ascontiguousarray(conv.T).tobytes() == direct.tobytes()


@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_c03_full_model_duality(rule):
    # Seeded model (H=16, N=8), 10 random bags with L <= 256; both forward
    # paths agree within 1e-5 relative.
    cfg = ModelConfig(input_dim=16, hidden_dim=16, state_dim=8, num_classes=2,
                      discretization=rule)
    model = init_parameters(cfg, seed=30)
    rng = substream(31, "duality-bags")
    for _ in range(10):
        length = int(rng.integers(1, 257))
        features = rng.standard_normal((length, 16)).astype(np.float32)
        conv = forward_mil(model, features, mode="conv").slide_probs
        rec = forward_mil(model, features, mode="recurrence").slide_probs
        err = np.max(np.abs(conv - rec)) / (1.0 + np.max(np.abs(rec)))
        assert err <= 1e-5, f"relative disagreement {err:.3e}"


def test_c04_gradient_fidelity():
    # Every parameter of a small aggregator (L=16, D_in=8, H=4, N=4) against
    # central differences, 64-bit, step 1e-5, within 1e-4 relative.
    cfg = ModelConfig(input_dim=8, hidden_dim=4, state_dim=4, num_classes=2,
                      multitask=True, num_patch_classes=2)
    model = init_parameters(cfg, seed=40)
    rng = substream(41, "gradcheck-bag")
    features = rng.standard_normal((16, 8))
    patch_labels = rng.integers(0, 2, 16)
    params = {k: v.astype(np.float64) for k, v in model.params.items()}

    def build(p):
        return build_tape(cfg, p, features, slide_label=1, patch_labels=patch_labels,
                          lam=5.0, dtype=np.float64).tape

    worst, failures = check_gradients(build, params, step=1e-5, rtol=1e-4)
    assert not failures, "\n".join(failures[:10])


def _needle_split(seed):
    spec = SyntheticTaskSpec(task="needle", num_bags=200, length_range=(128, 512),
                             feature_dim=16)
    bags = generate_synthetic(spec, seed=seed)
    train_idx, val_idx = kfold([b.slide_label for b in bags], k=4, seed=seed)[0]
    return [bags[i] for i in train_idx], [bags[i] for i in val_idx]


@pytest.mark.slow
def test_c05_synthetic_mil_learning():
    # Needle task, 200 bags, L in [128, 512], D=16: held-out AUROC >= 0.95
    # within 100 epochs at lr 2e-4 / patience 10.
    from s4mil.train import numerical_floor_events

    train_bags, val_bags = _needle_split(seed=50)
    cfg = ModelConfig(input_dim=16, hidden_dim=32, state_dim=8, num_classes=2)
    model = init_parameters(cfg, seed=50)
    numerical_floor_events.reset()
    result = fit(model, train_bags, val_bags,
                 TrainConfig(learning_rate=2e-4, weight_decay=1e-4, patience=10,
                             max_epochs=100, seed=50))
    auroc = evaluate_model(result.model, val_bags)["auroc"]
    assert len(result.history) <= 100
    assert auroc >= 0.95, f"held-out AUROC {auroc:.4f} < 0.95"
    assert numerical_floor_events.count == 0  # the loss floor never fired


@pytest.mark.slow
def test_c06_multitask_benefit():
    # lam=5 with patch labels: patch AUROC >= 0.9 and slide AUROC within
    # 0.02 of the lam=0 run, over 3 seeds.
    base_cfg = ModelConfig(input_dim=16, hidden_dim=32, state_dim=8, num_classes=2)
    mt_cfg = ModelConfig(input_dim=16, hidden_dim=32, state_dim=8, num_classes=2,
                         multitask=True, num_patch_classes=2)
    slide_base, slide_mt, patch_mt = [], [], []
    for seed in (60, 61, 62):
        train_bags, val_bags = _needle_split(seed=seed)
        tc = TrainConfig(learning_rate=2e-4, weight_decay=1e-4, patience=10,
                         max_epochs=30, seed=seed)
        base = fit(init_parameters(base_cfg, seed=seed), train_bags, val_bags, tc)
        slide_base.append(evaluate_model(base.model, val_bags)["auroc"])
        mt = fit(init_parameters(mt_cfg, seed=seed), train_bags, val_bags, tc)
        stats = evaluate_model(mt.model, val_bags, lam=5.0)
        slide_mt.append(stats["auroc"])
        token_scores = np.concatenate([p[:, 1] for p in stats["patch_probs"]])
        token_labels = np.concatenate([b.patch_labels for b in val_bags])
        patch_mt.append(auroc_binary(token_scores, token_labels))
    assert np.mean(patch_mt) >= 0.9, f"patch AUROC {np.mean(patch_mt):.4f} < 0.9"
    assert np.mean(slide_mt) >= np.mean(slide_base) - 0.02, (
        f"multitask slide AUROC {np.mean(slide_mt):.4f} fell more than 0.02 below "
        f"the single-task {np.mean(slide_base):.4f}"
    )


@pytest.mark.slow
def test_c07_long_sequence_robustness():
    # L = 62,235 (the corpus maximum) at D_in=1024, N=32: finite outputs and
    # peak additional memory scaling linearly in L (ratio within [1.8, 2.3]).
    cfg = ModelConfig(input_dim=1024, hidden_dim=512, state_dim=32, num_classes=2)
    model = init_parameters(cfg, seed=70)
    rng = substream(71, "long-bags")

    def peak_forward(length):
        features = rng.standard_normal((length, 1024)).astype(np.float32)
        tracemalloc.start()
        tracemalloc.reset_peak()
        probs = forward_mil(model, features).slide_probs
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert np.all(np.isfinite(probs))
        return peak

    half = peak_forward(31_118)
    full = peak_forward(62_235)
    ratio = full / half
    assert 1.8 <= ratio <= 2.3, f"memory ratio {ratio:.3f} outside [1.8, 2.3]"


@pytest.mark.slow
def test_c08_bench_protocol():
    # At L=30000, D=1024 the convolution-mode forward must be >= 5x faster
    # than the recurrence mode.  Absolute milliseconds are hardware-bound and
    # not compared to anything.
    config = {k: default for k, (default, _) in REGISTRY.items()}
    config["bench.repeats"] = 1
    results = {r["mode"]: r for r in run_bench(config, seed=80)}
    ratio = results["recurrence"]["mean_ms"] / results["conv"]["mean_ms"]
    assert ratio >= 5.0, f"convolution only {ratio:.1f}x faster"


def test_c09_metric_oracle():
    # Rank-based AUROC equals O(n^2) pair counting exactly on 200 random
    # predictions; one-vs-rest equals the mean of per-class brute force.
    def brute(scores, labels):
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        total = sum(1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg)
        return total / (pos.size * neg.size)

    rng = substream(90, "metric-oracle")
    scores = np.round(rng.random(200), 2)
    labels = rng.integers(0, 2, 200)
    labels[:2] = [0, 1]
    assert auroc_binary(scores, labels) == brute(scores, labels)

    raw = rng.random((200, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)
    multi_labels = rng.integers(0, 3, 200)
    multi_labels[:3] = [0, 1, 2]
    expected = np.mean([brute(probs[:, k], (multi_labels == k).astype(int)) for k in range(3)])
    assert auroc_ovr(probs, multi_labels) == expected


def test_c10_loss_identities():
    # multitask(lam=0) bit-equals the slide loss on 50 random batches, and
    # perfect predictions give exactly zero.
    rng = substream(100, "loss-identity")
    for _ in range(50):
        m = int(rng.integers(1, 8))
        probs, labels, patch_probs, patch_labels = [], [], [], []
        for _ in range(m):
            raw = rng.random(4) + 1e-6
            probs.append(np.log(raw / raw.sum()))
            labels.append(int(rng.integers(0, 4)))
            length = int(rng.integers(1, 9))
            praw = rng.random((length, 3)) + 1e-6
            patch_probs.append(np.log(praw / praw.sum(axis=1, keepdims=True)))
            patch_labels.append(rng.integers(0, 3, length))
        assert multitask_loss(probs, labels, patch_probs, patch_labels, lam=0.0) \
            == mil_loss(probs, labels)
    with np.errstate(divide="ignore"):  # a probability of 0 is a log-probability of -inf
        perfect = [np.log(np.array([0.0, 1.0])), np.log(np.array([1.0, 0.0]))]
    assert mil_loss(perfect, [1, 0]) == 0.0
