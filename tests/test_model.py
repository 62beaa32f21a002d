import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from s4mil import ssm
from s4mil.autograd import Tape
from s4mil.checkpoint import load_checkpoint, save_checkpoint
from s4mil.errors import ContractError, EmptyBagError, NumericalError, ParseError
from s4mil.model import (
    MilModel,
    ModelConfig,
    ParameterVector,
    build_tape,
    count_parameters,
    forward_mil,
    forward_pooling_baseline,
    init_parameters,
    init_pooling_baseline,
    parameter_shapes,
    pool_features,
)


def small_config(**kw):
    base = dict(input_dim=8, hidden_dim=4, state_dim=4, num_classes=3)
    base.update(kw)
    return ModelConfig(**base)


# --------------------------------------------------------------------------
# Parameter counting
# --------------------------------------------------------------------------

def test_count_reference_config_n32():
    cfg = ModelConfig(input_dim=1024, hidden_dim=512, state_dim=32, num_classes=2)
    assert count_parameters(cfg) == 1_085_954


def test_count_reference_config_n128():
    cfg = ModelConfig(input_dim=1024, hidden_dim=512, state_dim=128, num_classes=2)
    assert count_parameters(cfg) == 1_184_258


def test_count_hand_case():
    cfg = ModelConfig(input_dim=4, hidden_dim=2, state_dim=2, num_classes=2)
    assert count_parameters(cfg) == 44  # 10 + 4 + 12 + 12 + 6


def test_count_state_dim_identity():
    big = ModelConfig(input_dim=1024, hidden_dim=512, state_dim=128, num_classes=2)
    small = ModelConfig(input_dim=1024, hidden_dim=512, state_dim=32, num_classes=2)
    assert count_parameters(big) - count_parameters(small) == 2 * 512 * 96 == 98_304


@given(
    st.integers(1, 6), st.integers(1, 5), st.integers(1, 4),
    st.integers(2, 4), st.integers(1, 3), st.booleans(),
)
def test_count_equals_exhaustive_walk(d, h, n_half, classes, layers, multitask):
    cfg = ModelConfig(input_dim=d, hidden_dim=h, state_dim=2 * n_half,
                      num_classes=classes, num_ssm_layers=layers, multitask=multitask)
    model = init_parameters(cfg, seed=0)
    walked = sum(v.size for v in model.params.values())
    assert count_parameters(cfg) == walked


def test_multitask_head_adds_exactly_hp_plus_p():
    base = small_config()
    multi = small_config(multitask=True, num_patch_classes=2)
    h = base.hidden_dim
    assert count_parameters(multi) - count_parameters(base) == h * 2 + 2


def test_config_validation():
    with pytest.raises(ContractError, match="even"):
        ModelConfig(state_dim=3)
    with pytest.raises(ContractError, match="discretization"):
        ModelConfig(discretization="euler")
    with pytest.raises(ContractError, match="hidden_dim"):
        ModelConfig(hidden_dim=0)


# --------------------------------------------------------------------------
# Initialization
# --------------------------------------------------------------------------

def test_init_pole_layout():
    model = init_parameters(small_config(state_dim=8), seed=3)
    a_re = model.params["ssm0.a_re"]
    a_im = model.params["ssm0.a_im"]
    assert np.all(a_re == -0.5)  # every channel stable by construction
    np.testing.assert_allclose(a_im[0], np.pi * np.arange(4), rtol=1e-6)
    assert np.all(model.params["ssm0.d"] == 1.0)
    log_dt = model.params["ssm0.log_dt"]
    assert np.all(log_dt >= np.log(0.001)) and np.all(log_dt <= np.log(0.1))


def test_init_same_seed_bitwise_identical():
    a = init_parameters(small_config(multitask=True), seed=11)
    b = init_parameters(small_config(multitask=True), seed=11)
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])
    c = init_parameters(small_config(multitask=True), seed=12)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


# --------------------------------------------------------------------------
# Forward pass
# --------------------------------------------------------------------------

def test_forward_probabilities_on_simplex():
    rng = np.random.default_rng(0)
    model = init_parameters(small_config(), seed=1)
    for _ in range(5):
        length = int(rng.integers(1, 40))
        out = forward_mil(model, rng.standard_normal((length, 8)).astype(np.float32))
        assert abs(out.slide_probs.sum() - 1.0) <= 1e-6
        assert np.all(out.slide_probs >= 0) and np.all(out.slide_probs <= 1)


def test_forward_single_token_pool_is_identity():
    rng = np.random.default_rng(1)
    model = init_parameters(small_config(), seed=2)
    features = rng.standard_normal((1, 8)).astype(np.float32)
    bundle = build_tape(model.config, model.params, features, grad_enabled=False)
    pooled = next(n for n in bundle.tape.nodes if n.op == "max-pool-over-sequence")
    token = pooled.parents[0].value
    assert token.shape == (1, model.config.hidden_dim)
    assert np.array_equal(pooled.value, token)


@pytest.mark.parametrize("multitask", [False, True])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gradient_free_tape_matches_gradient_tape_bytewise(dtype, layers, multitask):
    # A gradient-free tape writes its elementwise ops into the arrays they
    # consume; its pool input and logits are the gradient tape's, byte for
    # byte, on a bag of one block (the full-length transform) and on
    # a longer one (states carried across blocks).  Without a patch head the
    # gradient tape's pool input holds only the tokens the max-pool picks,
    # so it is compared with those rows of the gradient-free plane.
    cfg = small_config(num_ssm_layers=layers, multitask=multitask)
    model = init_parameters(cfg, seed=6)
    rng = np.random.default_rng(7)
    for length in (ssm.ONE_BLOCK_MAX, ssm.ONE_BLOCK_MAX + 37):
        features = rng.standard_normal((length, 8)).astype(np.float32)
        outputs = []
        for grad_enabled in (True, False):
            bundle = build_tape(cfg, model.params, features, dtype=dtype, grad_enabled=grad_enabled)
            pool = next(n for n in bundle.tape.nodes if n.op == "max-pool-over-sequence")
            logits = [bundle.slide_logits] + ([bundle.patch_logits] if multitask else [])
            outputs.append([pool.parents[0].value] + [n.value for n in logits])
        kept, reused = outputs
        if not multitask:
            picked = np.unique(np.argmax(reused[0], axis=0))
            assert kept[0].shape == (len(picked), cfg.hidden_dim)
            reused[0] = reused[0][picked]
        for k, r in zip(kept, reused):
            assert k.dtype == r.dtype == dtype
            assert k.tobytes() == r.tobytes(), length


SSM_NAMES = ("a_re", "a_im", "c_re", "c_im", "d", "log_dt")


def dense_gradient_tape(cfg, params, features, slide_label, dtype):
    """The model's gradient tape with every layer's mixing and GLU over
    every token, recorded op by op; returns the tape and its pool and
    slide-logit nodes."""
    tape = Tape(dtype=dtype)
    leaves = {name: tape.leaf(value, name) for name, value in params.items()}
    x = tape.matvec(tape.leaf(features), leaves["projection.weight"], leaves["projection.bias"])
    x = tape.layernorm(x, leaves["norm.scale"], leaves["norm.shift"])
    for i in range(cfg.num_ssm_layers):
        y = tape.ssm_conv(x, *(leaves[f"ssm{i}.{k}"] for k in SSM_NAMES), rule=cfg.discretization)
        value = tape.matvec(y, leaves[f"mix{i}.value_weight"], leaves[f"mix{i}.value_bias"])
        gate = tape.matvec(y, leaves[f"mix{i}.gate_weight"], leaves[f"mix{i}.gate_bias"])
        x = tape.mul(value, tape.sigmoid(gate))
    pooled = tape.max_pool_sequence(x)
    logits = tape.matvec(pooled, leaves["classifier.weight"], leaves["classifier.bias"])
    tape.softmax_log_loss(logits, [slide_label])
    return tape, pooled, logits


def assert_gathered_tape_is_the_dense_tape(cfg, params, features, dtype):
    """build_tape's gradient tape against the dense one: loss, slide logits,
    pooled row and every parameter gradient byte for byte.  The rows node
    holds the last ssm-conv output of a gradient-free tape at the tokens its
    max-pool picks, and its input gave that plane up.  Returns the tokens."""
    bundle = build_tape(cfg, params, features, slide_label=1, dtype=dtype)
    dense, dense_pooled, dense_logits = dense_gradient_tape(cfg, params, features, 1, dtype)
    (rows,) = [n for n in bundle.tape.nodes if n.op == "rows"]
    free = build_tape(cfg, params, features, dtype=dtype, grad_enabled=False).tape.nodes
    conv = [n for n in free if n.op == "ssm-conv"][-1].value
    glu = next(n for n in free if n.op == "max-pool-over-sequence").parents[0].value
    picked = np.unique(np.argmax(glu, axis=0))
    assert len(picked) <= cfg.hidden_dim and conv.shape[0] == features.shape[0]
    assert rows.value.tobytes() == conv[picked].tobytes()
    assert rows.parents[0].op == "ssm-conv" and rows.parents[0].value is None
    pooled = next(n for n in bundle.tape.nodes if n.op == "max-pool-over-sequence")
    assert bundle.tape.nodes[-1].value.tobytes() == dense.nodes[-1].value.tobytes()
    assert bundle.slide_logits.value.tobytes() == dense_logits.value.tobytes()
    assert pooled.value.tobytes() == dense_pooled.value.tobytes()
    grads, dense_grads = bundle.tape.backward(), dense.backward()
    assert grads.keys() == dense_grads.keys() == set(params)
    for k in grads:
        assert grads[k].dtype == dtype
        assert grads[k].tobytes() == dense_grads[k].tobytes(), k
    return picked


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_gathered_gradient_tape_matches_a_dense_tape_bytewise(dtype, layers):
    # Without a patch head the last layer's mixing and GLU are recorded on
    # the pooled tokens only, on a bag of one block and on a longer one.
    cfg = small_config(num_ssm_layers=layers)
    model = init_parameters(cfg, seed=6)
    rng = np.random.default_rng(8)
    for length in (ssm.ONE_BLOCK_MAX, ssm.ONE_BLOCK_MAX + 37):
        features = rng.standard_normal((length, 8)).astype(np.float32)
        assert_gathered_tape_is_the_dense_tape(cfg, model.params, features, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_gathered_tape_gives_a_tied_channel_to_its_first_occurrence(dtype):
    # With zero SSM projections a layer's output at a token is the
    # feedthrough of that token alone, so a bag that repeats five tokens
    # ties every channel of the GLU output across the repeats.  Two channels
    # of the last layer's mixing also read no input, so they are one
    # constant over all tokens and tie across the gathered rows as well.
    # The gathered rows are sorted, so the max-pool over them keeps its
    # lowest-index rule and picks each channel's first occurrence, as the
    # dense tape does.
    cfg = small_config(num_ssm_layers=2)
    model = init_parameters(cfg, seed=6)
    for i in range(cfg.num_ssm_layers):
        for name in ("c_re", "c_im"):
            model.params[f"ssm{i}.{name}"] = np.zeros(model.params[f"ssm{i}.{name}"].shape)
    for name in ("value_weight", "gate_weight"):
        model.params[f"mix1.{name}"][:, :2] = 0.0
    tokens = np.random.default_rng(9).standard_normal((5, 8)).astype(np.float32)
    features = tokens[np.arange(ssm.ONE_BLOCK_MAX + 37) % 5]
    free = build_tape(cfg, model.params, features, dtype=dtype, grad_enabled=False)
    plane = next(n for n in free.tape.nodes if n.op == "max-pool-over-sequence").parents[0].value
    assert np.all((plane == plane.max(axis=0)).sum(axis=0) > 1)
    assert np.all(plane[:, :2] == plane[0, :2])
    first = np.argmax(plane, axis=0)
    assert np.all(first < 5) and first[0] == first[1] == 0
    picked = assert_gathered_tape_is_the_dense_tape(cfg, model.params, features, dtype)
    assert np.array_equal(picked, np.unique(first)) and len(picked) > 1


def test_gradient_free_forward_leaves_features_and_parameters_unwritten():
    # Only non-leaf arrays are reused.  The caller's float32 features enter
    # the tape uncopied, as a leaf, and the parameter leaves are views of the
    # parameter vector: neither is written.
    cfg = small_config(num_ssm_layers=2, multitask=True)
    model = init_parameters(cfg, seed=8)
    features = np.random.default_rng(9).standard_normal((ssm.ONE_BLOCK_MAX + 37, 8))
    features = features.astype(np.float32)
    before = features.tobytes(), model.params.vector.tobytes()
    assert Tape(dtype=np.float32, grad_enabled=False).leaf(features).value is features
    forward_mil(model, features)
    bundle = build_tape(cfg, model.params, features, grad_enabled=False)
    assert any(n.value is features for n in bundle.tape.nodes if n.op == "leaf")
    assert (features.tobytes(), model.params.vector.tobytes()) == before


def test_forward_rejects_empty_and_mismatched_bags():
    model = init_parameters(small_config(), seed=0)
    with pytest.raises(EmptyBagError):
        forward_mil(model, np.zeros((0, 8), dtype=np.float32))
    with pytest.raises(ContractError, match="input_dim"):
        forward_mil(model, np.zeros((4, 9), dtype=np.float32))


@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_full_model_duality_small(rule):
    rng = np.random.default_rng(5)
    cfg = small_config(hidden_dim=6, state_dim=8, discretization=rule, num_ssm_layers=2)
    model = init_parameters(cfg, seed=9)
    for _ in range(3):
        features = rng.standard_normal((int(rng.integers(2, 80)), 8)).astype(np.float32)
        conv = forward_mil(model, features, mode="conv").slide_probs
        rec = forward_mil(model, features, mode="recurrence").slide_probs
        assert np.max(np.abs(conv - rec)) <= 1e-5 * (1.0 + np.max(np.abs(rec)))


@pytest.mark.parametrize("mode", ["conv", "recurrence"])
def test_non_finite_ssm_parameter_raises_in_both_modes(mode):
    # Neither forward path may return NaN probabilities for a NaN parameter.
    model = init_parameters(small_config(), seed=3)
    model.params["ssm0.c_re"][1, 0] = np.nan
    features = np.random.default_rng(4).standard_normal((10, 8)).astype(np.float32)
    with pytest.raises(NumericalError):
        forward_mil(model, features, mode=mode)


@pytest.mark.parametrize("mode", ["conv", "recurrence"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_feature_is_rejected_before_the_projection(mode):
    model = init_parameters(small_config(), seed=3)
    features = np.random.default_rng(4).standard_normal((10, 8)).astype(np.float32)
    features[7, 1] = np.nan
    features[6, 5] = -np.inf
    features[9, 0] = np.inf
    with pytest.raises(NumericalError, match=r"^non-finite feature at token 6, feature 5: -inf$"):
        forward_mil(model, features, mode=mode)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_single_non_finite_feature_is_named_by_token_feature_and_value(value):
    model = init_parameters(small_config(), seed=3)
    features = np.random.default_rng(5).standard_normal((10, 8)).astype(np.float32)
    features[4, 6] = float(value)
    with pytest.raises(NumericalError) as info:
        forward_mil(model, features)
    assert str(info.value) == f"non-finite feature at token 4, feature 6: {value}"


def test_multitask_head_is_a_pure_branch():
    # Slide output must not change when the patch head is attached.
    cfg = small_config()
    base = init_parameters(cfg, seed=21)
    multi_cfg = small_config(multitask=True)
    multi = init_parameters(multi_cfg, seed=21)
    for k in base.params:
        multi.params[k] = base.params[k].copy()
    rng = np.random.default_rng(2)
    features = rng.standard_normal((12, 8)).astype(np.float32)
    np.testing.assert_array_equal(
        forward_mil(base, features).slide_probs,
        forward_mil(multi, features).slide_probs,
    )
    patch = forward_mil(multi, features).patch_probs
    assert patch.shape == (12, multi_cfg.patch_classes)
    np.testing.assert_allclose(patch.sum(axis=1), 1.0, atol=1e-6)


# --------------------------------------------------------------------------
# Gated linear unit
# --------------------------------------------------------------------------

def glu(value, gate):
    """The model's gated linear unit, value * sigmoid(gate), on a float64 tape."""
    tape = Tape(dtype=np.float64)
    return tape.mul(tape.leaf(value), tape.sigmoid(tape.leaf(gate))).value


def test_glu_hand_value():
    assert glu([1.0], [0.0])[0] == pytest.approx(0.5)


def test_glu_saturated_gate_passes_first_half():
    np.testing.assert_allclose(glu([0.3, -1.2], [40.0, 40.0]), [0.3, -1.2], atol=1e-12)


def test_glu_zero_first_half():
    rng = np.random.default_rng(0)
    assert np.all(glu(np.zeros(5), rng.standard_normal(5)) == 0.0)


def test_glu_mismatched_halves_rejected():
    with pytest.raises(ContractError, match="shape mismatch"):
        glu(np.zeros(2), np.zeros(1))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_glu_bounded_by_value_half(first_half):
    value = np.array(first_half)
    out = glu(value, np.zeros_like(value))
    assert np.all(np.abs(out) <= np.abs(value) + 1e-12)


# --------------------------------------------------------------------------
# Pooling baselines
# --------------------------------------------------------------------------

def test_pooling_identical_tokens():
    token = np.array([0.3, -1.7, 2.2])
    bag = np.tile(token, (7, 1))
    np.testing.assert_allclose(pool_features("mean", bag), token, rtol=1e-12)
    np.testing.assert_array_equal(pool_features("max", bag), token)


def test_max_pool_coordinatewise():
    bag = np.array([[1.0, 2.0], [3.0, 0.0]])
    np.testing.assert_array_equal(pool_features("max", bag), [3.0, 2.0])


@pytest.mark.parametrize("kind", ["mean", "max"])
def test_pooling_baseline_permutation_invariant_bitwise(kind):
    rng = np.random.default_rng(8)
    baseline = init_pooling_baseline(kind, input_dim=6, num_classes=2, seed=0)
    bag = rng.standard_normal((40, 6)).astype(np.float32)
    out = forward_pooling_baseline(baseline, bag)
    for _ in range(5):
        perm = rng.permutation(40)
        assert np.array_equal(forward_pooling_baseline(baseline, bag[perm]), out)


def test_pooling_empty_bag_rejected():
    baseline = init_pooling_baseline("mean", input_dim=3, num_classes=2, seed=0)
    with pytest.raises(EmptyBagError):
        forward_pooling_baseline(baseline, np.zeros((0, 3)))


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    model = init_parameters(small_config(multitask=True, num_ssm_layers=2), seed=4)
    path = tmp_path / "model.s4mc"
    save_checkpoint(path, model)
    loaded = load_checkpoint(path)
    assert loaded.config.hidden_dim == model.config.hidden_dim
    assert loaded.config.discretization == model.config.discretization
    for k in model.params:
        assert np.array_equal(loaded.params[k], model.params[k])
        assert loaded.params[k].dtype == np.float32
    # saved bytes are reproducible
    second = tmp_path / "again.s4mc"
    save_checkpoint(second, loaded)
    assert path.read_bytes() == second.read_bytes()


def test_checkpoint_payload_is_the_parameter_vector_bit_for_bit(tmp_path):
    # -0.0 and a subnormal would pass array_equal with +0.0 and 0.0; the bytes must not.
    model = init_parameters(small_config(multitask=True, num_ssm_layers=2), seed=6)
    model.params["norm.shift"][:2] = [-0.0, np.float32(1e-45)]
    path = tmp_path / "model.s4mc"
    save_checkpoint(path, model)
    assert path.read_bytes()[40:] == model.params.vector.astype("<f4").tobytes()
    loaded = load_checkpoint(path)
    assert loaded.params.vector.tobytes() == model.params.vector.tobytes()
    assert loaded.params.vector.dtype == np.float32
    for name, view in loaded.params.items():
        assert np.shares_memory(view, loaded.params.vector), name


_SHAPES = parameter_shapes(small_config(multitask=True, num_ssm_layers=2))


@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("name", list(_SHAPES))
def test_checkpoint_names_the_array_and_offset_of_a_non_finite_value(tmp_path, name, position):
    # The first or last value of each array in turn: the offset counts every value before it.
    model = init_parameters(small_config(multitask=True, num_ssm_layers=2), seed=3)
    model.params[name].reshape(-1)[position] = np.inf
    path = tmp_path / "bad.s4mc"
    save_checkpoint(path, model)
    names = list(_SHAPES)
    before = sum(math.prod(_SHAPES[n]) for n in names[:names.index(name)])
    before += math.prod(_SHAPES[name]) - 1 if position == -1 else 0
    with pytest.raises(ParseError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"non-finite value inf in {name} (byte offset {40 + 4 * before})"
    assert info.value.offset == 40 + 4 * before


def test_model_parameters_are_named_views_of_one_float32_vector():
    shapes = parameter_shapes(small_config())
    arrays = {k: np.full(shape, i, dtype=np.float64) for i, (k, shape) in enumerate(shapes.items())}
    model = MilModel(config=small_config(), params=arrays)
    assert isinstance(model.params, ParameterVector) and model.params.vector.dtype == np.float32
    assert model.params.vector.tolist() == [float(i) for i, shape in enumerate(shapes.values())
                                            for _ in range(math.prod(shape))]
    model.params["norm.scale"] = np.arange(4)  # assignment writes through to the vector
    assert np.shares_memory(model.params["norm.scale"], model.params.vector)
    assert model.params["norm.scale"].tolist() == [0.0, 1.0, 2.0, 3.0]
    with pytest.raises(ContractError, match="'norm.scale' has shape"):
        model.params["norm.scale"] = np.ones(3)
    copy = model.params.copy()
    copy["norm.scale"] = np.zeros(4)
    assert model.params["norm.scale"].tolist() == [0.0, 1.0, 2.0, 3.0]


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.s4mc"
    model = init_parameters(small_config(), seed=0)
    save_checkpoint(path, model)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation_and_trailing(tmp_path):
    path = tmp_path / "model.s4mc"
    model = init_parameters(small_config(), seed=0)
    save_checkpoint(path, model)
    blob = path.read_bytes()
    path.write_bytes(blob[:-2])
    with pytest.raises(ParseError, match="truncated"):
        load_checkpoint(path)
    path.write_bytes(blob + b"xx")
    with pytest.raises(ParseError, match="trailing"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_checkpoint_rejects_non_finite_parameter(tmp_path, value):
    model = init_parameters(small_config(), seed=3)
    model.params["ssm0.c_re"][1, 0] = value
    path = tmp_path / "bad.s4mc"
    save_checkpoint(path, model)
    shapes = parameter_shapes(model.config)
    names = list(shapes)
    before = sum(int(np.prod(shapes[n])) for n in names[: names.index("ssm0.c_re")])
    flat = int(np.ravel_multi_index((1, 0), shapes["ssm0.c_re"]))
    with pytest.raises(ParseError, match="non-finite value .* in ssm0.c_re") as info:
        load_checkpoint(path)
    assert info.value.offset == 40 + 4 * (before + flat)



@pytest.mark.parametrize("name,offset,value", [
    ("state_dim", 16, 3),
    ("input_dim", 8, 0),
    ("num_patch_classes", 24, 0),
    ("multitask", 32, 2),
])
def test_checkpoint_rejects_malformed_config_word_at_its_offset(tmp_path, name, offset, value):
    path = tmp_path / "model.s4mc"
    save_checkpoint(path, init_parameters(small_config(), seed=0))
    blob = bytearray(path.read_bytes())
    blob[offset:offset + 4] = value.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match=name) as info:
        load_checkpoint(path)
    assert info.value.offset == offset
