import gc
import re
import weakref

import numpy as np
import pytest

from s4mil.autograd import Tape, _sigmoid, check_gradients, grad_ssm_conv
from s4mil.errors import ContractError, NumericalError


def f64_tape():
    return Tape(dtype=np.float64)


@pytest.fixture
def one_channel_per_chunk(monkeypatch):
    from s4mil import autograd

    monkeypatch.setattr(autograd, "_conv_chunk", lambda h, fft_len: 1)
    monkeypatch.setattr(autograd, "_block_chunk", lambda h, length: 1)


# --------------------------------------------------------------------------
# Hand-checked chain rules
# --------------------------------------------------------------------------

def test_square_gradient():
    tape = f64_tape()
    w = tape.leaf(3.0, name="w")
    tape.mul(w, w)
    assert tape.forward() == 9.0
    grads = tape.backward()
    assert grads["w"] == pytest.approx(6.0)


def test_add_gives_each_parent_its_own_gradient():
    tape = f64_tape()
    a = tape.leaf(1.5, name="a")
    b = tape.leaf(-2.0, name="b")
    tape.add(a, b)
    grads = tape.backward()
    assert grads["a"] == grads["b"] == 1.0
    assert not np.shares_memory(grads["a"], grads["b"])


def test_sigmoid_gradient_at_zero():
    tape = f64_tape()
    w = tape.leaf(0.0, name="w")
    tape.scale(tape.sigmoid(w), 2.0)
    assert tape.forward() == 1.0
    grads = tape.backward()
    assert grads["w"] == pytest.approx(0.5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_bytewise_the_plain_formula(dtype):
    grid = np.concatenate([[-np.inf, np.inf, -100.0, -0.0, 0.0, 100.0, -1e-30],
                           np.linspace(-120.0, 120.0, 2401)]).astype(dtype)
    for x in (grid, grid.reshape(-1, 7).T, np.asarray(dtype(-3.5))):
        with np.errstate(over="ignore"):
            expected = 1.0 / (1.0 + np.exp(-x))
        got = _sigmoid(x)
        assert got.dtype == expected.dtype and got.shape == x.shape
        assert got.tobytes() == expected.tobytes()


def test_backward_is_bitwise_deterministic():
    rng = np.random.default_rng(0)
    tape = f64_tape()
    x = tape.leaf(rng.standard_normal((6, 3)), name="x")
    w = tape.leaf(rng.standard_normal((3, 4)), name="w")
    b = tape.leaf(rng.standard_normal(4), name="b")
    tape.softmax_log_loss(tape.matvec(x, w, b), rng.integers(0, 4, 6))
    first = tape.backward()
    second = tape.backward()
    for k in first:
        assert np.array_equal(first[k], second[k])


def check_max_pool_ties(order):
    tape = f64_tape()
    x = tape.leaf(np.array([[1.0, 2.0], [1.0, 0.0], [0.5, 2.0]], order=order), name="x")
    pooled = tape.max_pool_sequence(x)
    tape.softmax_log_loss(pooled, [0])
    assert pooled.value.shape == (1, 2)
    np.testing.assert_allclose(pooled.value, [[1.0, 2.0]])
    grads = tape.backward()
    # column 0 ties rows 0/1 at 1.0; column 1 ties rows 0/2 at 2.0
    assert grads["x"][0, 0] != 0 and grads["x"][1, 0] == 0
    assert grads["x"][0, 1] != 0 and grads["x"][2, 1] == 0


def test_max_pool_tie_breaks_to_lowest_index():
    check_max_pool_ties("C")


def test_max_pool_tie_breaks_to_lowest_index_on_channel_major_input():
    check_max_pool_ties("F")


def test_shape_mismatch_names_both_shapes():
    tape = f64_tape()
    x = tape.leaf(np.zeros((2, 3)))
    w = tape.leaf(np.zeros((4, 5)))
    with pytest.raises(ContractError, match=r"\(2, 3\).*\(4, 5\)"):
        tape.matvec(x, w, tape.leaf(np.zeros(5)))
    with pytest.raises(ContractError, match=r"\(2, 3\).*\(4, 5\)"):
        tape.add(x, w)


@pytest.mark.parametrize("bias_shape", [(4,), (1, 5), ()], ids=["short", "2-d", "scalar"])
def test_matvec_rejects_a_bias_that_does_not_fit_the_weight(bias_shape):
    tape = f64_tape()
    x = tape.leaf(np.zeros((2, 3)))
    w = tape.leaf(np.zeros((3, 5)))
    with pytest.raises(ContractError, match=rf"{re.escape(str(bias_shape))}.*\(3, 5\)"):
        tape.matvec(x, w, tape.leaf(np.zeros(bias_shape)))


def test_non_scalar_tape_rejected():
    tape = f64_tape()
    tape.leaf(np.zeros(3))
    with pytest.raises(ContractError, match="scalar"):
        tape.forward()


# --------------------------------------------------------------------------
# Finite-difference checks, one per op kind
# --------------------------------------------------------------------------

def assert_gradcheck(build, params, **kw):
    worst, failures = check_gradients(build, params, **kw)
    assert not failures, "\n".join(failures[:10])


def test_matvec_2d_fd():
    rng = np.random.default_rng(1)
    params = {"x": rng.standard_normal((5, 3)), "w": rng.standard_normal((3, 4)),
              "b": rng.standard_normal(4)}
    labels = rng.integers(0, 4, 5)

    def build(p):
        tape = f64_tape()
        x, w, b = (tape.leaf(p[k], k) for k in ("x", "w", "b"))
        tape.softmax_log_loss(tape.matvec(x, w, b), labels)
        return tape

    assert_gradcheck(build, params)


def test_matvec_single_row_fd():
    # The classifier's shape: one pooled (1, D) row.  A 1-D x is not a row.
    rng = np.random.default_rng(2)
    params = {"x": rng.standard_normal((1, 3)), "w": rng.standard_normal((3, 4)),
              "b": rng.standard_normal(4)}

    def build(p):
        tape = f64_tape()
        x, w, b = (tape.leaf(p[k], k) for k in ("x", "w", "b"))
        tape.softmax_log_loss(tape.matvec(x, w, b), [2])
        return tape

    assert_gradcheck(build, params)
    tape = f64_tape()
    with pytest.raises(ContractError, match=r"\(3,\) @ \(3, 4\)"):
        tape.matvec(tape.leaf(params["x"][0]), tape.leaf(params["w"]), tape.leaf(params["b"]))


def test_glu_affine_scale_add_fd():
    # The model's mixing block and its multitask loss sum, op for op.
    rng = np.random.default_rng(3)
    params = {
        "a": rng.standard_normal((4, 3)),
        "b": rng.standard_normal((4, 3)),
        "w": rng.standard_normal((3, 3)),
        "bias": rng.standard_normal(3),
    }
    labels = rng.integers(0, 3, 4)

    def build(p):
        tape = f64_tape()
        a, b, w, bias = (tape.leaf(p[k], k) for k in ("a", "b", "w", "bias"))
        z = tape.matvec(tape.mul(a, tape.sigmoid(b)), w, bias)
        token_term = tape.softmax_log_loss(z, labels)
        pooled_term = tape.softmax_log_loss(tape.max_pool_sequence(z), [1])
        tape.add(pooled_term, tape.scale(token_term, 0.7))
        return tape

    assert_gradcheck(build, params)


def test_max_pool_fd():
    rng = np.random.default_rng(4)
    params = {"x": rng.standard_normal((8, 5))}

    def build(p):
        tape = f64_tape()
        tape.softmax_log_loss(tape.max_pool_sequence(tape.leaf(p["x"], "x")), [1])
        return tape

    assert_gradcheck(build, params)


def test_rows_gathers_channel_major_and_scatters_its_gradient():
    # The gathered rows keep the channel-major layout; rows left out get a
    # zero gradient, and a row gathered into the max-pool gets its share.
    rng = np.random.default_rng(30)
    x = np.asfortranarray(rng.standard_normal((9, 4)))
    index = np.array([1, 4, 8])
    tape = f64_tape()
    leaf = tape.leaf(x, "x")
    picked = tape.rows(leaf, index)
    assert picked.value.flags.f_contiguous and np.array_equal(picked.value, x[index])
    tape.softmax_log_loss(tape.max_pool_sequence(picked), [2])
    grad = tape.backward()["x"]
    assert grad.flags.f_contiguous
    assert not np.any(np.delete(grad, index, axis=0))
    assert np.count_nonzero(grad[index]) == 4  # one token per channel

    params = {"x": x}

    def build(p):
        t = f64_tape()
        t.softmax_log_loss(t.rows(t.leaf(p["x"], "x"), index), [0, 3, 1])
        return t

    assert_gradcheck(build, params)


def test_layernorm_fd():
    rng = np.random.default_rng(5)
    params = {
        "x": rng.standard_normal((6, 4)),
        "g": 1.0 + 0.1 * rng.standard_normal(4),
        "b": 0.1 * rng.standard_normal(4),
    }
    labels = rng.integers(0, 4, 6)

    def build(p):
        tape = f64_tape()
        out = tape.layernorm(tape.leaf(p["x"], "x"), tape.leaf(p["g"], "g"), tape.leaf(p["b"], "b"))
        tape.softmax_log_loss(out, labels)
        return tape

    assert_gradcheck(build, params)


def ssm_params(rng, h, n_half):
    return {
        "u": rng.standard_normal((12, h)),
        "a_re": -rng.uniform(0.2, 1.5, (h, n_half)),
        "a_im": np.pi * rng.uniform(0, 2, (h, n_half)),
        "c_re": rng.standard_normal((h, n_half)),
        "c_im": rng.standard_normal((h, n_half)),
        "d": rng.standard_normal(h),
        "log_dt": rng.uniform(np.log(0.01), np.log(0.5), h),
    }


def build_ssm_tape(p, rule, labels):
    tape = f64_tape()
    nodes = {k: tape.leaf(v, k) for k, v in p.items()}
    out = tape.ssm_conv(nodes["u"], nodes["a_re"], nodes["a_im"], nodes["c_re"],
                        nodes["c_im"], nodes["d"], nodes["log_dt"], rule=rule)
    tape.softmax_log_loss(out, labels)
    return tape


@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_ssm_conv_fd(rule):
    rng = np.random.default_rng(6)
    params = ssm_params(rng, h=3, n_half=2)
    labels = rng.integers(0, 3, 12)
    assert_gradcheck(lambda p: build_ssm_tape(p, rule, labels), params)


@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_ssm_conv_scalar_channel_l4_fd(rule):
    rng = np.random.default_rng(7)
    params = ssm_params(rng, h=1, n_half=1)
    params["u"] = rng.standard_normal((4, 1))
    widen = rng.standard_normal((1, 3))  # fixed, so the scalar loss is non-degenerate
    labels = rng.integers(0, 3, 4)

    def build(p):
        tape = f64_tape()
        nodes = {k: tape.leaf(v, k) for k, v in p.items()}
        out = tape.ssm_conv(nodes["u"], nodes["a_re"], nodes["a_im"], nodes["c_re"],
                            nodes["c_im"], nodes["d"], nodes["log_dt"], rule=rule)
        tape.softmax_log_loss(tape.matvec(out, tape.leaf(widen), tape.leaf(np.zeros(3))), labels)
        return tape

    assert_gradcheck(build, params)


def test_ssm_conv_feedthrough_gradient_is_correlation():
    # d is a pure skip: dL/dd_h = sum_t g[t,h] u[t,h].
    rng = np.random.default_rng(8)
    from s4mil.autograd import _ssm_conv_forward

    p = ssm_params(rng, h=2, n_half=2)
    _, cache = _ssm_conv_forward(p["u"], p["a_re"], p["a_im"], p["c_re"], p["c_im"],
                                 p["d"], p["log_dt"], "bilinear", keep_cache=True)
    g = rng.standard_normal(p["u"].shape)
    grads = grad_ssm_conv(g, cache)
    np.testing.assert_allclose(grads["d"], np.einsum("lh,lh->h", g, p["u"]), rtol=1e-12)


def test_ssm_conv_zero_upstream_zero_grads():
    rng = np.random.default_rng(9)
    from s4mil.autograd import _ssm_conv_forward

    p = ssm_params(rng, h=2, n_half=3)
    _, cache = _ssm_conv_forward(p["u"], p["a_re"], p["a_im"], p["c_re"], p["c_im"],
                                 p["d"], p["log_dt"], "zoh", keep_cache=True)
    grads = grad_ssm_conv(np.zeros_like(p["u"]), cache)
    for k, v in grads.items():
        assert np.all(v == 0.0), k


def test_ssm_conv_grads_match_unrolled_recurrence():
    # Forward-mode accumulation through the stepped recurrence, an
    # independent route to the same pole/projection gradients.
    rng = np.random.default_rng(10)
    from s4mil.autograd import _ssm_conv_forward

    h, n_half, length = 1, 2, 6
    p = ssm_params(rng, h=h, n_half=n_half)
    p["u"] = rng.standard_normal((length, h))
    _, cache = _ssm_conv_forward(p["u"], p["a_re"], p["a_im"], p["c_re"], p["c_im"],
                                 p["d"], p["log_dt"], "bilinear", keep_cache=True)
    g = rng.standard_normal((length, h))
    grads = grad_ssm_conv(g, cache)

    a_bar, b_bar, c = cache.disc.a_bar[0], cache.disc.b_bar[0], cache.c[0]
    u = p["u"][:, 0]
    x = np.zeros(n_half, dtype=complex)
    dx_dabar = np.zeros(n_half, dtype=complex)  # holomorphic sensitivities
    dx_dbbar = np.zeros(n_half, dtype=complex)
    abar_dot = np.zeros(n_half, dtype=complex)
    bbar_dot = np.zeros(n_half, dtype=complex)
    c_dot = np.zeros(n_half, dtype=complex)
    for t in range(length):
        dx_dabar = a_bar * dx_dabar + x
        dx_dbbar = a_bar * dx_dbbar + u[t]
        x = a_bar * x + b_bar * u[t]
        # y_t = 2 Re(sum c x) + d u_t; adjoints of holomorphic params are
        # accumulated as g_t * conj(dy/dparam) with dy/dz = c * dx/dz etc.
        abar_dot += g[t, 0] * 2.0 * np.conj(c * dx_dabar)
        bbar_dot += g[t, 0] * 2.0 * np.conj(c * dx_dbbar)
        c_dot += g[t, 0] * 2.0 * np.conj(x)
    # chain through the bilinear map to the continuous pole and timestep
    dt = cache.dt[0]
    a = p["a_re"][0] + 1j * p["a_im"][0]  # below the clamp, so used as is
    den = 1.0 - 0.5 * dt * a
    den2 = den * den
    a_hat = abar_dot * np.conj(dt / den2) + bbar_dot * np.conj(dt * dt / (2 * den2))
    ddt = (abar_dot * np.conj(a / den2) + bbar_dot * np.conj(1.0 / den2)).real.sum()
    np.testing.assert_allclose(grads["a_re"][0], a_hat.real, rtol=1e-9)
    np.testing.assert_allclose(grads["a_im"][0], a_hat.imag, rtol=1e-9)
    np.testing.assert_allclose(grads["c_re"][0], c_dot.real, rtol=1e-9)
    np.testing.assert_allclose(grads["c_im"][0], c_dot.imag, rtol=1e-9)
    np.testing.assert_allclose(grads["log_dt"][0], dt * ddt, rtol=1e-9)


@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_gradient_tape_across_carried_blocks_matches_finite_differences(rule):
    # A gradient tape on a bag longer than two blocks.  Its forward carries
    # states across blocks from the first block's taps, exactly as a
    # grad-free tape does, and its input and parameter gradients come from
    # in-block correlations and the carried block sums (ssm.block_adjoint).
    from s4mil.ssm import STATE_BLOCK

    rng = np.random.default_rng(18)
    length = 3 * STATE_BLOCK + 37
    params = ssm_params(rng, h=3, n_half=2)
    params["u"] = rng.standard_normal((length, 3))
    labels = rng.integers(0, 3, length)
    tape = build_ssm_tape(params, rule, labels)
    free = Tape(dtype=np.float64, grad_enabled=False)
    nodes = [free.leaf(params[k]) for k in ("u", "a_re", "a_im", "c_re", "c_im", "d", "log_dt")]
    assert tape.nodes[-2].value.tobytes() == free.ssm_conv(*nodes, rule=rule).value.tobytes()

    u = params.pop("u")
    assert_gradcheck(lambda p: build_ssm_tape({**p, "u": u}, rule, labels), params)

    # the input gradient along one random direction
    grad_u = build_ssm_tape({**params, "u": u}, rule, labels).backward()["u"]
    direction = rng.standard_normal(u.shape)
    step = 1e-5
    plus, minus = (build_ssm_tape({**params, "u": u + s * direction}, rule, labels).forward()
                   for s in (step, -step))
    np.testing.assert_allclose(np.sum(grad_u * direction), (plus - minus) / (2 * step), rtol=1e-6)


def test_gradient_tape_builds_one_kernel_per_ssm_layer(monkeypatch):
    # The backward reuses the forward's taps, so a gradient tape on a bag
    # past two blocks builds conv_taps(L) = STATE_BLOCK taps per layer and
    # no full-length kernel.
    from s4mil import autograd, ssm
    from s4mil.model import ModelConfig, build_tape, init_parameters

    length = 3 * ssm.STATE_BLOCK + 37
    kernel_bank = ssm.kernel_bank
    taps = []

    def spy(w, a_bar, n):
        taps.append(n)
        return kernel_bank(w, a_bar, n)

    monkeypatch.setattr(ssm, "kernel_bank", spy)
    cfg = ModelConfig(input_dim=8, hidden_dim=4, state_dim=4, num_classes=2, num_ssm_layers=2)
    model = init_parameters(cfg, seed=5)
    features = np.random.default_rng(19).standard_normal((length, 8))
    build_tape(cfg, model.params, features, slide_label=1, dtype=np.float64).tape.backward()
    assert taps == [ssm.conv_taps(length)] * 2 == [ssm.STATE_BLOCK] * 2

    p = ssm_params(np.random.default_rng(20), h=3, n_half=2)
    p["u"] = np.random.default_rng(21).standard_normal((length, 3))
    _, cache = autograd._ssm_conv_forward(p["u"], p["a_re"], p["a_im"], p["c_re"], p["c_im"],
                                          p["d"], p["log_dt"], "zoh", keep_cache=True)
    assert cache.kernels.shape == (3, ssm.STATE_BLOCK)


def test_gradient_tape_past_two_blocks_takes_its_parameter_gradients_from_blocks(
        monkeypatch, one_channel_per_chunk):
    # Past two blocks the pole sums come from blocks and carried states, so
    # no full-length correlation runs and the ssm-conv backward holds no
    # (H, L) float64 array: one channel per chunk, so one such array
    # outweighs every buffer of a chunk, and the peak is the float32 input
    # gradient (half of one) and a chunk's buffers.  The full-length
    # correlation alone would be one such array and its weights two more.
    # A bag of at most two blocks still makes one correlation per chunk.
    import tracemalloc

    from s4mil import ssm

    calls = []
    corr = ssm.fft_causal_corr
    monkeypatch.setattr(ssm, "fft_causal_corr", lambda g, v: calls.append(g.shape) or corr(g, v))
    rng = np.random.default_rng(26)
    h = 64
    params = ssm_params(rng, h=h, n_half=4)
    for length, correlations in ((8 * ssm.STATE_BLOCK + 1, 0), (2 * ssm.STATE_BLOCK, h)):
        calls.clear()
        params["u"] = np.asfortranarray(rng.standard_normal((length, h)))  # channel-major
        tape = Tape(dtype=np.float32)
        nodes = [tape.leaf(params[k], k) for k in ("u", "a_re", "a_im", "c_re", "c_im", "d", "log_dt")]
        out = tape.ssm_conv(*nodes, rule="bilinear")
        g = np.asfortranarray(rng.standard_normal((length, h)), dtype=np.float32)
        tracemalloc.start()
        try:
            out.backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == correlations, length
        if not correlations:
            plane = h * length * 8
            assert nodes[0].grad.dtype == np.float32
            assert peak < plane, f"peak {peak / plane:.2f} planes"


def test_block_backward_transforms_each_block_once(monkeypatch):
    # Past two blocks one pass serves the input and the parameter gradients:
    # each block of the upstream and of the input has one forward transform,
    # each block of the input gradient one inverse, and each channel adds the
    # kernel's transform and the pole sums' inverse.  Transform rows times
    # points are counted as perfbench/spans.py counts them.
    from s4mil import ssm

    rng = np.random.default_rng(27)
    h, length = 4, 8 * ssm.STATE_BLOCK + 1
    blocks, n_fft = -(-length // ssm.STATE_BLOCK), ssm._fft_size(ssm.STATE_BLOCK)
    params = ssm_params(rng, h=h, n_half=3)
    params["u"] = np.asfortranarray(rng.standard_normal((length, h)))
    tape = Tape(dtype=np.float32)
    nodes = [tape.leaf(params[k], k) for k in ("u", "a_re", "a_im", "c_re", "c_im", "d", "log_dt")]
    out = tape.ssm_conv(*nodes, rule="zoh")
    g = np.asfortranarray(rng.standard_normal((length, h)), dtype=np.float32)

    points = {}

    def counted(name, transform):
        def run(a, n=None, axis=-1, **kwargs):
            result = transform(a, n, axis, **kwargs)
            size = result.shape[axis] if n is None else n
            key = (name, size)
            points[key] = points.get(key, 0) + result.size // result.shape[axis] * size
            return result
        return run

    for name in ("rfft", "irfft", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    convolutions = []
    conv = ssm.fft_causal_conv
    monkeypatch.setattr(ssm, "fft_causal_conv", lambda *args: convolutions.append(args) or conv(*args))
    out.backward_fn(g)
    assert points == {("rfft", n_fft): (2 * blocks * h + h) * n_fft,
                      ("irfft", n_fft): (blocks * h + h) * n_fft}
    assert convolutions == []


@pytest.mark.parametrize("length", [2 * 512 + 1, 8 * 512 + 1])
@pytest.mark.parametrize("dt", [1e-3, 0.1])
@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_ssm_conv_input_gradient_matches_the_quadratic_adjoint(rule, dt, length):
    # grad_u[t] = sum_l K_l g[t + l] + d g[t]: direct_causal_conv of the
    # reversed upstream with the brute-force full kernel, reversed back.
    # Channels in the trained regime: poles -1/2 + i pi k (k < 16) and pole
    # real parts at the -1e-4 clamp, set there or clamped from above.
    from s4mil import ssm
    from s4mil.autograd import POLE_REAL_CEILING, ssm_parameters

    rng = np.random.default_rng(24)
    n_half = 16
    a_re = np.repeat([[-0.5], [POLE_REAL_CEILING], [0.25]], n_half, axis=1)
    h = a_re.shape[0]
    p = {"a_re": a_re, "a_im": np.tile(np.pi * np.arange(n_half), (h, 1)),
         "c_re": rng.standard_normal((h, n_half)), "c_im": rng.standard_normal((h, n_half)),
         "d": rng.standard_normal(h), "log_dt": np.full(h, np.log(dt))}
    u_value = rng.standard_normal((length, h))
    g = np.asfortranarray(rng.standard_normal((length, h)))

    tape = f64_tape()
    u = tape.leaf(u_value, "u")
    others = [tape.leaf(p[k]) for k in ("a_re", "a_im", "c_re", "c_im", "d", "log_dt")]
    tape.ssm_conv(u, *others, rule=rule).backward_fn(g)

    a, c, dt_op, _ = ssm_parameters(p["a_re"], p["a_im"], p["c_re"], p["c_im"], p["log_dt"])
    disc = ssm.discretize(a, dt_op, rule)
    power = np.ones_like(disc.a_bar)
    kernels = np.empty((h, length))
    for ell in range(length):  # repeated multiplication, no power tables
        kernels[:, ell] = 2.0 * np.sum(c * power * disc.b_bar, axis=1).real
        power = power * disc.a_bar
    expected = np.stack([ssm.direct_causal_conv(kernels[i], g[::-1, i])[::-1]
                         for i in range(h)], axis=1) + p["d"] * g
    scale = np.max(np.abs(expected), axis=0)
    err = np.max(np.abs(u.grad - expected), axis=0) / scale
    assert np.all(err <= 1e-12), f"per-channel error over the channel's scale {err}"


def test_degenerate_pivot_inside_ssm_conv_names_channel_and_pole(monkeypatch):
    # The POLE_REAL_CEILING clamp keeps re(1 - dt*a/2) >= 1, so lift it to let
    # a pole reach the bilinear pivot 2/dt.
    from s4mil import autograd

    monkeypatch.setattr(autograd, "POLE_REAL_CEILING", np.inf)
    rng = np.random.default_rng(13)
    p = ssm_params(rng, h=3, n_half=2)
    p["log_dt"][2] = np.log(0.5)
    p["a_re"][2, 1], p["a_im"][2, 1] = 4.0, 0.0
    with pytest.raises(NumericalError, match=r"channel 2, pole index 1"):
        build_ssm_tape(p, "bilinear", rng.integers(0, 3, 12))


@pytest.mark.parametrize("grad_enabled", [True, False])
def test_finished_tape_is_freed_without_the_cyclic_collector(grad_enabled):
    # Reference counting alone must free a dropped tape: no backward closure
    # may refer back to its Tape.
    from s4mil.model import ModelConfig, build_tape, init_parameters

    cfg = ModelConfig(input_dim=8, hidden_dim=4, state_dim=4, num_classes=2,
                      multitask=True, num_patch_classes=2)
    model = init_parameters(cfg, seed=5)
    features = np.random.default_rng(14).standard_normal((16, 8))
    gc.disable()
    try:
        bundle = build_tape(cfg, model.params, features, slide_label=1,
                            patch_labels=np.zeros(16, dtype=np.int64), lam=1.0,
                            grad_enabled=grad_enabled)
        if grad_enabled:
            bundle.tape.backward()
        tape = weakref.ref(bundle.tape)
        del bundle
        assert tape() is None
    finally:
        gc.enable()


def test_forward_mil_and_block_path_tapes_are_freed_without_the_cyclic_collector(monkeypatch):
    # As above, for the tape forward_mil builds and drops, and for a
    # gradient tape on a bag long enough for the carried-block path.
    from s4mil import model as model_module
    from s4mil.model import ModelConfig, forward_mil, init_parameters

    cfg = ModelConfig(input_dim=8, hidden_dim=4, state_dim=4, num_classes=2)
    model = init_parameters(cfg, seed=6)
    features = np.random.default_rng(16).standard_normal((2 * 512 + 37, 8)).astype(np.float32)
    built = []
    build_tape = model_module.build_tape

    def recording(*args, **kwargs):
        bundle = build_tape(*args, **kwargs)
        built.append(weakref.ref(bundle.tape))
        return bundle

    monkeypatch.setattr(model_module, "build_tape", recording)
    gc.disable()
    try:
        forward_mil(model, features)
        model_module.build_tape(cfg, model.params, features, slide_label=0).tape.backward()
        assert len(built) == 2
        assert [ref() for ref in built] == [None, None]
    finally:
        gc.enable()


# --------------------------------------------------------------------------
# Tape contract: which nodes hold gradients and closures
# --------------------------------------------------------------------------

def small_mil_bundle(grad_enabled=True, dtype=np.float64):
    from s4mil.model import ModelConfig, build_tape, init_parameters

    cfg = ModelConfig(input_dim=8, hidden_dim=4, state_dim=4, num_classes=2, num_ssm_layers=2,
                      multitask=True, num_patch_classes=2)
    model = init_parameters(cfg, seed=5)
    rng = np.random.default_rng(15)
    return build_tape(cfg, model.params, rng.standard_normal((16, 8)), slide_label=1,
                      patch_labels=rng.integers(0, 2, 16), lam=1.0, dtype=dtype,
                      grad_enabled=grad_enabled)


def test_unnamed_leaf_gets_no_gradient():
    tape = small_mil_bundle().tape
    grads = tape.backward()
    features = next(n for n in tape.nodes if n.op == "leaf" and n.name is None)
    assert features.value.shape == (16, 8)
    assert not features.needs_grad and features.grad is None
    assert set(grads) == {n.name for n in tape.nodes if n.op == "leaf" and n.name is not None}


def test_unreached_named_leaf_gets_zeros_of_its_shape():
    tape = f64_tape()
    w = tape.leaf(np.arange(6.0).reshape(2, 3), name="w")
    tape.leaf(np.ones((4, 2)), name="unused")
    tape.softmax_log_loss(tape.matvec(tape.leaf(np.ones((1, 2))), w, tape.leaf(np.zeros(3))), [1])
    grads = tape.backward()
    assert grads["unused"].shape == (4, 2) and not np.any(grads["unused"])
    assert np.any(grads["w"])


def test_non_leaf_gradients_are_dropped_after_the_sweep():
    tape = small_mil_bundle().tape
    tape.backward()
    inner = [n for n in tape.nodes if n.op != "leaf"]
    assert inner and all(n.grad is None for n in inner)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_repeated_backward_returns_equal_gradients(dtype):
    tape = small_mil_bundle(dtype=dtype).tape
    first = tape.backward()
    second = tape.backward()
    assert first.keys() == second.keys()
    for k in first:
        assert first[k] is not second[k]
        assert first[k].tobytes() == second[k].tobytes(), k


def test_handed_over_gradients_own_distinct_memory_and_match_the_copying_path(monkeypatch):
    from s4mil import autograd

    accumulate = autograd._accumulate
    handed = []

    def spy(node, g):
        accumulate(node, g)
        handed.append(node.grad is g)

    def copying(node, g):  # every first gradient is a new array, zero plus g
        if node.grad is None:
            node.grad = np.add(g, 0, out=np.empty_like(node.value))
        else:
            node.grad += g

    monkeypatch.setattr(autograd, "_accumulate", spy)
    grads = small_mil_bundle().tape.backward()
    assert any(handed), "no closure handed its gradient over"
    arrays = list(grads.values())
    for i, x in enumerate(arrays):
        for y in arrays[i + 1:]:
            assert not np.shares_memory(x, y)
    monkeypatch.setattr(autograd, "_accumulate", copying)
    copied = small_mil_bundle().tape.backward()
    assert grads.keys() == copied.keys()
    for k in grads:
        assert grads[k].tobytes() == copied[k].tobytes(), k


@pytest.mark.parametrize("grad_enabled", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_model_activations_are_channel_major(grad_enabled, dtype):
    # Every value still held is channel-major.  A gradient-free tape's
    # elementwise ops take the array of their first input unless it is a
    # leaf, and exactly those inputs hold no value; a gradient tape takes none.
    tape = small_mil_bundle(grad_enabled=grad_enabled, dtype=dtype).tape
    reusing = {"layernorm", "ssm-conv", "sigmoid", "elementwise-mul"}
    taken = {id(n.parents[0]) for n in tape.nodes
             if n.op in reusing and n.parents[0].op != "leaf" and not grad_enabled}
    assert {id(n) for n in tape.nodes if n.value is None} == taken
    assert len(taken) == (0 if grad_enabled else 7)  # 1 + 3 per layer
    planes = [n for n in tape.nodes if n.op != "leaf" and n.value is not None and n.value.ndim == 2]
    held = {"matvec", "ssm-conv", "sigmoid", "elementwise-mul"} | ({"layernorm"} if grad_enabled else set())
    assert {n.op for n in planes} >= held
    for n in planes:
        assert n.value.flags.f_contiguous, n.op


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_owned_first_gradient_is_handed_over(monkeypatch, dtype):
    # Every closure owns the array it passes, laid out like the value it
    # belongs to, so _accumulate should copy no first gradient of the model.
    from s4mil import autograd

    accumulate = autograd._accumulate
    copied = []

    def spy(node, g):
        first = node.grad is None
        accumulate(node, g)
        if first and isinstance(g, np.ndarray) and node.grad is not g:
            copied.append((node.op, node.name, g.shape))

    monkeypatch.setattr(autograd, "_accumulate", spy)
    small_mil_bundle(dtype=dtype).tape.backward()
    assert not copied


def test_first_gradient_turns_negative_zero_into_positive_zero():
    # g * -0 is -0 where g > 0; a gradient starts as +0 + g, as if zero-filled.
    tape = f64_tape()
    w = tape.leaf(np.ones((1, 3)), name="w")
    z = tape.leaf(np.full((1, 3), -0.0), name="z")
    tape.softmax_log_loss(tape.mul(w, z), [0])
    grads = tape.backward()
    assert np.all(grads["w"] == 0) and not np.any(np.signbit(grads["w"]))


def test_ssm_conv_forward_keeps_no_whole_float64_copy_of_its_input(one_channel_per_chunk):
    # One channel per chunk, so one (H, L) float64 array outweighs every buffer
    # of a chunk.  A grad-free forward on a bag this long carries states
    # across blocks from the first block's kernel taps, so it holds no (H, L)
    # float64 array: its peak is the float32 output (half of one) and a
    # chunk's buffers.  The bound is one such array, which the full-length
    # kernels or a whole float64 copy of u would reach on their own.
    import tracemalloc

    rng = np.random.default_rng(17)
    h, length = 64, 16384
    p = ssm_params(rng, h=h, n_half=2)
    p["u"] = rng.standard_normal((length, h))
    tape = Tape(dtype=np.float32, grad_enabled=False)
    nodes = [tape.leaf(p[k]) for k in ("u", "a_re", "a_im", "c_re", "c_im", "d", "log_dt")]
    tracemalloc.start()
    try:
        y = tape.ssm_conv(*nodes, rule="zoh")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane = h * length * 8
    assert y.value.dtype == np.float32
    assert peak < plane, f"peak {peak / plane:.2f} planes"


def test_gradient_free_model_forward_peaks_at_the_planes_it_keeps(one_channel_per_chunk):
    # One channel per chunk, so the ssm-conv's transient buffers stay below
    # the planes the tape keeps.  A grad-free tape's elementwise ops write
    # into the arrays they consume, so a one-layer forward keeps 3 (L, H)
    # float32 planes:
    #   - the ssm-conv output, in the projection's array, which the layernorm
    #     and the ssm-conv reuse in turn and the two mixing matvecs read;
    #   - the GLU output, in the value's array;
    #   - the sigmoid, in the gate's array.
    # An op that allocates its result instead keeps its input alive, one
    # plane more; the bound leaves half a plane above the 3.
    import tracemalloc

    from s4mil.model import ModelConfig, build_tape, init_parameters

    h, length = 64, 16384
    cfg = ModelConfig(input_dim=64, hidden_dim=h, state_dim=8, num_classes=2)
    model = init_parameters(cfg, seed=3)
    features = np.random.default_rng(4).standard_normal((length, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        bundle = build_tape(cfg, model.params, features, grad_enabled=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane = h * length * 4
    kept = {n.op: n.value.nbytes for n in bundle.tape.nodes
            if n.op != "leaf" and n.value is not None and n.value.shape == (length, h)}
    assert kept == {"ssm-conv": plane, "sigmoid": plane, "elementwise-mul": plane}
    assert peak < 3.5 * plane, f"peak {peak / plane:.2f} planes"


def test_gradient_tape_without_a_patch_head_holds_no_dense_head_planes():
    # A gradient tape of a one-layer model without a patch head holds 4
    # (L, H) float32 planes once build_tape returns:
    #   - the projection;
    #   - the layernorm's output and its normalized input, which its
    #     backward reads;
    #   - the ssm-conv output, whose rows the head gathers.
    # The last layer's mixing and GLU run over every token on a
    # gradient-free tape that is gone by then, and the gradient tape keeps
    # them on the pooled rows only.  Dense head planes (value, gate,
    # sigmoid, GLU) would add 4; the bound leaves half a plane above the 4.
    import tracemalloc

    from s4mil.model import ModelConfig, build_tape, init_parameters

    h, length = 64, 16384
    cfg = ModelConfig(input_dim=64, hidden_dim=h, state_dim=8, num_classes=2)
    model = init_parameters(cfg, seed=3)
    features = np.random.default_rng(4).standard_normal((length, 64)).astype(np.float32)
    build_tape(cfg, model.params, features[:64], slide_label=1)  # imports stay out of the count
    tracemalloc.start()
    try:
        bundle = build_tape(cfg, model.params, features, slide_label=1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    plane = h * length * 4
    planes = sorted(n.op for n in bundle.tape.nodes
                    if n.op != "leaf" and n.value.shape == (length, h))
    assert planes == ["layernorm", "matvec", "ssm-conv"]
    assert held < 4.5 * plane, f"holds {held / plane:.2f} planes"


def test_an_input_taken_on_a_gradient_free_tape_raises_a_contract_error():
    # The sigmoid takes m's array on a gradient-free tape, so m has no value
    # for the mul; a gradient tape keeps every value and runs the same graph.
    rng = np.random.default_rng(27)
    x, w, b = rng.standard_normal((5, 3)), rng.standard_normal((3, 4)), rng.standard_normal(4)
    for grad_enabled in (False, True):
        tape = Tape(dtype=np.float64, grad_enabled=grad_enabled)
        m = tape.matvec(tape.leaf(x), tape.leaf(w, "w"), tape.leaf(b, "b"))
        s = tape.sigmoid(m)
        if not grad_enabled:
            assert m.value is None and s.value is not None
            with pytest.raises(ContractError, match="elementwise-mul: an input's value was taken "
                                                    "by a later op of a gradient-free tape"):
                tape.mul(m, s)
            continue
        tape.softmax_log_loss(tape.mul(m, s), rng.integers(0, 4, 5))
        grads = tape.backward()
        assert grads["w"].shape == (3, 4) and np.all(np.isfinite(grads["w"]))


def test_gradient_free_ops_never_write_a_leaf():
    # Leaves hold the caller's arrays (float64 ones uncopied on a float64
    # tape), so an op whose first input is a leaf writes a new array.
    p = ssm_params(np.random.default_rng(28), h=3, n_half=2)
    before = {k: v.tobytes() for k, v in p.items()}
    tape = Tape(dtype=np.float64, grad_enabled=False)
    nodes = {k: tape.leaf(v) for k, v in p.items()}
    u = nodes["u"]
    tape.ssm_conv(*nodes.values(), rule="zoh")
    tape.layernorm(u, nodes["d"], nodes["log_dt"])
    tape.mul(u, tape.sigmoid(u))
    assert all(n.value is p[k] for k, n in nodes.items())
    assert {k: v.tobytes() for k, v in p.items()} == before


def test_gradient_free_tape_keeps_no_closures():
    tape = small_mil_bundle(grad_enabled=False).tape
    assert all(n.backward_fn is None and not n.needs_grad for n in tape.nodes)


def test_threaded_ssm_conv_is_bitwise_equal_to_sequential(monkeypatch, one_channel_per_chunk):
    # One channel per chunk, so run_chunked hands four ranges to the pool;
    # one bag takes the full-length transform, the other carries states.  A
    # grad-free float64 tape whose ssm-conv input is not a leaf writes the
    # output into the input's array, whose channel rows each chunk reads as
    # a view; it gives the gradient tape's output at either thread count.
    from concurrent.futures import ThreadPoolExecutor

    from s4mil import parallel

    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", CountingPool)
    rng = np.random.default_rng(16)
    params = ssm_params(rng, h=4, n_half=3)
    before = parallel.get_threads()
    for length in (300, 1573):
        params["u"] = rng.standard_normal((length, 4))
        labels = rng.integers(0, 3, length)
        runs = {}
        try:
            for threads in (1, 2):
                parallel.set_threads(threads)
                tape = build_ssm_tape(params, "bilinear", labels)
                free = Tape(dtype=np.float64, grad_enabled=False)
                nodes = [free.leaf(params[k]) for k in ("a_re", "a_im", "c_re", "c_im", "d", "log_dt")]
                u = free.scale(free.leaf(np.asfortranarray(params["u"])), 1.0)  # channel-major
                in_place = free.ssm_conv(u, *nodes, rule="bilinear")
                assert u.value is None
                runs[threads] = (tape.nodes[-2].value, tape.backward(), in_place.value)
        finally:
            parallel.set_threads(before)
        (v1, g1, f1), (v2, g2, f2) = runs[1], runs[2]
        assert v1.tobytes() == v2.tobytes() == f1.tobytes() == f2.tobytes()
        assert g1.keys() == g2.keys()
        for k in g1:
            assert g1[k].tobytes() == g2[k].tobytes(), (length, k)
    assert pools, "the thread pool never started"


def test_softmax_log_loss_fd():
    rng = np.random.default_rng(11)
    params = {"z": rng.standard_normal((5, 3))}
    labels = rng.integers(0, 3, 5)

    def build(p):
        tape = f64_tape()
        tape.softmax_log_loss(tape.leaf(p["z"], "z"), labels)
        return tape

    assert_gradcheck(build, params)


def test_full_mil_model_gradients_match_finite_differences():
    # Every trainable parameter of a small aggregator, multitask loss so the
    # patch head is covered too.
    from s4mil.model import ModelConfig, build_tape, init_parameters

    cfg = ModelConfig(input_dim=8, hidden_dim=4, state_dim=4, num_classes=2,
                      multitask=True, num_patch_classes=2)
    model = init_parameters(cfg, seed=5)
    rng = np.random.default_rng(12)
    features = rng.standard_normal((16, 8))
    patch_labels = rng.integers(0, 2, 16)
    params = {k: v.astype(np.float64) for k, v in model.parameters().items()}

    def build(p):
        bundle = build_tape(cfg, p, features, slide_label=1, patch_labels=patch_labels,
                            lam=5.0, dtype=np.float64)
        return bundle.tape

    worst, failures = check_gradients(build, params)
    assert not failures, "\n".join(failures[:10])
    assert worst <= 1e-4
