import cmath

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from s4mil.errors import ContractError, NumericalError
from s4mil.ssm import (
    ONE_BLOCK_MAX,
    STATE_BLOCK,
    ZERO_POLE_EPS,
    _fft_size,
    _lag_sums,
    _toeplitz,
    block_adjoint,
    block_causal_conv,
    conv_taps,
    direct_causal_conv,
    discretize,
    fft_causal_conv,
    fft_causal_corr,
    kernel_bank,
    power_tables,
    power_weighted_sum,
    run_recurrence,
    to_blocks,
)


def random_stable_channel(rng, n_half=4, dt_range=(1e-3, 1.0)):
    a = -rng.uniform(0.05, 2.0, n_half) + 1j * rng.uniform(-8.0, 8.0, n_half)
    c = rng.standard_normal(n_half) + 1j * rng.standard_normal(n_half)
    d = float(rng.standard_normal())
    dt = float(rng.uniform(*dt_range))
    return a, c, d, dt


# --------------------------------------------------------------------------
# Complex carrier invariants
# --------------------------------------------------------------------------

finite_complex = st.builds(
    complex,
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@given(finite_complex)
def test_conj_is_involution(z):
    assert z.conjugate().conjugate() == z  # exact, not approximate


@given(finite_complex, finite_complex, finite_complex)
def test_field_axioms_hold_to_tolerance(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    lhs = (x + y) + z
    rhs = x + (y + z)
    assert cmath.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-6)
    lhs = x * (y + z)
    rhs = x * y + x * z
    assert cmath.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-3)


# --------------------------------------------------------------------------
# Discretization
# --------------------------------------------------------------------------

def test_bilinear_identity_case():
    a_bar, b_bar = discretize(np.array([0.0 + 0.0j]), 0.7, "bilinear")[:2]
    assert a_bar[0] == 1.0 + 0.0j
    assert b_bar[0] == pytest.approx(0.7)


def test_bilinear_hand_values():
    disc = discretize([-1.0 + 0.0j], 1.0, "bilinear")
    assert disc.a_bar[0] == pytest.approx(1.0 / 3.0)
    assert disc.b_bar[0] == pytest.approx(2.0 / 3.0)


def test_bilinear_matches_scalar_complex_oracle():
    # Independent evaluation with the standard library's complex arithmetic.
    a = complex(-0.5, cmath.pi)
    dt = 0.01
    den = 1 - dt * a / 2
    expected_a_bar = (1 + dt * a / 2) / den
    expected_b_bar = dt / den
    disc = discretize([a], dt, "bilinear")
    assert disc.a_bar[0] == pytest.approx(expected_a_bar, rel=1e-15)
    assert disc.b_bar[0] == pytest.approx(expected_b_bar, rel=1e-15)


def test_bilinear_degenerate_pivot_reported():
    with pytest.raises(NumericalError, match=r"at pole index 0"):
        discretize(np.array([2.0 / 0.7 + 0.0j]), 0.7, "bilinear")
    # stacked channels: the message names the channel and the pole
    a = np.full((4, 3), -1.0 + 0.0j)
    a[3, 2] = 2.0 / 0.7
    with pytest.raises(NumericalError, match=r"channel 3, pole index 2"):
        discretize(a, np.full(4, 0.7), "bilinear")


def test_zoh_zero_pole_limit():
    disc = discretize(np.array([0.0 + 0.0j]), 0.3, "zoh")
    assert disc.a_bar[0] == 1.0 + 0.0j
    assert disc.b_bar[0] == pytest.approx(0.3)
    assert disc.db_bar_da[0] == pytest.approx(0.3 * 0.3 / 2)


def test_zoh_small_dt_a_matches_mpmath():
    # At the pole clamp with the smallest trained dt, |dt*a| = 1e-7: the closed
    # forms (a_bar - 1)/a and (dt*a_bar - b_bar)/a cancel there.
    a, dt = -1e-4 + 0j, 1e-3
    disc = discretize(np.array([a]), dt, "zoh")
    with mpmath.workdps(50):
        z = dt * mpmath.mpc(a)
        b_bar = mpmath.expm1(z) / a
        db_bar_da = (dt * mpmath.exp(z) - b_bar) / a
    assert disc.b_bar[0] == pytest.approx(complex(b_bar), rel=1e-14)
    assert disc.db_bar_da[0] == pytest.approx(complex(db_bar_da), rel=1e-14)


def test_zoh_hand_values():
    disc = discretize([-1.0 + 0.0j], 1.0, "zoh")
    assert disc.a_bar[0] == pytest.approx(np.exp(-1.0))
    assert disc.b_bar[0] == pytest.approx(1.0 - np.exp(-1.0))


@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_stability_map_1000_draws(rule):
    # re(a) < 0 and dt in (0, 10] must land strictly inside the unit disk.
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = complex(-rng.uniform(1e-3, 5.0), rng.uniform(-20, 20))
        dt = rng.uniform(1e-6, 10.0)
        disc = discretize([a], dt, rule)
        assert abs(disc.a_bar[0]) < 1.0


def test_unknown_rule_rejected():
    with pytest.raises(ContractError, match="euler"):
        discretize([-1 + 0j], 1.0, "euler")


# Poles of the trained regime: the initial -1/2 + i pi k up to k = 63
# (N = 128), the same imaginary parts at the POLE_REAL_CEILING clamp, and a
# pole inside ZOH's |a| < ZERO_POLE_EPS series limit.
TRAINED_POLES = {
    "init": -0.5 + 1j * np.pi * np.arange(64),
    "clamp": -1e-4 + 1j * np.pi * np.arange(64),
    "zero": np.array([0.1 * ZERO_POLE_EPS + 0j]),
}


@pytest.mark.parametrize("rule,dt,poles", [
    (rule, dt, poles) for rule in ("bilinear", "zoh") for dt in (1e-3, 0.1) for poles in TRAINED_POLES
])
def test_discretization_derivatives_match_central_differences(rule, dt, poles):
    # a_bar and b_bar are holomorphic in a, so a real step gives d/da.  The
    # steps move dt*a by about 1e-4; the difference quotient may additionally
    # be off by its rounding noise eps |f| / step.
    a = TRAINED_POLES[poles]
    disc = discretize(a, dt, rule)
    step_a, step_dt = 1e-4 / dt, 1e-4 * dt
    plus_a, minus_a = discretize(a + step_a, dt, rule), discretize(a - step_a, dt, rule)
    plus_dt, minus_dt = discretize(a, dt + step_dt, rule), discretize(a, dt - step_dt, rule)
    checks = {
        "da_bar_da": (plus_a.a_bar, minus_a.a_bar, disc.a_bar, step_a),
        "db_bar_da": (plus_a.b_bar, minus_a.b_bar, disc.b_bar, step_a),
        "da_bar_ddt": (plus_dt.a_bar, minus_dt.a_bar, disc.a_bar, step_dt),
        "db_bar_ddt": (plus_dt.b_bar, minus_dt.b_bar, disc.b_bar, step_dt),
    }
    for name, (plus, minus, value, step) in checks.items():
        fd = (plus - minus) / (2 * step)
        analytic = getattr(disc, name)
        noise = np.finfo(np.float64).eps * np.abs(value) / step
        excess = np.abs(analytic - fd) - noise - 1e-6 * np.abs(analytic)
        assert np.all(excess <= 0), (
            f"{name}: pole {int(np.argmax(excess))}, analytic {analytic[np.argmax(excess)]}, "
            f"central difference {fd[np.argmax(excess)]}"
        )


# --------------------------------------------------------------------------
# Kernel
# --------------------------------------------------------------------------

def test_kernel_geometric_series():
    # w = 2 c b_bar = 1 leaves the scalar system K_l = a_bar^l.
    k = kernel_bank([1.0 + 0j], power_tables([0.5 + 0j], 4), 4)
    np.testing.assert_allclose(k, [1.0, 0.5, 0.25, 0.125], rtol=0, atol=0)


def test_kernel_unit_pole():
    k = kernel_bank([1.0 + 0j], power_tables([1.0 + 0j], 3), 3)
    np.testing.assert_allclose(k, [1.0, 1.0, 1.0], rtol=0, atol=0)


def brute_force_kernel(a_bar, b_bar, c, length):
    # Explicit repeated multiplication, the slow oracle for the blocked path.
    power = np.ones_like(a_bar)
    out = np.empty(length)
    for ell in range(length):
        out[ell] = 2.0 * np.sum(c * power * b_bar).real
        power = power * a_bar
    return out


def test_kernel_matches_brute_force_powers():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, c, _, dt = random_stable_channel(rng, n_half=5)
        disc = discretize(a, dt, "bilinear")
        k = kernel_bank(2.0 * c * disc.b_bar, power_tables(disc.a_bar, 64), 64)
        expected = brute_force_kernel(disc.a_bar, disc.b_bar, c, 64)
        np.testing.assert_allclose(k, expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
@pytest.mark.parametrize("dt", [1e-3, 0.1])
@pytest.mark.parametrize("a_re", [-0.5, -1e-4])
def test_kernel_matches_brute_force_in_the_trained_regime(rule, dt, a_re):
    # Init poles a_re + i pi k up to k = 63 (N = 128), and the -1e-4 clamp, at
    # the ends of the init dt range.  The tolerance is relative to the
    # kernel's scale: where the 64 terms cancel, the two computations differ
    # by up to 5e-11 of the entry itself.
    rng = np.random.default_rng(31)
    a = a_re + 1j * np.pi * np.arange(64)
    c = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    disc = discretize(a, dt, rule)
    k = kernel_bank(2.0 * c * disc.b_bar, power_tables(disc.a_bar, 2048), 2048)
    expected = brute_force_kernel(disc.a_bar, disc.b_bar, c, 2048)
    np.testing.assert_allclose(k, expected, rtol=1e-12, atol=1e-12 * np.max(np.abs(expected)))


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 16, 17, 1000])
def test_power_weighted_sum_matches_brute_force(length):
    # Two stacked weight sets against one (H, 1, n) pole array, as the
    # ssm-conv backward calls it; the lengths include whole blocks only
    # (4, 16) and a last partial block (3, 5, 17, 1000).
    rng = np.random.default_rng(37)
    h, n_half = 3, 4
    alpha = rng.uniform(0.1, 0.99, (h, 1, n_half)) * np.exp(1j * rng.uniform(0, np.pi, (h, 1, n_half)))
    weights = rng.standard_normal((h, 2, length))
    expected = np.zeros((h, 2, n_half), dtype=complex)
    power = np.ones_like(alpha)
    for ell in range(length):
        expected += weights[..., ell, None] * power
        power = power * alpha
    got = power_weighted_sum(power_tables(alpha, length), weights)
    assert got.shape == (h, 2, n_half)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * np.abs(expected).max())


def test_power_table_sizes_cover_every_exponent():
    # Every exponent splits at B = STATE_BLOCK, l = iB + s: the fine table
    # holds s <= B and the coarse one i <= q = ceil(L / B); kernel_bank
    # reshapes its taps into (q, B).
    alpha = np.array([[0.5 + 0.5j]])
    for length in range(1, 4097):
        fine, coarse = power_tables(alpha, length)
        q = -(-length // STATE_BLOCK)
        assert fine.shape == (1, STATE_BLOCK + 1, 1) and coarse.shape == (1, q + 1, 1)
        assert q * STATE_BLOCK >= length > (q - 1) * STATE_BLOCK
    # the longest kernel the model builds, one block's ONE_BLOCK_MAX taps
    fine, coarse = power_tables(alpha, ONE_BLOCK_MAX)
    assert (coarse.shape[1] - 1, fine.shape[1] - 1) == (16, 64)
    # kernel_bank reads no more taps than its tables hold
    for length in (0, STATE_BLOCK + 1):
        with pytest.raises(ContractError, match=f"length {length} is not in 1..{STATE_BLOCK}"):
            kernel_bank(np.ones((1, 1)), power_tables(alpha, STATE_BLOCK), length)


@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
@pytest.mark.parametrize("a_re", [-0.5, -1e-4])
@pytest.mark.parametrize("length", [1, 2, 3, 17, STATE_BLOCK, 4096, 65536])
def test_power_tables_match_repeated_multiplication(length, a_re, rule):
    # Poles -1/2 + i pi k and the -1e-4 clamp at dt = 1e-3, where |a_bar| is
    # close to 1, for coarse tables of up to 1025 rows (L = 65536).  Doubling
    # a^(m+i) = a^i a^m doubles the rounding of a^2 at every level, so the
    # relative error of a table of `count` rows grows to about count/2 unit
    # roundoffs; the bound is count unit roundoffs (7.2e-15 at 65 rows).
    a_bar = discretize(a_re + 1j * np.pi * np.arange(64), 1e-3, rule).a_bar.reshape(2, 32)
    fine, coarse = power_tables(a_bar, length)
    for table, base in ((fine, a_bar), (coarse, fine[:, STATE_BLOCK])):
        count = table.shape[1]
        expected = np.empty_like(table)
        power = np.ones_like(base)
        for i in range(count):
            expected[:, i] = power
            power = power * base
        np.testing.assert_allclose(table, expected, rtol=count * 2.0 ** -53, atol=0)
    # a^B, which the carried states compound, is the extended-precision
    # running product rounded once: within one unit roundoff of it
    running = np.cumprod(np.repeat(a_bar[:, None].astype(np.clongdouble), STATE_BLOCK, axis=1),
                         axis=1)[:, -1]
    err = np.abs(fine[:, STATE_BLOCK].astype(np.clongdouble) - running)
    assert np.all(err <= 2.0 ** -53 * np.abs(running))


@pytest.mark.parametrize("length", [1, 2, 3, 17, 511, 512, 513, 1000, 30000])
def test_kernel_bank_is_the_adjoint_of_power_weighted_sum(length):
    # sum_l x_l K_l = Re sum_k w_k sum_l x_l a_k^l for real x, with (H, 1, n)
    # poles against (H, 2, L) weights as the ssm-conv backward calls it.
    # Both sides are bounded by sum_l |x_l| sum_k |w_k| |a_k|^l.
    rng = np.random.default_rng(41)
    a = np.concatenate([-0.5 + 1j * np.pi * np.arange(4), -1e-4 + 1j * np.pi * np.arange(4)])
    a_bar = discretize(a, rng.uniform(1e-3, 0.1, 3), "zoh").a_bar[:, None, :]
    w = (rng.standard_normal((3, 1, 8)) + 1j * rng.standard_normal((3, 1, 8))) * 2.0
    x = rng.standard_normal((3, 2, length))
    tables = power_tables(a_bar, length)
    lhs = np.sum(x * kernel_bank(w, tables, length), axis=-1)
    rhs = np.sum(w * power_weighted_sum(tables, x), axis=-1).real
    tables = power_tables(np.abs(a_bar), length)
    scale = np.sum(np.abs(x) * kernel_bank(np.abs(w), tables, length), axis=-1)
    assert lhs.shape == rhs.shape == (3, 2)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def test_model_regime_channel_matches_direct_convolution_at_l62235():
    # The longest slide length the model is run on: 125000 transform points.
    rng = np.random.default_rng(37)
    length = 62235
    assert _fft_size(length) == 125000
    a = -0.5 + 1j * np.pi * np.arange(16)
    c = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    disc = discretize(a, 0.01, "zoh")
    k = kernel_bank(2.0 * c * disc.b_bar, power_tables(disc.a_bar, length), length)
    u = rng.standard_normal(length)
    direct = direct_causal_conv(k, u)
    assert np.max(np.abs(fft_causal_conv(k, u) - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_kernel_decay_envelope():
    # |K_l| <= M rho^l with M = 2 sum_k |c_k b_bar_k| and rho = max |a_bar_k|.
    rng = np.random.default_rng(13)
    for _ in range(10):
        a, c, _, dt = random_stable_channel(rng, n_half=4, dt_range=(0.05, 0.5))
        disc = discretize(a, dt, "bilinear")
        rho = np.max(np.abs(disc.a_bar))
        assert rho < 1
        length = min(4096, int(np.ceil(np.log(1e-3) / np.log(rho))) + 1)
        k = kernel_bank(2.0 * c * disc.b_bar, power_tables(disc.a_bar, length), length)
        envelope = 2.0 * np.sum(np.abs(c * disc.b_bar))
        bound = envelope * rho ** np.arange(length)
        assert np.all(np.abs(k) <= bound * (1 + 1e-9) + 1e-300)
        assert np.isfinite(np.sum(np.abs(k)))


def test_kernel_overflow_reported():
    with pytest.raises(NumericalError, match="overflow"):
        kernel_bank([1e300 + 0j], power_tables([2.0 + 0j], 2048), 2048)


# --------------------------------------------------------------------------
# Convolution
# --------------------------------------------------------------------------

def test_impulse_response_recovers_kernel():
    rng = np.random.default_rng(3)
    a, c, _, dt = random_stable_channel(rng)
    disc = discretize(a, dt, "bilinear")
    k = kernel_bank(2.0 * c * disc.b_bar, power_tables(disc.a_bar, 16), 16)
    u = np.zeros(16)
    u[0] = 1.0
    np.testing.assert_allclose(fft_causal_conv(k, u), k, rtol=1e-12)


def test_fft_causal_conv_broadcasts_one_kernel_over_blocks():
    rng = np.random.default_rng(24)
    k = rng.standard_normal((2, 1, 16))
    u = rng.standard_normal((2, 5, 16))
    blocks = fft_causal_conv(k, u)
    assert blocks.shape == (2, 5, 16)
    for j in range(5):
        assert np.array_equal(blocks[:, j], fft_causal_conv(k[:, 0], u[:, j]))


@pytest.mark.parametrize("length", [1, STATE_BLOCK + 1, ONE_BLOCK_MAX, ONE_BLOCK_MAX + 1,
                                    ONE_BLOCK_MAX + STATE_BLOCK, ONE_BLOCK_MAX + STATE_BLOCK + 1,
                                    3 * ONE_BLOCK_MAX + 37])
@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_block_causal_conv_matches_direct_convolution(rule, length):
    # The first block's taps plus carried states give the full-kernel
    # convolution: one block of all L tokens up to ONE_BLOCK_MAX, then
    # STATE_BLOCK-token blocks, whole or with a partial last block (of one
    # token at ONE_BLOCK_MAX + STATE_BLOCK + 1).
    rng = np.random.default_rng(25)
    channels = [random_stable_channel(rng, n_half=3, dt_range=(1e-3, 0.5)) for _ in range(2)]
    a = np.array([ch[0] for ch in channels])
    c = np.array([ch[1] for ch in channels])
    disc = discretize(a, np.array([ch[3] for ch in channels]), rule)
    u = rng.standard_normal((2, length))
    w = 2.0 * c * disc.b_bar
    tables = power_tables(disc.a_bar, conv_taps(length))
    y = block_causal_conv(kernel_bank(w, tables, conv_taps(length)), tables.fine, w, u)
    full = kernel_bank(w, power_tables(disc.a_bar, length), length)
    for i in range(2):
        direct = direct_causal_conv(full[i], u[i])
        assert np.max(np.abs(y[i] - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_block_causal_conv_rejects_kernels_that_are_not_one_block():
    with pytest.raises(ContractError, match="block kernels"):
        block_causal_conv(np.zeros((1, 7)), np.full((1, STATE_BLOCK + 1, 1), 0.5 + 0j), np.ones((1, 1)),
                          np.zeros((1, 2000)))


def test_convolution_hand_case():
    # kernel [1, 1, 0, 0] with feedthrough d = 1
    y = fft_causal_conv(np.array([1.0, 1.0, 0.0, 0.0]), np.ones(4)) + 1.0 * np.ones(4)
    np.testing.assert_allclose(y, [2.0, 3.0, 3.0, 3.0], rtol=0, atol=1e-12)


def test_fft_path_equals_direct_path_at_l257():
    rng = np.random.default_rng(5)
    k = rng.standard_normal(257)
    u = rng.standard_normal(257)
    fft = fft_causal_conv(k, u)
    direct = direct_causal_conv(k, u)
    scale = 1.0 + np.max(np.abs(direct))
    assert np.max(np.abs(fft - direct)) <= 1e-6 * scale


def _brute_force_fft_size(length):
    n = 2 * length - 1
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def test_fft_size_is_the_smallest_5_smooth_length():
    assert [_fft_size(n) for n in range(1, 4097)] == [_brute_force_fft_size(n) for n in range(1, 4097)]
    pinned = {188: 375, 203: 405, 8192: 16384, 30000: 60000, 33000: 67500, 62235: 125000}
    assert {n: _fft_size(n) for n in pinned} == pinned


# 188 and 203 take odd transform lengths (375, 405); 204 is just past the
# step at 405 (432), and 4097 just past the one at 8192 (8640).
@pytest.mark.parametrize("length", [1, 2, 3, 127, 128, 129, 188, 203, 204, 1000, 4097])
def test_fft_path_edge_lengths(length):
    rng = np.random.default_rng(length)
    k = rng.standard_normal(length)
    u = rng.standard_normal(length)
    fft = fft_causal_conv(k, u)
    direct = direct_causal_conv(k, u)
    np.testing.assert_allclose(fft, direct, rtol=1e-9, atol=1e-9)


def test_convolution_linearity():
    rng = np.random.default_rng(9)
    k = rng.standard_normal(64)
    u, v = rng.standard_normal(64), rng.standard_normal(64)
    alpha, beta = 1.7, -0.3

    def conv(x, d=0.5):
        return fft_causal_conv(k, x) + d * x

    lhs = conv(alpha * u + beta * v)
    rhs = alpha * conv(u) + beta * conv(v)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_convolution_length_mismatch():
    with pytest.raises(ContractError, match="length"):
        fft_causal_conv(np.zeros(4), np.zeros(5))


def test_correlation_is_conv_adjoint():
    # <conv(K, u), g> == <K, corr(g, u)> makes corr the exact transpose.
    rng = np.random.default_rng(21)
    k, u, g = rng.standard_normal(33), rng.standard_normal(33), rng.standard_normal(33)
    lhs = np.dot(fft_causal_conv(k, u), g)
    rhs = np.dot(k, fft_causal_corr(g, u))
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("length", [1, 2, 3, 63, 64, 65, 188, 203, 204, 4097])
def test_correlation_matches_direct_sum(length):
    # corr[l] = sum_{t >= l} g[t] v[t-l]; 188 to 4097 as in test_fft_path_edge_lengths.
    rng = np.random.default_rng(length)
    g = rng.standard_normal((2, length))
    v = rng.standard_normal((3, 2, length))
    direct = np.empty_like(v)
    for row in np.ndindex(v.shape[:-1]):
        gr, vr = g[row[1:]], v[row]
        direct[row] = [np.dot(gr[lag:], vr[:length - lag]) for lag in range(length)]
    scale = np.sqrt(length)
    np.testing.assert_allclose(fft_causal_corr(g, v), direct, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(fft_causal_corr(g[1], v[2, 1]), direct[2, 1], rtol=0,
                               atol=1e-12 * scale)


def test_correlation_length_mismatch():
    with pytest.raises(ContractError, match="length"):
        fft_causal_corr(np.zeros(4), np.zeros(5))


def trained_regime_blocks(rule, dt, length):
    """(g, u, a_bar, w) for three channels in the trained regime: poles
    -1/2 + i pi k (k < 16) and pole real parts at the -1e-4 clamp, set
    there or clamped from above; g and u are random (3, length) rows."""
    from s4mil.autograd import POLE_REAL_CEILING, ssm_parameters

    rng = np.random.default_rng(length)
    n_half = 16
    a_re = np.repeat([[-0.5], [POLE_REAL_CEILING], [0.25]], n_half, axis=1)
    h = a_re.shape[0]
    a, _, dt_op, _ = ssm_parameters(a_re, np.tile(np.pi * np.arange(n_half), (h, 1)),
                                    a_re, a_re, np.full(h, np.log(dt)))
    disc = discretize(a, dt_op, rule)
    g, u = rng.standard_normal((2, h, length))
    w = 2.0 * (rng.standard_normal((h, n_half)) + 1j * rng.standard_normal((h, n_half))) * disc.b_bar
    return g, u, disc.a_bar, w


def extended_pole_sums(corr, a_bar):
    """correlation_pole_sums(corr, power_tables(a_bar, L)) by Horner's rule
    in extended precision (np.clongdouble), rounded once: an oracle that
    forms no power table.  correlation_pole_sums errs by up to 5.5e-14 of
    the sums' scale at L=62235 in the trained regime."""
    h, length = corr.shape
    terms = np.zeros((h, 2, length), dtype=np.longdouble)
    terms[:, 0] = corr
    terms[:, 1, :-1] = corr[:, 1:] * np.arange(1, length, dtype=np.longdouble)
    z = np.conj(a_bar).astype(np.clongdouble)[:, None, :]
    sums = np.zeros((h, 2, a_bar.shape[-1]), dtype=np.clongdouble)
    for lag in range(length - 1, -1, -1):
        sums = sums * z + terms[:, :, lag, None]
    return sums.astype(np.complex128)


def extended_kernel(w, a_bar, length):
    """kernel_bank(w, power_tables(a_bar, length), length) from a running
    product of the powers in extended precision (np.clongdouble), rounded
    once: an oracle that forms no power table.  kernel_bank errs by up to
    5.5e-14 of the kernel's scale at L=62235 in the trained regime."""
    poles, weights = a_bar.astype(np.clongdouble), w.astype(np.clongdouble)
    power = np.ones_like(poles)
    kernel = np.empty((a_bar.shape[0], length), dtype=np.longdouble)
    for lag in range(length):
        kernel[:, lag] = np.sum(weights * power, axis=-1).real
        power *= poles
    return kernel.astype(np.float64)


def block_adjoint_of(g, u, a_bar, w):
    block = conv_taps(g.shape[-1])
    tables = power_tables(a_bar, block)
    return block_adjoint(to_blocks(g, block, g.dtype), to_blocks(u, block, u.dtype),
                         kernel_bank(w, tables, block), tables, w)


# One block with no carried state (1 to ONE_BLOCK_MAX tokens), then carried
# blocks: whole ones, and a last block of one token.
BLOCK_ADJOINT_LENGTHS = [1, 17, 512, ONE_BLOCK_MAX, ONE_BLOCK_MAX + 1, ONE_BLOCK_MAX + STATE_BLOCK,
                         ONE_BLOCK_MAX + STATE_BLOCK + 1, 4 * ONE_BLOCK_MAX + 1, 30000, 62235]


@pytest.mark.parametrize("dt", [1e-3, 0.1])
@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_toeplitz_product_matches_direct_convolution_block_by_block(rule, dt):
    # The in-block convolution of the carried path: blocks times the
    # channel's Toeplitz matrix of its first STATE_BLOCK taps, for channels
    # in the trained regime.  Each block is held to its channel's scale.
    _, u, a_bar, w = trained_regime_blocks(rule, dt, 5 * STATE_BLOCK)
    taps = kernel_bank(w, power_tables(a_bar, STATE_BLOCK), STATE_BLOCK)
    blocks = u.reshape(3, 5, STATE_BLOCK)
    got = np.matmul(blocks, _toeplitz(taps))
    expected = np.array([[direct_causal_conv(taps[i], blocks[i, j]) for j in range(5)]
                         for i in range(3)])
    scale = np.max(np.abs(expected), axis=(1, 2))
    err = np.max(np.abs(got - expected), axis=(1, 2)) / scale
    assert np.all(err <= 1e-12), f"per-channel error over the channel's scale {err}"


@pytest.mark.parametrize("count", [1, 7])
@pytest.mark.parametrize("dt", [1e-3, 0.1])
@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_lag_sums_match_the_in_block_correlations(rule, dt, count):
    # The diagonal sums of sum_j u_j^T g_j: for one block the first
    # STATE_BLOCK lags of the full correlation, and for several the sum of
    # each block's own correlation.  g is the ssm-conv output of channels in
    # the trained regime, so the lags carry the channels' scales.
    g, u, a_bar, w = trained_regime_blocks(rule, dt, count * STATE_BLOCK)
    tables = power_tables(a_bar, conv_taps(g.shape[1]))
    g = block_causal_conv(kernel_bank(w, tables, conv_taps(g.shape[1])), tables.fine, w, g)
    blocks_g, blocks_u = (x.reshape(3, count, STATE_BLOCK) for x in (g, u))
    got = _lag_sums(blocks_g, blocks_u)
    if count == 1:
        expected = fft_causal_corr(g, u)[:, :STATE_BLOCK]
    else:
        expected = fft_causal_corr(blocks_g, blocks_u).sum(axis=1)
    assert got.shape == expected.shape == (3, STATE_BLOCK)
    scale = np.max(np.abs(expected), axis=-1)
    err = np.max(np.abs(got - expected), axis=-1) / scale
    assert np.all(err <= 1e-12), f"per-channel error over the channel's scale {err}"


@pytest.mark.parametrize("length", BLOCK_ADJOINT_LENGTHS)
@pytest.mark.parametrize("dt", [1e-3, 0.1])
@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_block_pole_sums_match_the_full_length_correlation(rule, dt, length):
    # The ssm-conv backward's two pole sums from blocks (one block's spectra,
    # or in-block products plus carried states) against the full-length
    # correlation weighted by every power, for channels in the trained
    # regime.  Each sum of each channel is held to its own scale.
    g, u, a_bar, w = trained_regime_blocks(rule, dt, length)
    expected = extended_pole_sums(fft_causal_corr(g, u), a_bar)
    got = block_adjoint_of(g, u, a_bar, w)[1]
    assert got.shape == expected.shape == (3, 2, 16)
    # a one-token bag has no lag 1, so its second sum is zero on both sides
    scale = np.max(np.abs(expected), axis=-1)
    err = np.max(np.abs(got - expected), axis=-1)
    assert np.all(err <= 1e-12 * scale), f"per-channel error over the channel's scale {err / scale}"


def test_one_block_adjoint_transforms_float32_blocks_in_float64():
    # numpy transforms float32 in complex64, so one block's adjoint casts its
    # blocks first: float32 blocks give what their float64 values give.
    g, u, a_bar, w = trained_regime_blocks("bilinear", 0.1, 300)
    g, u = g.astype(np.float32), u.astype(np.float32)
    single = block_adjoint_of(g, u, a_bar, w)
    double = block_adjoint_of(g.astype(np.float64), u.astype(np.float64), a_bar, w)
    for got, expected in zip(single, double):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("length", BLOCK_ADJOINT_LENGTHS)
@pytest.mark.parametrize("dt", [1e-3, 0.1])
@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_block_adjoint_input_gradient_matches_the_full_length_correlation(rule, dt, length):
    # The ssm-conv backward's input gradient sum_l K_l g[t + l] from blocks
    # (one block's spectra, or in-block products plus the upstream's carried
    # block sums) against the full-length correlation of g with the whole
    # kernel, for channels in the trained regime.  Each channel is held to
    # its own scale; the padded tail of the last block is left out.
    g, u, a_bar, w = trained_regime_blocks(rule, dt, length)
    expected = fft_causal_corr(g, extended_kernel(w, a_bar, length))
    grad_in = block_adjoint_of(g, u, a_bar, w)[0]
    block = conv_taps(length)
    assert grad_in.shape == (3, -(-length // block), block)
    got = grad_in.reshape(3, -1)[:, :length]
    scale = np.max(np.abs(expected), axis=-1)
    err = np.max(np.abs(got - expected), axis=-1) / scale
    assert np.all(err <= 1e-12), f"per-channel error over the channel's scale {err}"


# --------------------------------------------------------------------------
# Recurrence and duality
# --------------------------------------------------------------------------

def test_recurrence_hand_unrolled():
    # c = 1/2 cancels the conjugate-pair doubling, leaving a scalar system.
    y = run_recurrence([0.5 + 0j], [1.0 + 0j], [0.5 + 0j], d=0.0, u=[1.0, 1.0])
    np.testing.assert_allclose(y, [1.0, 1.5], rtol=0, atol=0)


def test_recurrence_zero_input():
    rng = np.random.default_rng(2)
    a, c, d, dt = random_stable_channel(rng)
    disc = discretize(a, dt, "zoh")
    y = run_recurrence(disc.a_bar, disc.b_bar, c, d, np.zeros(32))
    assert np.all(y == 0.0)


@pytest.mark.parametrize("rule", ["bilinear", "zoh"])
def test_recurrence_convolution_duality(rule):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(25):
        n_half = int(rng.integers(1, 9))
        length = int(rng.integers(1, 513))
        a, c, d, dt = random_stable_channel(rng, n_half=n_half)
        disc = discretize(a, dt, rule)
        k = kernel_bank(2.0 * c * disc.b_bar, power_tables(disc.a_bar, length), length)
        y_conv = fft_causal_conv(k, u := rng.standard_normal(length)) + d * u
        y_rec = run_recurrence(disc.a_bar, disc.b_bar, c, d, u)
        err = np.max(np.abs(y_conv - y_rec)) / (1.0 + np.max(np.abs(y_rec)))
        worst = max(worst, err)
    assert worst <= 1e-6


def test_kernel_bank_over_stacked_channels_matches_each_channel_bitwise():
    # kernel_bank over stacked channels must equal the per-channel loop bitwise.
    rng = np.random.default_rng(23)
    h, n_half, length = 6, 3, 40
    a_bar = rng.uniform(0.1, 0.9, (h, n_half)) * np.exp(1j * rng.uniform(0, np.pi, (h, n_half)))
    b_bar = rng.standard_normal((h, n_half)) + 1j * rng.standard_normal((h, n_half))
    c = rng.standard_normal((h, n_half)) + 1j * rng.standard_normal((h, n_half))
    w = 2.0 * c * b_bar
    stacked = kernel_bank(w, power_tables(a_bar, length), length)
    for i in range(h):
        row = kernel_bank(w[i], power_tables(a_bar[i], length), length)
        assert np.array_equal(stacked[i], row)
