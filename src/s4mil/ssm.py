"""Diagonal state space mathematics on stacked channels.

A channel is a single-input single-output linear system with a diagonal
(complex) state matrix.  Continuous poles ``a`` and timesteps ``dt`` are
discretized to (a_bar, b_bar) by either the bilinear map or zero-order hold
(``discretize``, the only place these rules live), after which a channel can
be evaluated two ways:

  * recurrence:   x_t = a_bar * x_{t-1} + b_bar * u_t,
                  y_t = 2 Re(c . x_t) + d u_t
  * convolution:  y = K * u + d u   with   K_l = 2 Re(sum_k c_k a_bar_k^l b_bar_k)

The two views must agree to near machine precision; the recurrence is the
slow oracle-grade path, the convolution the fast one.  The convolution cuts
its input into blocks of conv_taps(L) tokens (block_causal_conv): all L
tokens for an input of at most two blocks (2 * STATE_BLOCK tokens), and
STATE_BLOCK tokens past that.  In-block FFTs apply the kernel's first block
of taps, and the n_half complex states, stepped once per block, carry every
earlier block into the next (the block decomposition of Mamba-2/SSD, with a
block that adapts to the input, and the state recurrence of S5), so no kernel
longer than a block is built; an input of one block carries nothing.  The
backward is one pass over the same blocks (block_adjoint): one spectrum of
each block of the upstream serves both the in-block input gradient and the
in-block correlations with the input, which the pole powers weight
(correlation_pole_sums), and the upstream's block sums, carried back across
blocks, add the rest of the input gradient and, with the forward's carried
states, the rest of the pole sums, so no correlation longer than a block
is formed.  fft_causal_corr and direct_causal_conv stay as the oracles'
references.

Poles come in conjugate pairs; only one member of each pair is stored and
outputs take twice the real part.

Every power of a_bar comes from one two-level table (_power_tables), built
by doubling in 64-bit complex arithmetic whatever the model's precision:
a_bar^(iT+s) = a_bar^(iT) a_bar^s with T^2 >= L, so each level holds
O(sqrt(L)) rows.  The kernel (the Vandermonde product of S4D), its adjoint
power_weighted_sum, the block carry and read-out and the block adjoint
contract the two levels in real matrix products against the tables'
float64 view, since only real parts are needed.  No (n_half, L) power
table is ever materialized.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ContractError, NumericalError

PIVOT_EPS = 1e-12  # |1 - dt*a/2| below this is a degenerate bilinear pivot
ZERO_POLE_EPS = 1e-12  # |a| below this uses the ZOH series limit b_bar = dt
STATE_BLOCK = 512  # tokens per block of an input longer than two blocks (conv_taps)
ZOH_SERIES_RADIUS = 0.1  # |dt*a| below this takes ZOH db_bar/da from its Taylor series
# Taylor coefficients of (z e^z - expm1(z)) / z^2 = sum_k (k+1) z^k / (k+2)!;
# ten terms leave a truncation error below 1e-17 for |z| < ZOH_SERIES_RADIUS.
_ZOH_SERIES = [(k + 1) / math.factorial(k + 2) for k in range(10)]


# --------------------------------------------------------------------------
# Discretization
# --------------------------------------------------------------------------

class Discretization(NamedTuple):
    """Discrete coefficients per pole and their derivatives in a and dt."""

    a_bar: np.ndarray
    b_bar: np.ndarray
    da_bar_da: np.ndarray
    da_bar_ddt: np.ndarray
    db_bar_da: np.ndarray
    db_bar_ddt: np.ndarray


def discretize(a, dt, rule: str) -> Discretization:
    """Discretize stacked poles ``a`` (..., n) with timesteps ``dt`` (...).

    bilinear:  a_bar = (1 + dt*a/2) / (1 - dt*a/2),  b_bar = dt / (1 - dt*a/2)
    zoh:       a_bar = exp(dt*a),  b_bar = expm1(dt*a) / a, with the limit
               b_bar = dt for |a| < ZERO_POLE_EPS; db_bar/da takes its Taylor
               series in dt*a for |dt*a| < ZOH_SERIES_RADIUS, where the closed
               form (dt*a_bar - b_bar)/a cancels
    The input vector is fixed to ones.  Every returned array has the
    broadcast shape of ``a`` and ``dt[..., None]``.
    """
    a = np.asarray(a, dtype=np.complex128)
    dt_col = np.asarray(dt, dtype=np.float64)[..., None]
    if rule == "bilinear":
        half = 0.5 * dt_col * a
        den = 1.0 - half
        bad = np.abs(den) < PIVOT_EPS
        if np.any(bad):
            *channel, pole = (int(i[0]) for i in np.nonzero(bad))
            where = f"channel {', '.join(map(str, channel))}, " if channel else ""
            raise NumericalError(
                f"degenerate bilinear pivot |1 - dt*a/2| < {PIVOT_EPS} at {where}pole index {pole}"
            )
        den2 = den * den
        return Discretization(
            a_bar=(1.0 + half) / den,
            b_bar=dt_col / den,
            da_bar_da=dt_col / den2,
            da_bar_ddt=a / den2,
            db_bar_da=dt_col * dt_col / (2.0 * den2),
            db_bar_ddt=1.0 / den2,
        )
    if rule == "zoh":
        z = dt_col * a
        a_bar = np.exp(z)
        tiny = np.abs(a) < ZERO_POLE_EPS
        safe = np.where(tiny, 1.0, a)
        b_bar = np.where(tiny, dt_col + 0j, np.expm1(z) / safe)
        series = np.zeros_like(z)
        for coefficient in reversed(_ZOH_SERIES):
            series = series * z + coefficient
        return Discretization(
            a_bar=a_bar,
            b_bar=b_bar,
            da_bar_da=dt_col * a_bar,
            da_bar_ddt=a * a_bar,
            db_bar_da=np.where(np.abs(z) < ZOH_SERIES_RADIUS, dt_col * dt_col * series,
                               (dt_col * a_bar - b_bar) / safe),
            db_bar_ddt=a_bar,
        )
    raise ContractError(f"unknown discretization rule {rule!r} (expected 'bilinear' or 'zoh')")


# --------------------------------------------------------------------------
# Kernel generation (two-level power tables, 64-bit)
# --------------------------------------------------------------------------

def _power_tables(alpha: np.ndarray, length: int):
    """(fine, coarse, q, T): fine (..., T + 1, n) = alpha^s for s <= T and
    coarse (..., q + 1, n) = alpha^(iT) for i <= q, for alpha (..., n).

    T is the smallest power of two with T^2 >= length, q = ceil(length / T)
    (q T = STATE_BLOCK at length = STATE_BLOCK).  Doubling fills each table
    a whole (..., n) plane at a time, alpha^(m + i) = alpha^i alpha^m, so
    the memory is power-major; the tables returned are channel-first views.
    """
    t = 1 << ((length - 1).bit_length() + 1) // 2
    q = -(-length // t)
    alpha = np.asarray(alpha, dtype=np.complex128)
    fine = np.empty((t + 1,) + alpha.shape, dtype=np.complex128)
    coarse = np.empty((q + 1,) + alpha.shape, dtype=np.complex128)
    # fine[t] is a view, read once the fine table is filled
    for table, base in ((fine, alpha), (coarse, fine[t])):
        table[0] = 1.0
        table[1] = base
        m, last = 1, len(table) - 1
        while m < last:
            step = min(m, last - m)
            np.multiply(table[1:step + 1], table[m], out=table[m + 1:m + step + 1])
            m += step
    return np.moveaxis(fine, 0, -2), np.moveaxis(coarse, 0, -2), q, t


def power_weighted_sum(alpha: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_l weights[..., l] * alpha[..., k]^l, the adjoint of kernel_bank.

    Shapes: alpha (..., n) and real weights (..., L), whose leading axes
    broadcast -> (..., n), complex128.  With l = iT + s (_power_tables), the
    real product of the weights' (q, T) blocks (a view; a last partial block
    has its own product) with the fine powers' float64 view (T, 2n), read as
    complex, is the (q, n) sum over s, which the coarse powers then weight.
    """
    length = weights.shape[-1]
    fine, coarse, q, t = _power_tables(alpha, length)
    # copied: one channel's rows lie a plane apart in the power-major table,
    # and the product read them 3.5x slower in place (H=512, n=16, L=30000)
    rows = np.ascontiguousarray(fine[..., :t, :]).view(np.float64)
    whole = length // t
    inner = np.empty(np.broadcast_shapes(weights.shape[:-1], rows.shape[:-2]) + (q, rows.shape[-1]))
    np.matmul(weights[..., :whole * t].reshape(weights.shape[:-1] + (whole, t)),
              rows, out=inner[..., :whole, :])
    if whole < q:
        np.matmul(weights[..., None, whole * t:], rows[..., :length - whole * t, :],
                  out=inner[..., whole:, :])
    sums = inner.view(np.complex128)  # (..., q, n)
    sums *= coarse[..., :q, :]
    return sums.sum(axis=-2)


def correlation_pole_sums(corr: np.ndarray, a_bar: np.ndarray) -> np.ndarray:
    """[sum_l corr_l conj(a_bar)^l, sum_l (l + 1) corr_{l+1} conj(a_bar)^l], (h, 2, n).

    For the kernel gradient corr (h, L), these are the adjoints of w and of
    a_bar in K_l = Re(sum_k w_k a_bar_k^l).  One power_weighted_sum call
    weights corr and its index-weighted shift.
    """
    h, length = corr.shape
    weights = np.empty((h, 2, length))
    weights[:, 0] = corr
    np.multiply(corr[:, 1:], np.arange(1, length), out=weights[:, 1, :-1])
    weights[:, 1, -1] = 0.0
    return power_weighted_sum(np.conj(a_bar)[:, None, :], weights)


def kernel_bank(w: np.ndarray, a_bar: np.ndarray, length: int) -> np.ndarray:
    """K_l = Re(sum_k w_k a_bar_k^l), (..., n) -> (..., length): the adjoint of
    power_weighted_sum, and a channel's kernel at w = 2 c b_bar.

    With l = iT + s (_power_tables), K[i, s] is one real product of float64
    views: conj(w a_bar^(iT)) (q, 2n) against a_bar^s (2n, T).
    """
    if length < 1:
        raise ContractError(f"length must be >= 1, got {length}")
    with np.errstate(over="ignore", invalid="ignore"):
        fine, coarse, q, t = _power_tables(a_bar, length)
        left = np.conj(np.asarray(w, dtype=np.complex128)[..., None, :] * coarse[..., :q, :])
        k = np.matmul(left.view(np.float64), fine[..., :t, :].view(np.float64).swapaxes(-1, -2))
    k = k.reshape(k.shape[:-2] + (q * t,))[..., :length]
    if not np.all(np.isfinite(k)):
        raise NumericalError("kernel overflow: non-finite values in the materialized kernel")
    return k


# --------------------------------------------------------------------------
# Convolution
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=4096)
def _fft_size(length: int) -> int:
    """Smallest 5-smooth n = 2^a 3^b 5^c >= 2 length - 1.

    That many points make a circular convolution or correlation of two
    length-L signals linear on the first L samples.  pocketfft is fast at
    5-smooth sizes (7-smooth ones measured slower), which pad far less than
    powers of two: L = 33000 takes 67500 points instead of 131072.
    """
    target = max(1, 2 * length - 1)
    best = 1 << (target - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            n = odd
            while n < target:
                n *= 2
            best = min(best, n)
            odd *= 3
        fives *= 5
    return best


def fft_causal_conv(kernels: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Causal convolution of stacked kernels (..., L) with inputs (..., L).

    The kernels' leading axes broadcast against the inputs', so one kernel
    spectrum serves every block of a (h, 1, B) kernel against (h, blocks, B)
    inputs.  Zero-padded to _fft_size(L) >= 2L - 1 points, so the circular
    product is linear on the first L samples.  Runs in float64.
    """
    length = u.shape[-1]
    if kernels.shape[-1] != length:
        raise ContractError(
            f"kernel length {kernels.shape[-1]} does not match input length {length}"
        )
    n = _fft_size(length)
    kf = np.fft.rfft(np.asarray(kernels, dtype=np.float64), n)
    uf = np.fft.rfft(np.asarray(u, dtype=np.float64), n)
    np.multiply(kf, uf, out=uf)
    del kf  # so the inverse transform can reuse its memory
    return np.fft.irfft(uf, n)[..., :length]


def conv_taps(length: int) -> int:
    """Block length of the convolution of a length-L input, and so the
    kernel taps it reads.

    An input of at most two blocks (2 * STATE_BLOCK tokens) is one block of
    all L tokens: one full-length FFT with no carried state.  A longer one
    is cut into blocks of STATE_BLOCK tokens that carry states from block to
    block (block_causal_conv) and reads the first block's taps only.  The
    threshold follows a sweep of the grad-free float32 ssm-conv forward,
    512-token blocks against one full-length block (1 BLAS thread, median of
    alternating pairs): at H=512, N=32 the blocks win 1.14x at L=1025, 1.6x
    at 2049, 1.8x at 8192 and 2.5-2.7x at 30000-62235; at H=32, N=8 they
    read 0.94-0.98x at L=1025, where even identical code spreads +-5%, then
    win 1.3x at 2049 and 1.5x at 4096.  Forced onto shorter inputs, the
    blocks lose at L=513 (0.78x and 0.71x) and 800 (0.85x and 0.89x) and win
    at 1024 (1.37x and 1.11x), so the crossover sits near two blocks.  The
    backward (block_adjoint) takes the same blocks.  A sweep of its pole sums
    from float32 channel-major inputs, 512-token blocks against the
    full-length correlation and weighting (1 BLAS thread, median of 7
    alternating pairs, 3 at L >= 30000): at H=512, N=32 the blocks win 1.14x
    at L=1025, 1.5x at 2049, 1.8-1.9x at 4096-8192 and 2.1x at 30000-62235;
    at H=32, N=8 they read 0.97x at L=1025, then win 1.4-1.5x at 2049-8192.
    """
    return length if length <= 2 * STATE_BLOCK else STATE_BLOCK


def to_blocks(x: np.ndarray, block: int) -> np.ndarray:
    """Rows x (h, L) as a new float64 (h, blocks, block) array, zero-padded
    to whole blocks; a length that fills its blocks is only cast."""
    h, length = x.shape
    count = -(-length // block)
    if count * block == length:
        return x.astype(np.float64, order="C").reshape(h, count, block)
    blocks = np.zeros((h, count, block))
    blocks.reshape(h, -1)[:, :length] = x
    return blocks


def _block_power_sums(blocks: np.ndarray, powers: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """sum_r blocks[..., r] p_r over each block's r = iT + s, with
    p_(iT+s) = scales_i powers_s: (h, ..., qT) float64 -> (h, ..., n) complex.

    powers (h, T, 2n) is the float64 view of T fine powers and scales
    (h, q, n) holds coarse powers (_power_tables); the sum over s is one
    real matrix product, whose (..., q, n) partial sums the scales weight.
    """
    h, q, n = scales.shape
    t = powers.shape[1]
    part = np.matmul(blocks.reshape(h, -1, t), np.ascontiguousarray(powers))
    part = part.view(np.complex128).reshape(blocks.shape[:-1] + (q, n))
    part *= scales.reshape((h,) + (1,) * (blocks.ndim - 2) + (q, n))
    return part.sum(axis=-2)


def _carried_readout(w: np.ndarray, coarse: np.ndarray, fine_rows: np.ndarray,
                     states: np.ndarray, out: np.ndarray) -> None:
    """out[:, j, iT + s] = Re(sum_k w_k coarse_ik fine_sk states_jk), float64.

    The read-out of carried states into the tokens of a block: states
    (h, blocks, n), w (h, n), coarse (h, q, n) the powers that reach row i
    of a block's (q, T) tokens and fine_rows (h, T, 2n) the float64 view of
    those that reach column s (_power_tables); out is (h, blocks, qT).  The
    sum over k is one real product of the conjugate's float64 view with
    fine_rows, as Re(x p) = Re(x) Re(p) - Im(x) Im(p).
    """
    h, count, n = states.shape
    q, t = coarse.shape[1], fine_rows.shape[1]
    reach = np.conj(w[:, None, :] * coarse)[:, None] * np.conj(states)[:, :, None]
    np.matmul(reach.view(np.float64).reshape(h, count * q, 2 * n), fine_rows.swapaxes(1, 2),
              out=out.reshape(h, count * q, t, copy=False))


def block_causal_conv(kernels: np.ndarray, a_bar: np.ndarray, w: np.ndarray,
                      u: np.ndarray) -> np.ndarray:
    """Causal convolution of u (h, L) by the channels' full kernels, in blocks.

    ``kernels`` (h, B) holds the first B = conv_taps(L) taps of
    K_l = Re(sum_k w_k a_bar_k^l), with a_bar and w of shape (h, n).  u is
    zero-padded to whole blocks.  Inside a block, fft_causal_conv applies
    the B taps, with one kernel spectrum for every block; an input of at
    most two STATE_BLOCKs is one block, and that is the whole convolution.
    Across blocks the n complex states carry the past: block j's inputs sum
    to Z_j = sum_r u[jB+r] a_bar^(B-1-r), the states step as
    X_j = a_bar^B X_{j-1} + Z_j, and token r of block j gains
    Re(sum_k w_k a_bar_k^(r+1) X_{j-1,k}) (_carried_readout).

    Powers come from _power_tables(a_bar, B), a_bar^(iT+s) = a_bar^(iT) a_bar^s
    with q T = B, so no (B, n) table is built.  Both contractions over s
    are real matrix products with the float64 view of the T + 1 fine powers
    (_block_power_sums for Z); the coarse powers scale the (blocks, q, n)
    partial sums.  Runs in float64; returns (h, L).
    """
    h, length = u.shape
    block = conv_taps(length)
    if kernels.shape != (h, block):
        raise ContractError(f"block kernels must be ({h}, {block}), got {kernels.shape}")
    padded = to_blocks(u, block)
    count = padded.shape[1]
    inner = fft_causal_conv(kernels[:, None, :], padded)
    if count == 1:
        return inner[:, 0]
    fine, coarse, q, t = _power_tables(a_bar, block)  # (h, T + 1, n), (h, q + 1, n)
    fine_rows = fine.view(np.float64)  # (h, T + 1, 2n): [Re, Im] pairs
    # Z_j for every block but the last: a^(B-1-r) = a^((q-1-i)T) a^(T-1-s)
    states = _block_power_sums(padded[:, :-1], fine_rows[:, t - 1::-1], coarse[:, q - 1::-1])
    step = coarse[:, q]
    for j in range(1, count - 1):
        states[:, j] += step * states[:, j - 1]
    # token iT+s of block j+1 gains Re(sum_k w_k a^(iT) a^(s+1) X_j); the
    # inputs are no longer read, so the carried part goes into their buffer
    _carried_readout(w, coarse[:, :q], fine_rows[:, 1:], states, padded[:, 1:])
    padded[:, 1:] += inner[:, 1:]
    padded[:, 0] = inner[:, 0]
    return padded.reshape(h, -1)[:, :length]


def block_adjoint(g: np.ndarray, u: np.ndarray, kernels: np.ndarray, a_bar: np.ndarray,
                  w: np.ndarray):
    """The adjoints of block_causal_conv in its input and in its poles, from
    the blocks of the upstream g and of the input u, (h, blocks, B) float64
    (to_blocks with B = conv_taps(L)), with kernels, a_bar and w as
    block_causal_conv takes them.  Returns (grad_in, sums):

      * grad_in (h, blocks, B): sum_l K_l g[t + l] at every token t of the
        blocks, the correlation fft_causal_corr(g, K) with the full kernel;
      * sums (h, 2, n): correlation_pole_sums(fft_causal_corr(g, u), a_bar),
        the adjoints of w and a_bar.

    Each of g, u and the kernels is transformed once.  With G, U and K the
    block spectra (_fft_size(B) points, so nothing wraps):
      * in-block input gradient: irfft(G conj(K))[:B] is the correlation of
        each block of g with the B taps;
      * in-block pole sums: the correlation irfft(sum_j G_j conj(U_j))[:B],
        summed over blocks on the spectra, so each channel makes one
        inverse transform; correlation_pole_sums weights the B lags.
    One block (an input of at most two STATE_BLOCKs) has nothing more.
    Across blocks, with a = a_bar, E_j = sum_r g[jB+r] a^r and
    E'_j = sum_r (r+1) g[jB+r] a^r:
      * input gradient: F_i = sum_(j>i) a^((j-i-1)B) E_j steps back as
        F_i = a^B F_(i+1) + E_(i+1), and token r of block i gains
        Re(sum_k w_k a_k^(B-r) F_(i,k)) (_carried_readout);
      * pole sums: g and u are real, so with x_t = a x_(t-1) + u_t and
        P = sum_t g_t x_t the two sums are conj(P) and conj(dP/da).  P gains
        a (sum_j E_j X_(j-1)) and dP/da gains sum_j (E'_j X_(j-1) +
        E_j Y_(j-1)).  X_j are the forward's carried states
        (block_causal_conv), X_j = a^B X_(j-1) + Z_j with
        Z_j = sum_r u[jB+r] a^(B-1-r), and Y_j = a dX_j/da steps as
        Y_j = a^B (B X_(j-1) + Y_(j-1)) + W_j with
        W_j = sum_r (B-1-r) u[jB+r] a^(B-1-r), so no power is divided by a.
    E and E' (Z and W) come from one _block_power_sums of the stacked
    blocks [g, (r+1) g] ([u, (B-1-r) u]), as Z does in block_causal_conv.
    """
    h, count, block = g.shape
    n_fft = _fft_size(block)
    g_spectra = np.fft.rfft(g, n_fft)
    spectra = np.fft.rfft(u, n_fft)
    np.conjugate(spectra, out=spectra)
    spectra *= g_spectra
    corr = np.fft.irfft(spectra.sum(axis=1), n_fft)[:, :block]
    del spectra  # so the transforms below can reuse its memory
    kernel_spectra = np.fft.rfft(kernels, n_fft)
    np.conjugate(kernel_spectra, out=kernel_spectra)
    g_spectra *= kernel_spectra[:, None]
    del kernel_spectra
    inner = np.fft.irfft(g_spectra, n_fft)[..., :block]
    del g_spectra
    # weighted once the spectra are freed: a smaller live set leaves the
    # allocator less heap to trim and fault back in on the next bag
    sums = correlation_pole_sums(corr, a_bar)
    del corr
    if count == 1:
        return inner, sums

    fine, coarse, q, t = _power_tables(a_bar, block)  # (h, T + 1, n), (h, q + 1, n)
    fine_rows = fine.view(np.float64)  # (h, T + 1, 2n): [Re, Im] pairs
    ramp = np.arange(1.0, block + 1)
    stacked = np.empty((h, 2, count - 1, block))

    def weighted(blocks, weight):
        stacked[:, 0] = blocks
        np.multiply(blocks, weight, out=stacked[:, 1])
        return stacked

    # [E_j, E'_j] for every block but the first: a^r = a^(iT) a^s
    later = _block_power_sums(weighted(g[:, 1:], ramp), fine_rows[:, :t], coarse[:, :q])
    # [Z_j, W_j] for every block but the last: a^(B-1-r) = a^((q-1-i)T) a^(T-1-s)
    earlier = _block_power_sums(weighted(u[:, :-1], ramp[::-1] - 1.0),
                                fine_rows[:, t - 1::-1], coarse[:, q - 1::-1])
    states, slopes = earlier[:, 0], earlier[:, 1]  # becoming X_j and Y_j
    step = coarse[:, q]
    for j in range(1, count - 1):
        slopes[:, j] += step * (block * states[:, j - 1] + slopes[:, j - 1])
        states[:, j] += step * states[:, j - 1]
    sums[:, 0] += np.conj(a_bar * np.einsum("hjn,hjn->hn", later[:, 0], states))
    sums[:, 1] += np.conj(np.einsum("hjn,hjn->hn", later[:, 1], states)
                          + np.einsum("hjn,hjn->hn", later[:, 0], slopes))

    ahead = later[:, 0].copy()  # becoming F_i, for every block but the last
    for i in range(count - 3, -1, -1):
        ahead[:, i] += step * ahead[:, i + 1]
    grad_in = np.empty_like(g)
    # token iT+s of block i gains Re(sum_k w_k a^((q-1-i)T) a^(T-s) F_i); the
    # reversed fine rows are copied, as a matrix product reads them in order
    _carried_readout(w, coarse[:, q - 1::-1], np.ascontiguousarray(fine_rows[:, t:0:-1]),
                     ahead, grad_in[:, :-1])
    grad_in[:, :-1] += inner[:, :-1]
    grad_in[:, -1] = inner[:, -1]
    return grad_in, sums


def fft_causal_corr(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Causal cross-correlation corr[l] = sum_{t >= l} g[t] * v[t-l], the
    oracles' reference for block_adjoint; the model does not call it.

    This is the adjoint of fft_causal_conv in its kernel argument.  Shapes:
    g (..., L) and v (k, ..., L) or (..., L); g broadcasts against the
    leading axis of a stacked v, so one transform of g serves every row of
    v.  The result is irfft(G * conj(V))[..., :L]: with n = _fft_size(L) >=
    2L - 1 points the negative lags wrap around into indices >= L, so no
    flip is needed.  Runs in float64.
    """
    length = g.shape[-1]
    if v.shape[-1] != length:
        raise ContractError(f"correlation length {v.shape[-1]} does not match upstream length {length}")
    n = _fft_size(length)
    gf = np.fft.rfft(np.asarray(g, dtype=np.float64), n)
    vf = np.fft.rfft(np.asarray(v, dtype=np.float64), n)
    np.conjugate(vf, out=vf)
    vf *= gf
    return np.fft.irfft(vf, n)[..., :length]


def direct_causal_conv(kernel: np.ndarray, u: np.ndarray) -> np.ndarray:
    """O(L^2) reference convolution used as the oracle for the FFT path."""
    kernel = np.asarray(kernel, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    return np.convolve(u, kernel)[: u.shape[0]]


# --------------------------------------------------------------------------
# Recurrence (oracle-grade path)
# --------------------------------------------------------------------------

def run_recurrence(a_bar, b_bar, c, d: float, u) -> np.ndarray:
    """Step one channel's recurrence from x_0 = 0; the reference for the convolution.

    ``a_bar``, ``b_bar`` and ``c`` hold the channel's n poles; ``u`` is its
    length-L input.
    """
    a_bar, b_bar, c = (np.asarray(v, dtype=np.complex128) for v in (a_bar, b_bar, c))
    u = np.asarray(u, dtype=np.float64)
    x = np.zeros_like(a_bar)
    y = np.empty(u.shape[0], dtype=np.float64)
    for t in range(u.shape[0]):
        x = a_bar * x + b_bar * u[t]
        y[t] = 2.0 * np.dot(c, x).real + d * u[t]
    return y
