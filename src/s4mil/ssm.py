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
tokens for an input of at most ONE_BLOCK_MAX tokens, and STATE_BLOCK tokens
past that.  One block is one FFT convolution by the kernel's L taps and
carries nothing.  Past that, each block's convolution by the kernel's first
STATE_BLOCK taps is one real product with the channel's Toeplitz matrix,
and the n_half complex states, stepped once per block, carry every earlier
block into the next (the chunked form of Mamba-2/SSD, with the state
recurrence of S5), so no kernel longer than a block is built and no
transform is made.  The backward is one pass over the same blocks
(block_adjoint).  One block is one fft_causal_corr, the adjoint of
fft_causal_conv, which gives the input gradient and the correlation
together; these two are the only functions that transform.  Past one block
the transposed Toeplitz matrices give the in-block input gradient, and the
diagonal sums of one product of the input's and the upstream's blocks give
the in-block correlations, which correlation_pole_sums weights as it
does one block's.  The upstream's and the input's block sums against the pole
powers, carried across blocks, add the rest of the input gradient and of
the pole sums, so no correlation longer than a block is formed.
direct_causal_conv stays as the oracles' reference.

The model's ssm-conv runs two entry points on channel-major (L, H)
activations: causal_conv (K * u + d u) and causal_conv_adjoint (the input,
pole and skip gradients).  They alone cut the channels into chunks
(_block_chunk), copy a chunk's rows into blocks and pick the blocks' dtype.

Poles come in conjugate pairs; only one member of each pair is stored and
outputs take twice the real part.

Powers of a_bar are formed in one place, power_tables, once per op for
all channels, in 64-bit complex arithmetic or wider whatever the model's
precision.  Every exponent splits at the block length (as SSD's do at its
chunk length), l = iB + s with B = STATE_BLOCK: a fine table holds a_bar^s
for s <= B and a coarse one a_bar^(iB) for iB < L + B, both doubled in
complex128 but for a_bar^B, the power the carried states compound, which
is raised in extended precision and rounded once.  The kernel (the
Vandermonde product of S4D), its adjoint power_weighted_sum, the carried
blocks and the backward read the forward's tables.  Every contraction with
powers is a real matrix product against a table's float64 view, since only
real parts are needed.  No (n_half, L) power table is ever materialized.

The carried blocks run their products (Toeplitz, lag sums, and the block
sums and read-outs against the power table) in the dtype of the blocks
they are given, the tape's: float32 in training, the usual mixed-precision
split.  Their states, stepped block to block, stay complex128 and the pole
sums stay 64-bit, and the one-block path transforms in float64 whatever
its input.  On float32 blocks the output and the adjoints move by at most
7.5e-7 of their scale (L up to 62,235, in the trained regime); float64
blocks compute in float64 throughout.
"""

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import parallel
from .errors import ContractError, NumericalError

PIVOT_EPS = 1e-12  # |1 - dt*a/2| below this is a degenerate bilinear pivot
ZERO_POLE_EPS = 1e-12  # |a| below this uses the ZOH series limit b_bar = dt
ONE_BLOCK_MAX = 1024  # the longest input convolved as one block (conv_taps)
STATE_BLOCK = 64  # tokens per block of a longer input (conv_taps)
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
# Powers of a_bar (one table per op, split at STATE_BLOCK) and the kernel
# --------------------------------------------------------------------------

class PowerTables(NamedTuple):
    """a_bar^l split at B = STATE_BLOCK, l = iB + s: fine (..., B + 1, n) holds
    s <= B and coarse (..., q + 1, n) holds a_bar^(iB) for i <= q."""

    fine: np.ndarray
    coarse: np.ndarray


def power_tables(a_bar: np.ndarray, length: int) -> PowerTables:
    """The powers of a_bar (..., n) that a length-L op reads, q = ceil(L / B):
    the only place powers of a_bar are formed.

    Doubling fills each table a whole (..., n) plane at a time in
    complex128, alpha^(m + i) = alpha^i alpha^m, so the memory is
    power-major; the tables returned are channel-first views.  a_bar^B, the
    fine table's row B and the one power the carried states compound, is
    raised in extended precision (np.clongdouble) and rounded once: doubled
    in complex128 it is off by up to B - 1 units in the last place, and the
    ssm-conv at L=62235 (bilinear, dt 0.1, a pole at the -1e-4 clamp)
    missed the stepped recurrence by 1.04e-12 of the channel's scale.  The
    coarse table is doubled from that row.
    """
    q = -(-length // STATE_BLOCK)
    alpha = np.asarray(a_bar, dtype=np.complex128)
    fine, coarse = (np.empty((rows,) + alpha.shape, dtype=np.complex128) for rows in (STATE_BLOCK + 1, q + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        fine[STATE_BLOCK] = np.power(alpha.astype(np.clongdouble), STATE_BLOCK)
        for table, base, last in ((fine, alpha, STATE_BLOCK - 1), (coarse, fine[STATE_BLOCK], q)):
            table[0] = 1.0
            table[1] = base
            m = 1
            while m < last:
                step = min(m, last - m)
                np.multiply(table[1:step + 1], table[m], out=table[m + 1:m + step + 1])
                m += step
    return PowerTables(np.moveaxis(fine, 0, -2), np.moveaxis(coarse, 0, -2))


def power_weighted_sum(tables: PowerTables, weights: np.ndarray) -> np.ndarray:
    """sum_l weights[..., l] * a_bar[..., k]^l, the adjoint of kernel_bank.

    Real weights (..., L) against power_tables of at least L powers, whose
    leading axes broadcast with the weights' -> (..., n), complex128.  The
    real product of the weights' (q, B) blocks (zero-padded to whole blocks)
    with the fine powers' float64 view (B, 2n), read as complex, is the
    (q, n) sum over s, which the coarse powers then weight.
    """
    length = weights.shape[-1]
    q = -(-length // STATE_BLOCK)
    if length < q * STATE_BLOCK:
        weights = np.pad(weights, [(0, 0)] * (weights.ndim - 1) + [(0, q * STATE_BLOCK - length)])
    rows = tables.fine[..., :STATE_BLOCK, :].view(np.float64)
    sums = np.matmul(weights.reshape(weights.shape[:-1] + (q, STATE_BLOCK)), rows).view(np.complex128)
    sums *= tables.coarse[..., :q, :]
    return sums.sum(axis=-2)


def correlation_pole_sums(corr: np.ndarray, tables: PowerTables) -> np.ndarray:
    """[sum_l corr_l conj(a_bar)^l, sum_l (l + 1) corr_{l+1} conj(a_bar)^l], (h, 2, n).

    For the kernel gradient corr (h, L), these are the adjoints of w and of
    a_bar in K_l = Re(sum_k w_k a_bar_k^l).  The weights are real, so the
    sums are the conjugates of one power_weighted_sum over the tables of
    corr and its index-weighted shift, zero-padded to whole blocks.
    """
    h, length = corr.shape
    weights = np.zeros((h, 2, -(-length // STATE_BLOCK) * STATE_BLOCK))
    weights[:, 0, :length] = corr
    np.multiply(corr[:, 1:], np.arange(1, length), out=weights[:, 1, :length - 1])
    return np.conj(power_weighted_sum(PowerTables(*(t[:, None] for t in tables)), weights))


def kernel_bank(w: np.ndarray, tables: PowerTables, length: int) -> np.ndarray:
    """K_l = Re(sum_k w_k a_bar_k^l), (..., n) -> (..., length): the adjoint of
    power_weighted_sum, and a channel's kernel at w = 2 c b_bar.

    With l = iB + s, K[i, s] is one real product of float64 views:
    conj(w a_bar^(iB)) (q, 2n) against a_bar^s (2n, B), from power_tables
    of at least L powers.  Up to B taps, q = 1 and that is one product with
    the fine rows.
    """
    q = -(-length // STATE_BLOCK)
    if not 1 <= q < tables.coarse.shape[-2]:
        raise ContractError(f"length {length} is not in 1..{(tables.coarse.shape[-2] - 1) * STATE_BLOCK}")
    with np.errstate(over="ignore", invalid="ignore"):
        left = np.conj(np.asarray(w, dtype=np.complex128)[..., None, :] * tables.coarse[..., :q, :])
        k = left.view(np.float64) @ tables.fine[..., :STATE_BLOCK, :].view(np.float64).swapaxes(-1, -2)
    k = k.reshape(k.shape[:-2] + (q * STATE_BLOCK,))[..., :length]
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

    The kernels' leading axes broadcast against the inputs'; the model's
    one-block bags pass (h, L) kernel and input rows.  Zero-padded to
    _fft_size(L) >= 2L - 1 points, so the circular product is linear on the
    first L samples.  Runs in float64.
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


def fft_causal_corr(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Causal cross-correlation corr[l] = sum_{t >= l} g[t] * v[t-l]: the
    adjoint of fft_causal_conv in its kernel argument, and block_adjoint's
    one block (its input gradient and its correlation in one call).

    Shapes: g (..., L) and v (k, ..., L) or (..., L); g broadcasts against
    the leading axis of a stacked v, so one transform of g serves every row
    of v.  The result is irfft(G * conj(V))[..., :L]: with n = _fft_size(L) >=
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


def conv_taps(length: int) -> int:
    """Block length of the convolution of a length-L input, and so the
    kernel taps it reads.

    An input of at most ONE_BLOCK_MAX tokens is one block of all L tokens:
    one full-length FFT with no carried state.  A longer one is cut into
    blocks of STATE_BLOCK tokens, applied by Toeplitz products, that carry
    states from block to block (block_causal_conv), and reads the first
    block's taps only.  ONE_BLOCK_MAX is where 512-token FFT blocks began to
    beat one full-length FFT.  Forced below it, 64-token Toeplitz blocks
    lose at L=300 (forward plus backward 0.88x at H=32, N=8 and 0.84x at
    H=512, N=32) and win at 512 (1.38x and 1.24x); the cutoff has not been
    moved, so bags of at most 1024 tokens keep the one-block path.

    STATE_BLOCK follows a sweep of the ssm-conv forward and backward
    (causal_conv and causal_conv_adjoint on float32 channel-major
    inputs, chunks from _block_chunk) against the 512-token
    FFT blocks they replace, in the trained regime (bilinear, poles
    -1/2 + i pi k and at the -1e-4 clamp, dt 1e-3 to 0.1); 1 BLAS thread,
    minimum of 3-9 alternating runs.  Speed-ups, forward/backward:

        L        H=32, N=8              H=512, N=32
                 B=64       B=128       B=64       B=128
        1025     2.0/1.9    1.1/0.67    2.0/1.4    0.81/0.63
        2049     2.3/2.2    1.5/0.94    2.1/1.5    1.1/0.78
        4096     2.4/2.3    1.7/1.3     2.1/1.5    1.5/0.93
        8192     2.9/2.5    2.5/1.2     2.6/1.7    1.9/1.4
        30000    2.0/2.3    2.1/1.6     2.1/1.6    2.1/2.8
        62235    2.4/2.3    2.1/2.1     1.3/1.4    1.5/1.7

    B=128 loses below about 4096 tokens, where the backward's products with
    (B, B) matrices dominate, so B=64, which wins at every point.  At the
    two longest H=512 lengths the FFT blocks' own times moved by up to 1.5x
    between runs on the shared 2-core machine.
    """
    return length if length <= ONE_BLOCK_MAX else STATE_BLOCK


def to_blocks(x: np.ndarray, block: int, dtype) -> np.ndarray:
    """Rows x (h, L) as a new (h, blocks, block) array of ``dtype``,
    zero-padded to whole blocks; a length that fills its blocks is only
    cast.  The carried blocks run their products in the blocks' dtype."""
    h, length = x.shape
    count = -(-length // block)
    if count * block == length:
        return x.astype(dtype, order="C").reshape(h, count, block)
    blocks = np.zeros((h, count, block), dtype=dtype)
    blocks.reshape(h, -1)[:, :length] = x
    return blocks


def _toeplitz(taps: np.ndarray) -> np.ndarray:
    """The in-block convolution matrices of taps (h, B), (h, B, B) in their dtype:
    T[i, r, s] = taps[i, s - r] for s >= r and 0 below, so that a row of
    blocks (h, blocks, B) times T convolves each block with its channel's taps.

    Row r is the window of B values that starts at B - 1 - r in the taps
    after B - 1 zeros; T is a copy of that strided view.
    """
    h, block = taps.shape
    lead = np.zeros((h, 2 * block - 1), dtype=taps.dtype)
    lead[:, block - 1:] = taps
    return sliding_window_view(lead, block, axis=-1)[:, ::-1].copy()


def _lag_sums(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """corr[l] = sum_j sum_r g[j, r] u[j, r - l] for the lags l < B, (h, B):
    the correlation of the blocks g and u (h, blocks, B) within each block.

    S = sum_j u_j^T g_j, one (h, B, B) product, holds S[r, s] = sum_j
    u_j[r] g_j[s], so lag l is the sum of its l-th upper diagonal.  S fills
    the top left of a zeroed (h, B + 1, 2B) array, whose flat rows of
    2B + 1 values start one column further right each time: column l of
    the first B such rows is diagonal l of S, then zeros.
    """
    h, count, block = g.shape
    square = np.zeros((h, block + 1, 2 * block), dtype=g.dtype)
    np.matmul(u.swapaxes(1, 2), g, out=square[:, :block, :block])
    flat = square.reshape(h, -1)[:, :block * (2 * block + 1)]
    return flat.reshape(h, block, 2 * block + 1)[:, :, :block].sum(axis=1)


def block_causal_conv(kernels: np.ndarray, powers: np.ndarray, w: np.ndarray,
                      u: np.ndarray) -> np.ndarray:
    """Causal convolution of u (h, L) by the channels' full kernels, in blocks.

    ``kernels`` (h, B) holds the first B = conv_taps(L) taps of
    K_l = Re(sum_k w_k a_bar_k^l), with w (h, n) and ``powers`` the fine
    table (h, STATE_BLOCK + 1, n) of power_tables.  An input of at most
    ONE_BLOCK_MAX tokens is one block, and one fft_causal_conv by its L
    taps is the whole convolution.  A longer one is zero-padded to blocks
    of STATE_BLOCK tokens.  Inside a block the taps apply as one real
    product with the channel's Toeplitz matrix (_toeplitz).  Across blocks
    the n complex states carry the past, with a = a_bar and s = a^B: block
    j's inputs sum to V_j = sum_r u[jB+r] a^(B-r), the states step as
    X_j = s X_(j-1) + V_j, and token r of block j + 1 gains
    Re(sum_k w_k a_k^r X_(j,k)).  V and the read-out are real products with
    the float64 views of the powers' rows, cast to u's dtype, and s is
    their row B; the states are stepped block-major in complex128, so each
    step is one contiguous (h, n) plane.  Returns (h, L): in float64 for
    one block, in u's dtype past it.
    """
    h, length = u.shape
    block = conv_taps(length)
    if kernels.shape != (h, block):
        raise ContractError(f"block kernels must be ({h}, {block}), got {kernels.shape}")
    if block == length:
        return fft_causal_conv(kernels, u)
    padded = to_blocks(u, block, u.dtype)
    count, dtype = padded.shape[1], padded.dtype
    inner = np.matmul(padded, _toeplitz(kernels.astype(dtype, copy=False)))
    # a^(B-r) and a^r: float64 views (h, B, 2n), cast once to the blocks' dtype
    rows = np.ascontiguousarray(powers[:, block:0:-1]).view(np.float64).astype(dtype, copy=False)
    readout = powers[:, :block].view(np.float64).astype(dtype, copy=False)
    states = np.empty((count - 1, h, rows.shape[-1]))
    np.matmul(padded[:, :-1], rows, out=states.transpose(1, 0, 2))
    states = states.view(np.complex128)  # V_j, becoming X_j, for every block but the last
    step = powers[:, block].copy()  # contiguous, as each step multiplies whole planes
    for j in range(1, count - 1):
        states[j] += step * states[j - 1]
    states *= w
    np.conjugate(states, out=states)  # Re(x p) is the real product of conj(x) with p's view
    # the inputs are no longer read, so the carried part goes into their buffer
    np.matmul(states.view(np.float64).transpose(1, 0, 2).astype(dtype, copy=False),
              readout.swapaxes(1, 2), out=padded[:, 1:])
    padded[:, 1:] += inner[:, 1:]
    padded[:, 0] = inner[:, 0]
    return padded.reshape(h, -1)[:, :length]


def block_adjoint(g: np.ndarray, u: np.ndarray, kernels: np.ndarray, tables: PowerTables,
                  w: np.ndarray):
    """The adjoints of block_causal_conv in its input and in its poles, from
    the blocks of the upstream g and of the input u, (h, blocks, B) in one
    dtype (to_blocks with B = conv_taps(L)), with kernels and w as
    block_causal_conv takes them and the power_tables of B powers whose fine
    table it takes.  Returns (grad_in, sums):

      * grad_in (h, blocks, B): sum_l K_l g[t + l] at every token t of the
        blocks, the correlation fft_causal_corr(g, K) with the full kernel;
      * sums (h, 2, n): correlation_pole_sums(fft_causal_corr(g, u), tables),
        the adjoints of w and a_bar.

    correlation_pole_sums gives the in-block pole sums in both branches.
    One block (an input of at most ONE_BLOCK_MAX tokens) is one
    fft_causal_corr of g with the kernels and u stacked: the input gradient
    and the correlation, all of whose B lags it weights.  Past one block no
    transform is made:
      * in-block input gradient: g times the transposed Toeplitz matrices;
      * in-block pole sums: it weights the B lags of _lag_sums.
    Across blocks, with a = a_bar, s = a^B, the blocks j of g and i of u,
    E_j = sum_r g[jB+r] a^r, E'_j = sum_r r g[jB+r] a^(r-1),
    V_i = sum_r u[iB+r] a^(B-r) and V'_i = sum_r (B-r) u[iB+r] a^(B-1-r):
      * input gradient: F_i = sum_(j>i) s^(j-1-i) E_j steps back as
        F_i = s F_(i+1) + E_(i+1), and token r of block i gains
        Re(sum_k w_k a_k^(B-r) F_(i,k));
      * pole sums: g and u are real, so with P = sum_l corr_l a^l the two
        sums are conj(P) and conj(dP/da).  The pairs of tokens in different
        blocks add sum_i V_i F_i to P, and
        sum_i (F'_i V_i + F_i V'_i + B a^(B-1) G_i V_i) to dP/da, where F'
        steps back from E' as F does from E and
        G_i = sum_(j>i) (j-1-i) s^(j-2-i) E_j as G_i = s G_(i+1) + F_(i+1),
        so no power is divided by a.
    E, E', V and V' are each one real product of the blocks with the
    float64 view of a (B, n) table drawn from the fine one; F, F' and G
    are stepped back together, one contiguous block-major (3, h, n) plane
    a step.  The products run in the blocks' dtype and the steps and the
    sums in complex128; grad_in is float64 for one block, whose transforms
    take float64, and the blocks' dtype past it.
    """
    h, count, block = g.shape
    if count == 1:
        # one transform of g gives the input gradient and the correlation
        grad_in, corr = fft_causal_corr(g[:, 0], np.stack([kernels, u[:, 0]]))
        return grad_in[:, None], correlation_pole_sums(corr, tables)

    powers, dtype, n = tables.fine, g.dtype, w.shape[1]  # powers (h, B + 1, n)
    grad_in = np.matmul(g, _toeplitz(kernels.astype(dtype, copy=False)).swapaxes(1, 2))
    sums = correlation_pole_sums(_lag_sums(g, u), tables)
    ramp = np.arange(block, dtype=np.float64)[:, None]
    # the rows of E, E', V and V': a^r, r a^(r-1), a^(B-r) and (B-r) a^(B-1-r)
    rows = np.empty((4, h, block, n), dtype=np.complex128)
    rows[0] = powers[:, :block]
    rows[1, :, 0] = 0.0
    np.multiply(powers[:, :block - 1], ramp[1:], out=rows[1, :, 1:])
    rows[2] = powers[:, block:0:-1]
    np.multiply(powers[:, block - 1::-1], block - ramp, out=rows[3])
    products = rows.view(np.float64).astype(dtype, copy=False)  # (4, h, B, 2n)
    # block-major: [E_j, E'_j, 0] for every block but the first, becoming
    # [F_i, F'_i, G_i], and [V_i, V'_i] for every block but the last
    ahead = np.empty((count - 1, 3, h, n), dtype=np.complex128)
    reach = np.empty((count - 1, 2, h, n), dtype=np.complex128)
    for k in range(2):
        np.matmul(g[:, 1:], products[k], out=ahead[:, k].view(np.float64).transpose(1, 0, 2))
        np.matmul(u[:, :-1], products[2 + k], out=reach[:, k].view(np.float64).transpose(1, 0, 2))
    ahead[:, 2] = 0.0
    # each step multiplies whole contiguous (3, h, n) planes
    step = np.repeat(powers[None, :, block], 3, axis=0)
    carry = np.empty((3, h, n), dtype=np.complex128)
    for i in range(count - 3, -1, -1):
        np.multiply(step, ahead[i + 1], out=carry)
        carry[2] += ahead[i + 1, 0]
        ahead[i] += carry
    f, v = ahead[:, 0], reach[:, 0]
    sums[:, 0] += np.conj(np.einsum("jhn,jhn->hn", f, v))
    slopes = ahead[:, 1]  # becoming F' + B a^(B-1) G
    ahead[:, 2] *= block * powers[:, block - 1]
    slopes += ahead[:, 2]
    sums[:, 1] += np.conj(np.einsum("jhn,jhn->hn", slopes, v)
                          + np.einsum("jhn,jhn->hn", f, reach[:, 1]))
    f *= w
    np.conjugate(f, out=f)
    grad_in[:, :-1] += np.matmul(f.view(np.float64).transpose(1, 0, 2).astype(dtype, copy=False),
                                 products[2].swapaxes(1, 2))
    return grad_in, sums


def direct_causal_conv(kernel: np.ndarray, u: np.ndarray) -> np.ndarray:
    """O(L^2) reference convolution used as the oracle for the FFT path."""
    kernel = np.asarray(kernel, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    return np.convolve(u, kernel)[: u.shape[0]]


# --------------------------------------------------------------------------
# The ssm-conv engine: channel-major inputs in chunks of channels
# --------------------------------------------------------------------------

def _block_chunk(h: int, length: int) -> int:
    # Channels per chunk of causal_conv and causal_conv_adjoint.  One
    # block (L <= ONE_BLOCK_MAX) runs its FFTs fastest when a chunk's
    # padded rows hold about 2^18 float64 values (2 MB).  Carried blocks
    # take the channels whose rows hold 2^17 values, but at least 8 and at
    # most 16: a chunk's (h, B, n) power tables and complex128 block sums,
    # not its blocks, set the working set.  Sweep of the ssm-conv
    # forward/backward on a float32 tape (float32 blocks; H=512, N=32,
    # bilinear, 1 BLAS thread, min of 4-6 alternating runs), ms at 8, 16,
    # 24 and 32 channels a chunk:
    #   L=1025    22/45    22/41    21/40    21/43
    #   L=4097    42/85    37/82    35/85    37/91
    #   L=8192    65/151   57/157   61/152   60/190
    #   L=16384   122/281  118/299  123/318  118/334
    #   L=30000   265/632  238/597  259/626  258/831
    #   L=62235   546/1377 556/1417 568/1387 607/1573
    # 64-256 channels lost 1.1-2.3x below 8192 tokens (120 channels, the
    # 2^17-value count, took 31/88 ms at L=1025); past 16384 tokens 8 and 16
    # channels swapped places between runs, and 8 keeps the peak lower.  At
    # H=32, N=8 16 channels are as fast as 8 or 32.  tracemalloc measures
    # the peak of causal_conv and of causal_conv_adjoint above their
    # float32 (L, H) outputs at H=512, N=32: 11 MB and 28 MB at L=1024
    # (one block, 256 channels a chunk), 1.5 MB and 2.9 MB at 1025 (16),
    # 3.6 MB and 10 MB at 30000 (8) and 7.3 MB and 20 MB at 62235 (8).
    block = conv_taps(length)
    padded = -(-length // block) * block
    if padded == block:
        return min(h, (1 << 18) // padded)
    return min(h, 16, max(8, (1 << 17) // padded))


def causal_conv(u: np.ndarray, a_bar: np.ndarray, w: np.ndarray, d: np.ndarray,
                out: np.ndarray | None = None):
    """K * u + d u for channel-major u (L, H), K_l = Re(sum_k w_k a_bar_k^l)
    with a_bar and w of shape (H, n) and the skip d (H,).

    Returns (y, kernels, tables): y is a channel-major (L, H) array in u's
    dtype, ``out`` (which may be u itself) or a new one; kernels
    (H, conv_taps(L)) are the first block of taps, and tables the
    power_tables of as many powers, built once for all channels, which the
    taps, the carried blocks and causal_conv_adjoint read.  Each chunk of
    channels runs block_causal_conv on its rows of u in u's dtype and adds
    the skip term in the result's dtype, so no whole float64 copy of u or
    of the output exists.  A chunk reads its channels' rows of u before it
    writes them in the output, and the chunks' channels are disjoint, so u
    may be the output.
    """
    length, h = u.shape
    tables = power_tables(a_bar, conv_taps(length))
    kernels = kernel_bank(w, tables, conv_taps(length))
    d = np.asarray(d, dtype=np.float64)
    out = np.empty((h, length), dtype=u.dtype) if out is None else out.T

    def work(s, e):
        rows = u[:, s:e].T
        y = block_causal_conv(kernels[s:e], tables.fine[s:e], w[s:e], rows)
        y += d[s:e, None].astype(y.dtype, copy=False) * rows
        out[s:e] = y

    parallel.run_chunked(h, _block_chunk(h, length), work)
    return out.T, kernels, tables


def causal_conv_adjoint(g: np.ndarray, u: np.ndarray, kernels: np.ndarray, tables: PowerTables,
                        w: np.ndarray, d: np.ndarray):
    """The adjoints of causal_conv for the channel-major upstream g (L, H),
    from its input u, the kernels and power tables it returned, w and d.

    Each chunk copies its channel rows of g and of u into blocks of the
    forward's block length once (to_blocks): float64 for one block, which
    is transformed, and g's dtype for carried blocks, which run their
    products in it.  The skip gradient sum_l g u, summed in float64, and
    block_adjoint both read them.  Returns the channel-major (L, H) input
    gradient sum_l K_l g[t + l] + d g[t] in g's dtype, the (H, 2, n) pole
    sums and the (H,) skip gradient.
    """
    length, h = u.shape
    block = kernels.shape[1]
    dtype = np.float64 if block == length else g.dtype
    d = np.asarray(d, dtype=np.float64)
    grad_u = np.empty((h, length), dtype=g.dtype)
    sums = np.empty((h, 2, w.shape[1]), dtype=np.complex128)
    grad_d = np.empty(h)

    def work(s, e):
        rows, v = (to_blocks(x[:, s:e].T, block, dtype) for x in (g, u))
        grad_d[s:e] = np.einsum("hjr,hjr->h", rows, v, dtype=np.float64)
        grad_in, sums[s:e] = block_adjoint(rows, v, kernels[s:e],
                                           PowerTables(*(t[s:e] for t in tables)), w[s:e])
        rows *= d[s:e, None, None]  # the upstream blocks are not read again
        grad_in += rows
        grad_u[s:e] = grad_in.reshape(e - s, -1)[:, :length]

    parallel.run_chunked(h, _block_chunk(h, length), work)
    return grad_u.T, sums, grad_d


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
