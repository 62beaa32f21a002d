"""Minimal reverse-mode differentiation on numpy arrays.

A Tape records Nodes in evaluation order; values are computed eagerly as
ops are appended, so topological order is the append order.  A node needs a
gradient if it is a named leaf of a grad-enabled tape or has a parent that
needs one; only such nodes keep a backward closure, and a closure computes
gradients only for the parents that need them (unnamed leaves, such as the
input features, get none).  backward() seeds the final scalar with 1 and
walks the list in reverse exactly once.  A gradient is created on its first
accumulation, and a non-leaf node's gradient is dropped as soon as its
closure has consumed it.

The op set is exactly what the aggregator model calls, and no more:
`matvec` is the whole affine map x @ w + b (the bias is added in place into
the matrix product), `add` sums two arrays of one shape (the multitask
loss), and there is no broadcasting anywhere else.  Every activation is
2-D, (rows, channels): L tokens, or the one pooled (1, H) row the
classifier reads, so `matvec` and `softmax_log_loss` take no other shape.

Every activation is stored channel-major: its logical shape is (L, H), but
its memory holds H contiguous rows of L tokens (Fortran order).  `matvec`
sets this layout, elementwise ops keep the layout they are given, and the
ssm-conv and max-pool write theirs that way, so the ssm-conv reads each
channel as a contiguous row and max-pool reduces over tokens along
contiguous memory.  Gradients are laid out like the values they belong to.

Training runs the tape in float32; gradient-check builds use float64.
The ssm-conv op always performs its internal kernel/FFT math in 64-bit;
each chunk of channels is cast to float64 rows and its result back to
the tape dtype, so no whole float64 copy of the input or output exists.
On a bag longer than two blocks of ssm.STATE_BLOCK tokens the forward
builds only the first block's kernel taps: in-block FFTs apply them and
carried SSM states add every earlier block (ssm.block_causal_conv).  The
input gradient is the same convolution run in reversed time, with the same
taps, so a gradient tape builds no other kernel; the parameter gradients
still correlate the upstream with the input over the full length.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericalError
from . import parallel, ssm

# Trainable pole real parts are kept strictly negative; values at or above
# this ceiling are clamped and receive zero gradient through the clamp.
POLE_REAL_CEILING = -1e-4

LAYERNORM_EPS = 1e-5

@dataclass
class Node:
    op: str
    value: np.ndarray
    grad: np.ndarray | None = None
    parents: tuple = ()
    name: str | None = None
    needs_grad: bool = False
    backward_fn: object = field(default=None, repr=False)


def _accumulate(node: Node, g) -> None:
    """node.grad += g, creating the gradient on first use.

    Every closure passes an array it has just computed and nothing else
    holds.  A new gradient is g + 0, which turns -0 into +0 exactly as
    accumulating into a zero-filled buffer does.  If g has the value's dtype
    and is contiguous in its order (a single row is in both), the +0 is
    applied in place and g becomes the gradient; otherwise the sum goes into
    a new array laid out like the value.
    """
    if node.grad is None:
        v = node.value
        fits = (isinstance(g, np.ndarray) and g.dtype == v.dtype
                and (g.flags.f_contiguous and v.flags.f_contiguous
                     or g.flags.c_contiguous and v.flags.c_contiguous))
        node.grad = np.add(g, 0, out=g if fits else np.empty_like(v))
    else:
        node.grad += g


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), computed step by step inside one new array."""
    out = np.negative(x, out=np.empty_like(x))
    # exp(-x) overflows to inf for very negative x, which gives the exact limit 0
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


class Tape:
    """Single-owner computation record; one per bag during training."""

    def __init__(self, dtype=np.float32, grad_enabled: bool = True):
        self.dtype = np.dtype(dtype)
        self.grad_enabled = grad_enabled
        self.nodes: list[Node] = []

    # -- construction helpers ------------------------------------------------

    def _needs_grad(self, parents) -> bool:
        return self.grad_enabled and any(p.needs_grad for p in parents)

    def _append(self, op: str, value: np.ndarray, parents=(), name=None, backward_fn=None) -> Node:
        needs_grad = (self.grad_enabled and name is not None) or self._needs_grad(parents)
        node = Node(op=op, value=value, parents=tuple(parents), name=name, needs_grad=needs_grad,
                    backward_fn=backward_fn if needs_grad else None)
        self.nodes.append(node)
        return node

    def leaf(self, value, name: str | None = None) -> Node:
        value = np.asarray(value, dtype=self.dtype)
        return self._append("leaf", value, name=name)

    # -- ops -----------------------------------------------------------------

    def matvec(self, x: Node, w: Node, b: Node) -> Node:
        """Affine map x @ w + b: x (L, D), w (D, H), b (H,).

        The result is written channel-major, as (H, L) rows, whatever the
        layout of x; its x-gradient is laid out the same way.
        """
        xv, wv, bv = x.value, w.value, b.value
        if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
            raise ContractError(f"matvec shape mismatch: {xv.shape} @ {wv.shape}")
        if bv.shape != (wv.shape[1],):
            raise ContractError(f"matvec bias shape {bv.shape} does not fit weight {wv.shape}")
        value = np.matmul(wv.T, xv.T).T
        value += bv

        def backward_fn(g):
            if x.needs_grad:
                _accumulate(x, np.matmul(wv, g.T).T)
            if w.needs_grad:
                _accumulate(w, xv.T @ g)
            if b.needs_grad:
                _accumulate(b, g.sum(axis=0))

        return self._append("matvec", value, (x, w, b), backward_fn=backward_fn)

    def add(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ContractError(f"add shape mismatch: {a.value.shape} + {b.value.shape}")
        value = a.value + b.value

        def backward_fn(g):
            if a.needs_grad:
                _accumulate(a, g.copy())
            if b.needs_grad:
                _accumulate(b, g.copy())

        return self._append("add", value, (a, b), backward_fn=backward_fn)

    def mul(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ContractError(f"elementwise-mul shape mismatch: {a.value.shape} * {b.value.shape}")
        value = a.value * b.value

        def backward_fn(g):
            if a.needs_grad:
                _accumulate(a, g * b.value)
            if b.needs_grad:
                _accumulate(b, g * a.value)

        return self._append("elementwise-mul", value, (a, b), backward_fn=backward_fn)

    def sigmoid(self, x: Node) -> Node:
        value = _sigmoid(x.value)

        def backward_fn(g):
            gx = np.subtract(1.0, value)
            gx *= value
            gx *= g
            _accumulate(x, gx)

        return self._append("sigmoid", value, (x,), backward_fn=backward_fn)

    def scale(self, x: Node, alpha: float) -> Node:
        alpha = self.dtype.type(alpha)
        value = alpha * x.value

        def backward_fn(g):
            _accumulate(x, alpha * g)

        return self._append("scale", value, (x,), backward_fn=backward_fn)

    def max_pool_sequence(self, x: Node) -> Node:
        """(L, H) -> (1, H) coordinate-wise max; ties go to the lowest index."""
        xv = x.value
        if xv.ndim != 2:
            raise ContractError(f"max-pool expects (L, H), got {xv.shape}")
        idx = np.argmax(xv, axis=0)  # first occurrence wins ties
        cols = np.arange(xv.shape[1])
        value = xv[idx, cols][None, :]

        def backward_fn(g):
            if x.grad is None:
                x.grad = np.zeros_like(xv)
            np.add.at(x.grad, (idx, cols), g[0])

        return self._append("max-pool-over-sequence", value, (x,), backward_fn=backward_fn)

    def layernorm(self, x: Node, gamma: Node, beta: Node) -> Node:
        """Per-token normalization over the feature axis of (L, H)."""
        xv = x.value
        if xv.ndim != 2 or gamma.value.shape != (xv.shape[1],) or beta.value.shape != (xv.shape[1],):
            raise ContractError(
                f"layernorm shape mismatch: x {xv.shape}, scale {gamma.value.shape}, shift {beta.value.shape}"
            )
        xhat = xv - xv.mean(axis=1, keepdims=True)
        var = np.square(xhat).mean(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
        xhat *= inv_std
        value = gamma.value * xhat
        value += beta.value

        def backward_fn(g):
            if gamma.needs_grad:
                _accumulate(gamma, (g * xhat).sum(axis=0))
            if beta.needs_grad:
                _accumulate(beta, g.sum(axis=0))
            if x.needs_grad:
                gx = g * gamma.value
                proj = (gx * xhat).mean(axis=1, keepdims=True)
                gx -= gx.mean(axis=1, keepdims=True)
                gx -= xhat * proj
                gx *= inv_std
                _accumulate(x, gx)

        return self._append("layernorm", value, (x, gamma, beta), backward_fn=backward_fn)

    def ssm_conv(self, u: Node, a_re: Node, a_im: Node, c_re: Node, c_im: Node,
                 d: Node, log_dt: Node, rule: str) -> Node:
        """Bank of H diagonal-SSM channels applied feature-wise to (L, H).

        Forward materializes the per-channel kernels (two-level power tables
        in 64-bit) and convolves via FFT, over the full length or, past two
        blocks, inside blocks with carried states; the feedthrough d u is
        the skip term.
        """
        uv = u.value
        if uv.ndim != 2:
            raise ContractError(f"ssm-conv expects (L, H) input, got {uv.shape}")
        h = uv.shape[1]
        for p, nm in ((a_re, "a_re"), (a_im, "a_im"), (c_re, "c_re"), (c_im, "c_im")):
            if p.value.ndim != 2 or p.value.shape[0] != h:
                raise ContractError(f"ssm-conv {nm} must be (H, n_half): {p.value.shape} vs H={h}")
        if d.value.shape != (h,) or log_dt.value.shape != (h,):
            raise ContractError(
                f"ssm-conv d/log_dt must be ({h},): {d.value.shape}, {log_dt.value.shape}"
            )
        parents = {"u": u, "a_re": a_re, "a_im": a_im, "c_re": c_re, "c_im": c_im,
                   "d": d, "log_dt": log_dt}
        value, cache = _ssm_conv_forward(
            uv, a_re.value, a_im.value, c_re.value, c_im.value, d.value,
            log_dt.value, rule, keep_cache=self._needs_grad(parents.values()),
        )
        dtype = self.dtype  # the closure must not hold the tape (a reference cycle)

        def backward_fn(g):
            grads = grad_ssm_conv(g, cache)
            for key, parent in parents.items():
                if parent.needs_grad:
                    _accumulate(parent, grads[key].astype(dtype, order="A", copy=False))

        return self._append("ssm-conv", value, parents.values(), backward_fn=backward_fn)

    def softmax_log_loss(self, logits: Node, labels) -> Node:
        """Fused softmax + negative log likelihood of (rows, C) logits, summed
        over the rows; ends a classification tape."""
        lv = np.asarray(logits.value, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if lv.ndim != 2 or labels.shape != (lv.shape[0],):
            raise ContractError(f"loss shape mismatch: logits {logits.value.shape}, labels {labels.shape}")
        if np.any(labels < 0) or np.any(labels >= lv.shape[1]):
            raise ContractError(f"label out of range for {lv.shape[1]} classes")
        shifted = lv - lv.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_p = shifted - log_z
        rows = np.arange(lv.shape[0])
        dtype = self.dtype  # the closure must not hold the tape (a reference cycle)
        value = np.asarray(-log_p[rows, labels].sum(), dtype=dtype)

        def backward_fn(g):
            p = np.exp(log_p)
            p[rows, labels] -= 1.0
            _accumulate(logits, (float(g) * p).astype(dtype))

        return self._append("softmax-log-loss", value, (logits,), backward_fn=backward_fn)

    # -- evaluation ----------------------------------------------------------

    def forward(self) -> float:
        """Values are populated eagerly; this validates and returns the loss."""
        if not self.nodes:
            raise ContractError("empty tape")
        out = self.nodes[-1]
        if np.ndim(out.value) != 0:
            raise ContractError(f"tape must end in a scalar, got shape {np.shape(out.value)}")
        return float(out.value)

    def backward(self) -> dict[str, np.ndarray]:
        """Reverse sweep; returns gradients of all named leaves.

        A named leaf that no path from the output reaches gets zeros.  Only
        named leaves hold a gradient afterwards.
        """
        if not self.grad_enabled:
            raise ContractError("tape was built with grad_enabled=False")
        self.forward()
        for node in self.nodes:
            node.grad = None
        out = self.nodes[-1]
        if out.needs_grad:
            out.grad = np.ones_like(out.value)
        for node in reversed(self.nodes):
            if node.backward_fn is not None and node.grad is not None:
                node.backward_fn(node.grad)
            if node.op != "leaf":
                node.grad = None
        named = [n for n in self.nodes if n.op == "leaf" and n.name is not None]
        for node in named:
            if node.grad is None:
                node.grad = np.zeros_like(node.value)
        return {n.name: n.grad for n in named}


# --------------------------------------------------------------------------
# ssm-conv forward/backward internals
# --------------------------------------------------------------------------

@dataclass
class SsmConvCache:
    u: np.ndarray | None
    kernels: np.ndarray | None
    disc: ssm.Discretization
    dt: np.ndarray
    clamp_mask: np.ndarray
    c: np.ndarray
    w: np.ndarray
    d: np.ndarray


def ssm_parameters(a_re, a_im, c_re, c_im, log_dt):
    """Continuous (a, c, dt, clamp_mask) of a channel bank from its raw parameters.

    Pole real parts are clamped to at most POLE_REAL_CEILING; clamp_mask is
    True where a_re is below the ceiling and so passes gradient.
    """
    a_re64 = np.asarray(a_re, dtype=np.float64)
    clamp_mask = a_re64 <= POLE_REAL_CEILING
    a = np.minimum(a_re64, POLE_REAL_CEILING) + 1j * np.asarray(a_im, dtype=np.float64)
    c = np.asarray(c_re, dtype=np.float64) + 1j * np.asarray(c_im, dtype=np.float64)
    dt = np.exp(np.asarray(log_dt, dtype=np.float64))
    return a, c, dt, clamp_mask


def _conv_chunk(h: int, fft_len: int) -> int:
    # Channels per chunk of a full-length transform, so that one chunk's
    # transient FFT buffers stay bounded regardless of L.  tracemalloc
    # measures a backward chunk at L=30000 (fft_len 60000, 33 channels),
    # which correlates the upstream with the inputs, at a peak of 64 MB, and
    # a forward chunk at L=1024 (fft_len 2048, all 512 channels) at 29 MB.
    return max(1, min(h, int(96e6 // (fft_len * 48))))


def _block_chunk(h: int, length: int) -> int:
    # Channels per chunk when states are carried across blocks.  The short
    # transforms run fastest when a chunk's padded rows hold about 2^18
    # float64 values (2 MB): at H=512, N=32 that beat _conv_chunk's chunks
    # by up to 1.4x for L 1025-62235 (1 BLAS thread).  tracemalloc measures
    # a forward chunk at L=30000 (8 channels) at a peak of 10 MB.
    padded = -(-length // ssm.STATE_BLOCK) * ssm.STATE_BLOCK
    return max(1, min(h, (1 << 18) // padded))


def _rows(x: np.ndarray, s: int, e: int) -> np.ndarray:
    """Channels s:e of a channel-major (L, H) array as float64 (e - s, L) rows.

    The rows are contiguous in x already, so this is a plain cast.
    """
    return np.ascontiguousarray(x[:, s:e].T, dtype=np.float64)


def _chunked_conv(kernels: np.ndarray, u: np.ndarray, d: np.ndarray, a_bar: np.ndarray,
                  w: np.ndarray, reverse: bool = False) -> np.ndarray:
    """K * u + d u for channel-major u (L, H), as a channel-major (L, H)
    array in u's dtype.  With reverse, the same convolution runs in
    reversed time, sum_l K_l u[t + l] + d u[t]: its adjoint in u.

    ``kernels`` (H, ssm.conv_taps(L)) holds the first taps of
    K_l = Re(sum_k w_k a_bar_k^l).  With all L taps each chunk makes one
    full-length fft_causal_conv; with fewer, it carries states across
    blocks (ssm.block_causal_conv).  Each chunk casts its own channel rows
    to float64 and back (flipped in time as they are read and written, under
    reverse), so no whole float64 or reversed copy of u or of the output
    exists.
    """
    length, h = u.shape
    out = np.empty((h, length), dtype=u.dtype)
    src, dst = (u[::-1], out[:, ::-1]) if reverse else (u, out)
    blocked = kernels.shape[1] < length

    def work(s, e):
        if blocked:  # the blocks are cast to float64 as they are padded
            rows = src[:, s:e].T
            y = ssm.block_causal_conv(kernels[s:e], a_bar[s:e], w[s:e], rows)
        else:
            rows = _rows(src, s, e)
            y = ssm.fft_causal_conv(kernels[s:e], rows)
        y += d[s:e, None] * rows
        dst[s:e] = y

    chunk = _block_chunk(h, length) if blocked else _conv_chunk(h, ssm._fft_size(length))
    parallel.run_chunked(h, chunk, work)
    return out.T


def _chunked_corr(g: np.ndarray, u: np.ndarray):
    """Parameter adjoints of _chunked_conv for the channel-major upstream g (L, H).

    Returns the kernel gradient corr(g, u) (H, L) and the skip gradient
    sum_l g u (H,), both cast and formed chunk by chunk.
    """
    length, h = u.shape
    grad_k = np.empty((h, length))
    grad_d = np.empty(h)

    def work(s, e):
        rows, v = _rows(g, s, e), _rows(u, s, e)
        grad_d[s:e] = np.einsum("hl,hl->h", rows, v)
        grad_k[s:e] = ssm.fft_causal_corr(rows, v)

    parallel.run_chunked(h, _conv_chunk(h, ssm._fft_size(length)), work)
    return grad_k, grad_d


def _ssm_conv_forward(u, a_re, a_im, c_re, c_im, d, log_dt, rule, keep_cache):
    a, c, dt, clamp_mask = ssm_parameters(a_re, a_im, c_re, c_im, log_dt)
    disc = ssm.discretize(a, dt, rule)
    w = 2.0 * c * disc.b_bar
    kernels = ssm.kernel_bank(w, disc.a_bar, ssm.conv_taps(u.shape[0]))  # (H, taps)
    d64 = np.asarray(d, dtype=np.float64)
    y = _chunked_conv(kernels, u, d64, disc.a_bar, w)
    if not np.all(np.isfinite(y)):
        raise NumericalError("ssm-conv produced non-finite outputs")
    cache = SsmConvCache(
        u=u if keep_cache else None,
        kernels=kernels if keep_cache else None,
        disc=disc, dt=dt, clamp_mask=clamp_mask, c=c, w=w, d=d64,
    )
    return y, cache


def grad_ssm_conv(upstream: np.ndarray, cache: SsmConvCache) -> dict[str, np.ndarray]:
    """Gradients of the convolution view w.r.t. (u, a, c, d, log_dt).

    The input gradient is the forward's own convolution (_chunked_conv, with
    the cached taps) run in reversed time.  The kernel gradient is the
    causal correlation of the upstream signal with the input over the full
    length.  Pole and projection gradients then chain through the kernel's
    adjoint (ssm.power_weighted_sum) and the discretization map.  Complex
    adjoints use the convention z_hat = dL/d re(z) + i dL/d im(z), so
    holomorphic steps multiply by the conjugated derivative.
    """
    if cache.u is None:
        raise ContractError("ssm-conv was evaluated without gradient caching")
    length = cache.u.shape[0]
    disc = cache.disc
    grad_u = _chunked_conv(cache.kernels, upstream, cache.d, disc.a_bar, cache.w, reverse=True)
    gk, grad_d = _chunked_corr(upstream, cache.u)

    # One power-table call sums gk and its index-weighted shift (l + 1) gk[l + 1].
    weights = np.empty((gk.shape[0], 2, length))
    weights[:, 0] = gk
    np.multiply(gk[:, 1:], np.arange(1, length), out=weights[:, 1, :-1])
    weights[:, 1, -1] = 0.0
    del gk
    sums = ssm.power_weighted_sum(np.conj(disc.a_bar)[:, None, :], weights)
    w_hat = 2.0 * sums[:, 0]
    abar_hat = np.conj(cache.w) * sums[:, 1]

    c_hat = w_hat * np.conj(disc.b_bar)
    bbar_hat = w_hat * np.conj(cache.c)

    a_hat = abar_hat * np.conj(disc.da_bar_da) + bbar_hat * np.conj(disc.db_bar_da)
    ddt = (abar_hat * np.conj(disc.da_bar_ddt)
           + bbar_hat * np.conj(disc.db_bar_ddt)).real.sum(axis=1)
    grad_log_dt = cache.dt * ddt

    return {
        "u": grad_u,
        "a_re": a_hat.real * cache.clamp_mask,
        "a_im": a_hat.imag,
        "c_re": c_hat.real,
        "c_im": c_hat.imag,
        "d": grad_d,
        "log_dt": grad_log_dt,
    }


# --------------------------------------------------------------------------
# Finite-difference harness
# --------------------------------------------------------------------------

def finite_difference(loss_fn, params: dict[str, np.ndarray], step: float = 1e-5) -> dict[str, np.ndarray]:
    """Central differences of loss_fn(params) w.r.t. every entry of every array."""
    grads = {}
    for name, value in params.items():
        value = np.asarray(value, dtype=np.float64)
        flat = value.reshape(-1)
        out = np.zeros_like(flat)
        for i in range(flat.size):
            bumped = dict(params)
            plus = value.copy().reshape(-1)
            plus[i] += step
            bumped[name] = plus.reshape(value.shape)
            minus = value.copy().reshape(-1)
            minus[i] -= step
            bumped_minus = dict(bumped)
            bumped_minus[name] = minus.reshape(value.shape)
            out[i] = (loss_fn(bumped) - loss_fn(bumped_minus)) / (2.0 * step)
        grads[name] = out.reshape(value.shape)
    return grads


def check_gradients(build_tape, params: dict[str, np.ndarray], step: float = 1e-5,
                    rtol: float = 1e-4, abs_floor: float = 1e-7,
                    small: float = 1e-4):
    """Compare tape gradients against central differences.

    build_tape(params) must return a finished Tape.  A component passes if
    |analytic - fd| <= abs_floor when |analytic| < small, else the relative
    error |analytic - fd| / max(|analytic|, |fd|) must be <= rtol.
    Returns (worst_relative_error, failures) where failures is a list of
    human-readable strings.
    """
    analytic = build_tape(params).backward()

    def loss_fn(p):
        return build_tape(p).forward()

    fd = finite_difference(loss_fn, params, step=step)
    worst = 0.0
    failures = []
    for name in params:
        a = np.asarray(analytic[name], dtype=np.float64).reshape(-1)
        f = fd[name].reshape(-1)
        for i, (ai, fi) in enumerate(zip(a, f)):
            if abs(ai) < small:
                if abs(ai - fi) > abs_floor:
                    failures.append(f"{name}[{i}]: analytic={ai:.3e} fd={fi:.3e} (abs)")
            else:
                rel = abs(ai - fi) / max(abs(ai), abs(fi))
                worst = max(worst, float(rel))
                if rel > rtol:
                    failures.append(f"{name}[{i}]: analytic={ai:.6e} fd={fi:.6e} rel={rel:.2e}")
    return worst, failures
