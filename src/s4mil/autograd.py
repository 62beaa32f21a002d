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

A gradient-free tape has no backward pass, so its elementwise ops reuse
the arrays they consume: `layernorm`, `ssm_conv`, `sigmoid` and `mul` write
their result into their first input's array when that input is not a leaf.
That input node gives its value up (it becomes None), so no node reports an
array that a later op overwrote, and an op handed the node afterwards
raises ContractError.  The model reads no such input twice.  Leaves are
never written, so neither are the caller's features nor the parameters; a
gradient tape never reuses an array.

`rows` gathers some rows of an (L, H) activation and scatters their
gradient back into a zero (L, H) one.  A gradient tape of a model without
a patch head uses it to record the last layer's mixing and GLU on the
tokens the max-pool picks, at most H of them, since the max-pool passes
gradient to no other token (model.build_tape).  A multitask model's patch
head reads every token, so its tape records the head densely.

Training runs the tape in float32; gradient-check builds use float64.
The ssm-conv op always performs its internal kernel/FFT math in 64-bit;
each chunk of channels is cast to float64 rows and its result back to
the tape dtype, so no whole float64 copy of the input or output exists.
On a bag longer than two blocks of ssm.STATE_BLOCK tokens the forward
builds only the first block's kernel taps: in-block FFTs apply them and
carried SSM states add every earlier block (ssm.block_causal_conv).  Its
backward is one pass over the blocks of the upstream and the input
(ssm.block_adjoint), which reads the same taps, so a gradient tape builds
no other kernel: one spectrum of each upstream block gives the in-block
input gradient and the in-block correlations with the input, and the
upstream's block sums, carried back across blocks, add the rest of both
the input gradient and the parameter gradients.  The backward forms no
(H, L) float64 array either.  A bag of at most two blocks runs the forward
convolution in reversed time for its input gradient.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericalError
from .seeding import substream
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


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)), computed step by step inside one array: ``out``
    (which may be x itself) or a new one."""
    out = np.negative(x, out=np.empty_like(x) if out is None else out)
    # exp(-x) overflows to inf for very negative x, which gives the exact limit 0
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _values(op: str, *nodes: Node) -> tuple:
    """The nodes' values, for an op about to read them."""
    if any(n.value is None for n in nodes):
        raise ContractError(f"{op}: an input's value was taken by a later op "
                            f"of a gradient-free tape")
    return tuple(n.value for n in nodes)


class Tape:
    """Single-owner computation record; one per bag during training.

    On a gradient-free tape the elementwise ops (layernorm, ssm-conv,
    sigmoid, elementwise-mul) reuse a non-leaf first input's array for their
    result, and that input node's value becomes None.
    """

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

    def _take(self, node: Node) -> np.ndarray | None:
        """The array of a non-leaf input on a gradient-free tape, which the op
        consuming it writes its result into; the node gives its value up.
        None on a gradient tape or for a leaf."""
        if self.grad_enabled or node.op == "leaf":
            return None
        value, node.value = node.value, None
        return value

    def leaf(self, value, name: str | None = None) -> Node:
        value = np.asarray(value, dtype=self.dtype)
        return self._append("leaf", value, name=name)

    # -- ops -----------------------------------------------------------------

    def matvec(self, x: Node, w: Node, b: Node) -> Node:
        """Affine map x @ w + b: x (L, D), w (D, H), b (H,).

        The result is written channel-major, as (H, L) rows, whatever the
        layout of x; its x-gradient is laid out the same way.
        """
        xv, wv, bv = _values("matvec", x, w, b)
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
        av, bv = _values("add", a, b)
        if av.shape != bv.shape:
            raise ContractError(f"add shape mismatch: {av.shape} + {bv.shape}")
        value = av + bv

        def backward_fn(g):
            if a.needs_grad:
                _accumulate(a, g.copy())
            if b.needs_grad:
                _accumulate(b, g.copy())

        return self._append("add", value, (a, b), backward_fn=backward_fn)

    def mul(self, a: Node, b: Node) -> Node:
        av, bv = _values("elementwise-mul", a, b)
        if av.shape != bv.shape:
            raise ContractError(f"elementwise-mul shape mismatch: {av.shape} * {bv.shape}")
        value = np.multiply(av, bv, out=self._take(a))

        def backward_fn(g):
            if a.needs_grad:
                _accumulate(a, g * b.value)
            if b.needs_grad:
                _accumulate(b, g * a.value)

        return self._append("elementwise-mul", value, (a, b), backward_fn=backward_fn)

    def sigmoid(self, x: Node) -> Node:
        (xv,) = _values("sigmoid", x)
        value = _sigmoid(xv, out=self._take(x))

        def backward_fn(g):
            gx = np.subtract(1.0, value)
            gx *= value
            gx *= g
            _accumulate(x, gx)

        return self._append("sigmoid", value, (x,), backward_fn=backward_fn)

    def scale(self, x: Node, alpha: float) -> Node:
        alpha = self.dtype.type(alpha)
        (xv,) = _values("scale", x)
        value = alpha * xv

        def backward_fn(g):
            _accumulate(x, alpha * g)

        return self._append("scale", value, (x,), backward_fn=backward_fn)

    def max_pool_sequence(self, x: Node) -> Node:
        """(L, H) -> (1, H) coordinate-wise max; ties go to the lowest index."""
        (xv,) = _values("max-pool-over-sequence", x)
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

    def rows(self, x: Node, index) -> Node:
        """Rows ``index`` of (L, H), as a channel-major (len(index), H) array.

        The backward scatters the gradient into a zero (L, H) gradient of x,
        laid out like x.
        """
        (xv,) = _values("rows", x)
        index = np.asarray(index, dtype=np.intp)
        if xv.ndim != 2 or index.ndim != 1:
            raise ContractError(f"rows expects (L, H) and a 1-D index, got {xv.shape}, {index.shape}")
        value = np.take(xv.T, index, axis=1).T

        def backward_fn(g):
            gx = np.zeros_like(xv)
            gx[index] = g
            _accumulate(x, gx)

        return self._append("rows", value, (x,), backward_fn=backward_fn)

    def layernorm(self, x: Node, gamma: Node, beta: Node) -> Node:
        """Per-token normalization over the feature axis of (L, H)."""
        xv, gv, bv = _values("layernorm", x, gamma, beta)
        if xv.ndim != 2 or gv.shape != (xv.shape[1],) or bv.shape != (xv.shape[1],):
            raise ContractError(
                f"layernorm shape mismatch: x {xv.shape}, scale {gv.shape}, shift {bv.shape}"
            )
        out = self._take(x)
        xhat = np.subtract(xv, xv.mean(axis=1, keepdims=True), out=out)
        var = np.square(xhat).mean(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
        xhat *= inv_std
        value = np.multiply(gv, xhat, out=out)
        value += bv

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
        parents = {"u": u, "a_re": a_re, "a_im": a_im, "c_re": c_re, "c_im": c_im,
                   "d": d, "log_dt": log_dt}
        uv, *params = _values("ssm-conv", *parents.values())
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
        value, cache = _ssm_conv_forward(
            uv, *params, rule, keep_cache=self._needs_grad(parents.values()), out=self._take(u),
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
        lv = np.asarray(_values("softmax-log-loss", logits)[0], dtype=np.float64)
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
    # Channels per chunk of a full-length transform (a bag of at most two
    # blocks), so that one chunk's transient FFT buffers stay bounded.
    # tracemalloc measures chunks at L=1024 (fft_len 2048, all 512
    # channels): the forward at 29 MB, the backward's correlation of the
    # upstream with the inputs at 38 MB.
    return max(1, min(h, int(96e6 // (fft_len * 48))))


def _block_chunk(h: int, length: int) -> int:
    # Channels per chunk when states are carried across blocks.  The short
    # transforms run fastest when a chunk's padded rows hold about 2^18
    # float64 values (2 MB): at H=512, N=32 that beat _conv_chunk's chunks
    # by up to 1.4x for L 1025-62235 (1 BLAS thread), and the backward's
    # pole sums run fastest there too (2^16-2^20 swept at L=4096 and 30000,
    # H=512).  tracemalloc measures chunks at L=30000 (8 channels): the
    # forward at a peak of 10 MB, the backward's block_adjoint (with the
    # blocks of the upstream and the input) at 17 MB.
    padded = -(-length // ssm.STATE_BLOCK) * ssm.STATE_BLOCK
    return max(1, min(h, (1 << 18) // padded))


def _rows(x: np.ndarray, s: int, e: int) -> np.ndarray:
    """Channels s:e of a channel-major (L, H) array as float64 (e - s, L) rows.

    The rows are contiguous in x already, so this is a plain cast.
    """
    return np.ascontiguousarray(x[:, s:e].T, dtype=np.float64)


def _chunked_conv(kernels: np.ndarray, u: np.ndarray, d: np.ndarray, a_bar: np.ndarray,
                  w: np.ndarray, reverse: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """K * u + d u for channel-major u (L, H), as a channel-major (L, H)
    array in u's dtype: ``out`` (which may be u itself) or a new one.  With
    reverse, the same convolution runs in reversed time,
    sum_l K_l u[t + l] + d u[t]: its adjoint in u, which the backward takes
    from here only for a bag of at most two blocks (all L taps); a longer
    bag's comes from _chunked_block_backward.

    ``kernels`` (H, ssm.conv_taps(L)) holds the first taps of
    K_l = Re(sum_k w_k a_bar_k^l).  With all L taps each chunk makes one
    full-length fft_causal_conv; with fewer, it carries states across
    blocks (ssm.block_causal_conv).  Each chunk casts its own channel rows
    to float64 and back (flipped in time as they are read and written, under
    reverse), so no whole float64 or reversed copy of u or of the output
    exists.  Each chunk reads its channels' rows of u (a view of them, on
    a float64 u) before it writes the same channels of the output, and the
    chunks' channels are disjoint, so u may be the output.
    """
    length, h = u.shape
    out = np.empty((h, length), dtype=u.dtype) if out is None else out.T
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


def _chunked_block_backward(g: np.ndarray, u: np.ndarray, kernels: np.ndarray, d: np.ndarray,
                            a_bar: np.ndarray, w: np.ndarray):
    """The adjoints of _chunked_conv past two blocks for the channel-major
    upstream g (L, H): the input gradient, the pole sums and the skip gradient.

    Each chunk casts its channel rows of g and of the input u (channel-major
    (L, H)) into padded float64 blocks once; the skip gradient sum_l g u and
    ssm.block_adjoint both read them.  Returns the channel-major (L, H) input
    gradient sum_l K_l g[t + l] + d g[t] in g's dtype, the (H, 2, n) sums
    and the (H,) skip gradient.
    """
    length, h = u.shape
    grad_u = np.empty((h, length), dtype=g.dtype)
    sums = np.empty((h, 2, a_bar.shape[1]), dtype=np.complex128)
    grad_d = np.empty(h)

    def work(s, e):
        rows, v = ssm.to_blocks(g[:, s:e].T), ssm.to_blocks(u[:, s:e].T)
        grad_d[s:e] = np.einsum("hjr,hjr->h", rows, v)
        grad_in, sums[s:e] = ssm.block_adjoint(rows, v, kernels[s:e], a_bar[s:e], w[s:e])
        y = grad_in.reshape(e - s, -1)[:, :length]
        y += d[s:e, None] * rows.reshape(e - s, -1)[:, :length]
        grad_u[s:e] = y

    parallel.run_chunked(h, _block_chunk(h, length), work)
    return grad_u.T, sums, grad_d


def _ssm_conv_forward(u, a_re, a_im, c_re, c_im, d, log_dt, rule, keep_cache, out=None):
    a, c, dt, clamp_mask = ssm_parameters(a_re, a_im, c_re, c_im, log_dt)
    disc = ssm.discretize(a, dt, rule)
    w = 2.0 * c * disc.b_bar
    kernels = ssm.kernel_bank(w, disc.a_bar, ssm.conv_taps(u.shape[0]))  # (H, taps)
    d64 = np.asarray(d, dtype=np.float64)
    y = _chunked_conv(kernels, u, d64, disc.a_bar, w, out=out)
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

    The input gradient is sum_l K_l g[t + l] + d g[t].  The kernel gradient
    is the causal correlation of the upstream signal g with the input; its
    two pole sums (ssm.correlation_pole_sums, the kernel's adjoint) feed
    the pole and projection gradients.  The split follows the forward's: a
    bag of at most two blocks runs the forward's own convolution
    (_chunked_conv, with the cached taps) in reversed time, correlates over
    the full length and weights every lag by the pole powers; a longer one
    makes one pass over blocks (_chunked_block_backward, ssm.block_adjoint),
    which gives the input gradient and the sums from the cached taps,
    in-block spectra and carried block sums without forming the
    correlation.  The pole and projection gradients then chain through the
    discretization map.  Complex adjoints use the convention
    z_hat = dL/d re(z) + i dL/d im(z), so holomorphic steps multiply by the
    conjugated derivative.
    """
    if cache.u is None:
        raise ContractError("ssm-conv was evaluated without gradient caching")
    length = cache.u.shape[0]
    disc = cache.disc
    if cache.kernels.shape[1] < length:
        grad_u, sums, grad_d = _chunked_block_backward(upstream, cache.u, cache.kernels, cache.d,
                                                       disc.a_bar, cache.w)
    else:
        grad_u = _chunked_conv(cache.kernels, upstream, cache.d, disc.a_bar, cache.w, reverse=True)
        gk, grad_d = _chunked_corr(upstream, cache.u)
        sums = ssm.correlation_pole_sums(gk, disc.a_bar)
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


def grad_check_cases(seed: int) -> dict:
    """The ``s4mil grad-check`` audit: name -> (build_tape, params) for check_gradients.

    One small case per op, the ssm-conv under both rules on a 10-token bag
    (the full-length path) and on a bag of 2 STATE_BLOCK + 37 tokens
    (states carried across blocks, with the input held fixed as an unnamed
    leaf so that the differences cover the six parameter arrays), and two
    small aggregators: a multitask one on 16 tokens, and one whose loss
    reads the max-pool only (so its tape records the last layer's mixing
    and GLU on the pooled tokens alone) on 2 STATE_BLOCK + 37 tokens.
    Every value derives from ``seed``.
    """
    from .model import ModelConfig, build_tape, init_parameters  # model imports this module

    rng = substream(seed, "grad-check")

    def case(op, params, labels):
        # the tape applies op to the named leaves of params and ends in a summed loss
        def build(p):
            tape = Tape(dtype=np.float64)
            out = op(tape, {k: tape.leaf(v, k) for k, v in p.items()})
            tape.softmax_log_loss(out, labels)
            return tape

        return build, params

    def ssm_case(length):
        h, n_half = 3, 2
        u = rng.standard_normal((length, h))
        params = {
            "a_re": -rng.uniform(0.2, 1.5, (h, n_half)),
            "a_im": np.pi * rng.uniform(0, 2, (h, n_half)),
            "c_re": rng.standard_normal((h, n_half)),
            "c_im": rng.standard_normal((h, n_half)),
            "d": rng.standard_normal(h),
            "log_dt": rng.uniform(np.log(0.01), np.log(0.5), h),
        }
        return u, params, rng.integers(0, h, length)

    cases = {
        "affine": case(lambda t, n: t.matvec(n["x"], n["w"], n["b"]),
                       {"x": rng.standard_normal((6, 3)), "w": rng.standard_normal((3, 4)),
                        "b": rng.standard_normal(4)}, rng.integers(0, 4, 6)),
        "elementwise": case(lambda t, n: t.scale(t.mul(n["a"], t.sigmoid(n["g"])), 0.31),
                            {"a": rng.standard_normal((5, 3)), "g": rng.standard_normal((5, 3))},
                            rng.integers(0, 3, 5)),
        "layernorm": case(lambda t, n: t.layernorm(n["x"], n["s"], n["t"]),
                          {"x": rng.standard_normal((7, 4)), "s": 1 + 0.2 * rng.standard_normal(4),
                           "t": 0.1 * rng.standard_normal(4)}, rng.integers(0, 4, 7)),
        "max-pool": case(lambda t, n: t.max_pool_sequence(n["x"]),
                         {"x": rng.standard_normal((9, 5))}, [2]),
    }
    for rule in ("bilinear", "zoh"):
        u, params, labels = ssm_case(10)
        # u leads the leaves, which follow the order ssm_conv takes them
        cases[f"ssm-conv-{rule}"] = case(lambda t, n, rule=rule: t.ssm_conv(*n.values(), rule=rule),
                                         {"u": u, **params}, labels)

    def mil_case(multitask, length):
        # a small aggregator; a multitask one's loss adds the patch head's term
        cfg = ModelConfig(input_dim=8, hidden_dim=4, state_dim=4, num_classes=2,
                          multitask=multitask, num_patch_classes=2 if multitask else None)
        params = {k: v.astype(np.float64) for k, v in init_parameters(cfg, seed=seed).params.items()}
        features = rng.standard_normal((length, 8))
        loss = {"patch_labels": rng.integers(0, 2, length), "lam": 5.0} if multitask else {}

        def build(p):
            return build_tape(cfg, p, features, slide_label=1, dtype=np.float64, **loss).tape

        return build, params

    cases["mil-model"] = mil_case(True, 16)

    for rule in ("bilinear", "zoh"):
        u, params, labels = ssm_case(2 * ssm.STATE_BLOCK + 37)
        cases[f"ssm-conv-blocks-{rule}"] = case(
            lambda t, n, u=u, rule=rule: t.ssm_conv(t.leaf(u), *n.values(), rule=rule),
            params, labels)
    cases["mil-model-pooled"] = mil_case(False, 2 * ssm.STATE_BLOCK + 37)
    return cases
