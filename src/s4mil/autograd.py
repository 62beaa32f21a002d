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

One rule says what a tape holds, on either kind: `layernorm`, `ssm_conv`,
`sigmoid` and `mul` write their result into their first input's array when
that input is not a leaf, no earlier op consumed it, and no backward this
op records reads it.  A gradient-free tape records none, so those ops take
every such input; on a gradient tape `layernorm` and `sigmoid` take theirs,
while `ssm_conv` and `mul` keep the inputs their backwards read.  A taken
node gives its value up (it becomes None), so no node reports an array
that a later op overwrote, and an op handed the node afterwards raises
ContractError.  Leaves are never written, so neither are the caller's
features nor the parameters.  No op takes a leaf's value, but a
gradient-free model tape drops its feature leaf's value once the
projection has read it (model.build_tape).

`rows` gathers some rows of an (L, H) activation and scatters their
gradient back into a zero (L, H) one.  A gradient tape of a model without
a patch head uses it to record the last layer's mixing and GLU on the
tokens the max-pool picks, at most H of them, since the max-pool passes
gradient to no other token (model.build_tape).  A multitask model's patch
head reads every token, so its tape records the head densely.  The
backward of `rows` reads only its input's shape, dtype and layout, so
`rows` takes its input by the rule above too, without writing into it.

Training runs the tape in float32; gradient-check builds use float64.
The ssm-conv op maps its parameters to poles and timesteps, discretizes
them (ssm.discretize), hands the convolution to ssm.causal_conv and its
adjoint to ssm.causal_conv_adjoint, and chains their pole sums through
the discretization.  The engine (chunks of channels, blocks, and the
dtype each runs in) lives in the ssm module, whose docstrings give it.
"""

from dataclasses import dataclass, field
from itertools import takewhile

import numpy as np

from .errors import ContractError, NumericalError
from .seeding import substream
from . import ssm

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
    a new array laid out like the value (like g if the node gave it up).
    """
    if node.grad is None:
        v = g if node.value is None else node.value
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
        raise ContractError(f"{op}: an input's value was taken by a later op")
    return tuple(n.value for n in nodes)


def log_softmax(logits) -> np.ndarray:
    """Log-probabilities along the last (class) axis, in float64, shifted by
    the max: the package's only softmax, for training and validation alike."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def picked(log_probs: np.ndarray, labels, what: str) -> np.ndarray:
    """log_probs[..., label] along the last (class) axis; every label must be a class index."""
    labels, classes = np.asarray(labels, dtype=np.int64), log_probs.shape[-1]
    if np.any(bad := (labels < 0) | (labels >= classes)):
        raise ContractError(f"{what} label {labels[bad].flat[0]} is outside 0..{classes - 1}")
    return np.take_along_axis(log_probs, labels[..., None], axis=-1)[..., 0]


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

    def _take(self, node: Node, read: bool) -> np.ndarray | None:
        """The first input's array for the op's result, by the module's rule (``read``: a
        backward this op records reads it); the node gives its value up.  None if it is kept."""
        later = takewhile(lambda n: n is not node, reversed(self.nodes))  # the ops after node
        if read or node.op == "leaf" or any(p is node for n in later for p in n.parents):
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
        value = np.multiply(av, bv, out=self._take(a, read=self._needs_grad((a, b))))

        def backward_fn(g):
            if a.needs_grad:
                _accumulate(a, g * b.value)
            if b.needs_grad:
                _accumulate(b, g * a.value)

        return self._append("elementwise-mul", value, (a, b), backward_fn=backward_fn)

    def sigmoid(self, x: Node) -> Node:
        (xv,) = _values("sigmoid", x)
        value = _sigmoid(xv, out=self._take(x, read=False))

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
        laid out like x; it reads only x's shape, dtype and layout, so x
        gives its value up by the module's rule.
        """
        (xv,) = _values("rows", x)
        index = np.asarray(index, dtype=np.intp)
        if xv.ndim != 2 or index.ndim != 1:
            raise ContractError(f"rows expects (L, H) and a 1-D index, got {xv.shape}, {index.shape}")
        value = np.take(xv.T, index, axis=1).T
        shape, dtype, order = xv.shape, xv.dtype, "F" if xv.flags.f_contiguous else "C"
        self._take(x, read=False)

        def backward_fn(g):
            gx = np.zeros(shape, dtype, order)
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
        xhat = np.subtract(xv, xv.mean(axis=1, keepdims=True), out=self._take(x, read=False))
        var = np.square(xhat).mean(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
        xhat *= inv_std
        # the backward reads xhat, so the value takes its array only if none is recorded
        value = np.multiply(gv, xhat, out=None if self._needs_grad((x, gamma, beta)) else xhat)
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

        The forward is ssm.causal_conv, K * u plus the skip term d u, from
        the discretized poles; the backward is its adjoint
        (grad_ssm_conv).
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
        value, cache = _ssm_conv_forward(uv, *params, rule,
                                         out=self._take(u, read=self._needs_grad(parents.values())))
        dtype = self.dtype  # the closure must not hold the tape (a reference cycle)

        def backward_fn(g):
            grads = grad_ssm_conv(g, cache)
            for key, parent in parents.items():
                if parent.needs_grad:
                    _accumulate(parent, grads[key].astype(dtype, order="A", copy=False))

        return self._append("ssm-conv", value, parents.values(), backward_fn=backward_fn)

    def softmax_log_loss(self, logits: Node, labels, what: str = "class") -> Node:
        """Fused softmax + negative log likelihood of (rows, C) logits, summed
        over the rows; ends a classification tape; ``what`` names its labels in errors."""
        lv = _values("softmax-log-loss", logits)[0]
        labels = np.asarray(labels, dtype=np.int64)
        if lv.ndim != 2 or labels.shape != (lv.shape[0],):
            raise ContractError(f"loss shape mismatch: logits {logits.value.shape}, labels {labels.shape}")
        log_p = log_softmax(lv)
        dtype = self.dtype  # the closure must not hold the tape (a reference cycle)
        value = np.asarray(-picked(log_p, labels, what).sum(), dtype=dtype)

        def backward_fn(g):
            p = np.exp(log_p)
            p[np.arange(p.shape[0]), labels] -= 1.0
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
    u: np.ndarray
    kernels: np.ndarray
    tables: np.ndarray
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


def _ssm_conv_forward(u, a_re, a_im, c_re, c_im, d, log_dt, rule, out=None):
    a, c, dt, clamp_mask = ssm_parameters(a_re, a_im, c_re, c_im, log_dt)
    disc = ssm.discretize(a, dt, rule)
    w = 2.0 * c * disc.b_bar
    y, kernels, tables = ssm.causal_conv(u, disc.a_bar, w, d, out=out)
    if not np.all(np.isfinite(y)):
        raise NumericalError("ssm-conv produced non-finite outputs")
    return y, SsmConvCache(u=u, kernels=kernels, tables=tables, disc=disc, dt=dt,
                           clamp_mask=clamp_mask, c=c, w=w, d=d)


def grad_ssm_conv(upstream: np.ndarray, cache: SsmConvCache) -> dict[str, np.ndarray]:
    """Gradients of the convolution view w.r.t. (u, a, c, d, log_dt).

    The input gradient is sum_l K_l g[t + l] + d g[t].  The kernel gradient
    is the causal correlation of the upstream signal g with the input; its
    two pole sums (ssm.correlation_pole_sums, the kernel's adjoint) feed
    the pole and projection gradients.  Both come from one pass over the
    forward's blocks (ssm.causal_conv_adjoint), from the cached taps and
    power table, so no correlation longer than a block is formed.  The pole and
    projection gradients then chain through the discretization map.
    Complex adjoints use the convention z_hat = dL/d re(z) + i dL/d im(z),
    so holomorphic steps multiply by the conjugated derivative.
    """
    disc = cache.disc
    grad_u, sums, grad_d = ssm.causal_conv_adjoint(upstream, cache.u, cache.kernels,
                                                   cache.tables, cache.w, cache.d)
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
    (one block: one transform forward, and backward the in-block products
    that every bag runs) and on a bag of 1061 tokens (states carried across
    17 blocks, with the input held fixed as an unnamed leaf so that the
    differences cover the six parameter arrays), and two small aggregators:
    a multitask one on 16 tokens, and one whose loss reads the max-pool only
    (so its tape records the last layer's mixing and GLU on the pooled
    tokens alone) on 1061 tokens.  Every value derives from ``seed``.
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
        u, params, labels = ssm_case(1061)
        cases[f"ssm-conv-blocks-{rule}"] = case(
            lambda t, n, u=u, rule=rule: t.ssm_conv(t.leaf(u), *n.values(), rule=rule),
            params, labels)
    cases["mil-model-pooled"] = mil_case(False, 1061)
    return cases
