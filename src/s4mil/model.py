"""The sequence aggregator and its pooling baselines.

Pipeline per bag: linear projection to H channels, per-token layer
normalization, then one or more blocks of [feature-wise SSM with skip ->
token-wise mixing to 2H -> gated linear unit back to H], an optional
per-token patch head, max pooling over the sequence, and a linear
classifier with softmax.

The mixing affine is stored as two H->H maps (value half and gate half of
the 2H output); together they are exactly the doubling affine feeding the
GLU and count H*2H + 2H parameters.

Each SSM channel keeps n_half = N/2 complex poles; real/imaginary parts are
separate trainable arrays so one channel contributes 2N pole/projection
parameters, plus one timestep and one feedthrough.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import ssm
from .autograd import Node, Tape, ssm_parameters
from .errors import ContractError, EmptyBagError, NumericalError
from .seeding import substream

DISCRETIZATIONS = ("bilinear", "zoh")


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int = 1024
    hidden_dim: int = 512
    state_dim: int = 32
    num_classes: int = 2
    num_ssm_layers: int = 1
    multitask: bool = False
    discretization: str = "bilinear"
    num_patch_classes: int | None = None

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim", "state_dim", "num_classes", "num_ssm_layers"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ContractError(f"{name} must be a positive integer, got {v!r}")
        if self.state_dim % 2 != 0:
            raise ContractError(f"state_dim must be even (conjugate-pair storage), got {self.state_dim}")
        if self.discretization not in DISCRETIZATIONS:
            raise ContractError(f"discretization must be one of {DISCRETIZATIONS}, got {self.discretization!r}")
        if self.num_patch_classes is not None and (not isinstance(self.num_patch_classes, int) or self.num_patch_classes < 1):
            raise ContractError(f"num_patch_classes must be a positive integer, got {self.num_patch_classes!r}")

    @property
    def n_half(self) -> int:
        return self.state_dim // 2

    @property
    def patch_classes(self) -> int:
        return self.num_patch_classes if self.num_patch_classes is not None else self.num_classes


def parameter_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Declaration-ordered shapes; this order is the checkpoint layout."""
    d, h, n = config.input_dim, config.hidden_dim, config.n_half
    shapes: dict[str, tuple] = {
        "projection.weight": (d, h),
        "projection.bias": (h,),
        "norm.scale": (h,),
        "norm.shift": (h,),
    }
    for i in range(config.num_ssm_layers):
        shapes[f"ssm{i}.a_re"] = (h, n)
        shapes[f"ssm{i}.a_im"] = (h, n)
        shapes[f"ssm{i}.c_re"] = (h, n)
        shapes[f"ssm{i}.c_im"] = (h, n)
        shapes[f"ssm{i}.log_dt"] = (h,)
        shapes[f"ssm{i}.d"] = (h,)
        shapes[f"mix{i}.value_weight"] = (h, h)
        shapes[f"mix{i}.value_bias"] = (h,)
        shapes[f"mix{i}.gate_weight"] = (h, h)
        shapes[f"mix{i}.gate_bias"] = (h,)
    shapes["classifier.weight"] = (h, config.num_classes)
    shapes["classifier.bias"] = (config.num_classes,)
    if config.multitask:
        shapes["patch_head.weight"] = (h, config.patch_classes)
        shapes["patch_head.bias"] = (config.patch_classes,)
    return shapes


def count_parameters(config: ModelConfig) -> int:
    """Closed-form trainable parameter count.

    D*H + H (projection) + 2H (norm) + per layer [2*H*N (pole and projection
    halves) + H (log timestep) + H (feedthrough) + 2H^2 + 2H (mixing)]
    + H*C + C (classifier) [+ H*P + P patch head when multitask].
    """
    d, h, n_state = config.input_dim, config.hidden_dim, config.state_dim
    per_layer = 2 * h * n_state + h + h + 2 * h * h + 2 * h
    total = d * h + h + 2 * h + config.num_ssm_layers * per_layer \
        + h * config.num_classes + config.num_classes
    if config.multitask:
        total += h * config.patch_classes + config.patch_classes
    return total


class ParameterVector(Mapping):
    """Named arrays that are views into one 1-D vector, laid out in the order
    of ``shapes``.

    Whole-vector work (an optimizer step, a best-epoch copy, a checkpoint's
    payload) reads and writes ``vector``; everything else reads the named
    views.  Assigning to a name copies into its view, so every name stays
    backed by the vector.
    """

    def __init__(self, vector: np.ndarray, shapes: Mapping[str, tuple]):
        self.shapes = {name: tuple(shape) for name, shape in shapes.items()}
        self._views = {}
        start = 0
        for name, shape in self.shapes.items():
            stop = start + math.prod(shape)
            self._views[name] = vector[start:stop].reshape(shape)
            start = stop
        if vector.shape != (start,):
            raise ContractError(f"the parameters need a vector of {start} values, got shape {vector.shape}")
        self.vector = vector

    @classmethod
    def pack(cls, arrays: Mapping[str, np.ndarray], dtype=None) -> "ParameterVector":
        """Copies of ``arrays``, in their order, in one new vector (of ``dtype``
        if given, else of the arrays' common type)."""
        arrays = {name: np.asarray(value) for name, value in arrays.items()}
        vector = _gathered(arrays.values(), dtype or np.result_type(*arrays.values()))
        return cls(vector, {name: a.shape for name, a in arrays.items()})

    def flatten(self, arrays: Mapping[str, np.ndarray], dtype=None) -> np.ndarray:
        """``arrays`` as one vector in this layout, of ``dtype`` if given, else
        of the arrays' common type.

        A ParameterVector with this layout gives its own vector (cast only
        if its dtype differs); any other mapping is copied into a new one.
        Its names and shapes must be this layout's.
        """
        if isinstance(arrays, ParameterVector) and list(arrays.shapes.items()) == list(self.shapes.items()):
            return arrays.vector.astype(dtype or arrays.vector.dtype, copy=False)
        if arrays.keys() != self.shapes.keys():
            missing = [name for name in self.shapes if name not in arrays]
            if missing:
                raise ContractError(f"no value for parameter {missing[0]!r}")
            raise ContractError(f"{next(n for n in arrays if n not in self.shapes)!r} is not a parameter")
        values = [np.asarray(arrays[name]) for name in self.shapes]
        for (name, shape), value in zip(self.shapes.items(), values):
            if value.shape != shape:
                raise ContractError(f"parameter {name!r} has shape {shape}, got {value.shape}")
        return _gathered(values, dtype or np.result_type(*values))

    def name_at(self, index: int) -> str:
        """The name whose view holds vector[index]."""
        for name, view in self._views.items():
            index -= view.size
            if index < 0:
                return name
        raise IndexError(index)

    def copy(self) -> "ParameterVector":
        return ParameterVector(self.vector.copy(), self.shapes)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        view = self._views[name]
        if np.shape(value) != view.shape:
            raise ContractError(f"parameter {name!r} has shape {view.shape}, got {np.shape(value)}")
        view[...] = value

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    # dict's own views: build_tape reads the items of every bag's parameters
    def keys(self):
        return self._views.keys()

    def items(self):
        return self._views.items()

    def values(self):
        return self._views.values()


def _gathered(arrays, dtype) -> np.ndarray:
    """The arrays' values, one after another, in a new vector of ``dtype``.
    Each is copied straight into place: a concatenated temporary (at paper
    scale, megabytes) would stay resident in the heap after it is freed."""
    vector = np.empty(sum(a.size for a in arrays), dtype)
    start = 0
    for a in arrays:
        vector[start:start + a.size] = a.reshape(-1)
        start += a.size
    return vector


@dataclass
class MilModel:
    """Configuration plus the full trainable parameter set: float32 views
    into one vector, in ``parameter_shapes`` order (the checkpoint's payload
    order).  Parameters given as any other mapping are copied into one."""

    config: ModelConfig
    params: ParameterVector = field(repr=False)

    def __post_init__(self):
        expected = parameter_shapes(self.config)
        if list(self.params.keys()) != list(expected.keys()):
            raise ContractError(
                f"parameter names/order mismatch: {list(self.params)} vs {list(expected)}"
            )
        for name, shape in expected.items():
            if self.params[name].shape != shape:
                raise ContractError(f"{name} must have shape {shape}, got {self.params[name].shape}")
        if not (isinstance(self.params, ParameterVector) and self.params.vector.dtype == np.float32):
            self.params = ParameterVector.pack(self.params, np.float32)

    def parameters(self) -> ParameterVector:
        return self.params

    def copy_params(self) -> ParameterVector:
        return self.params.copy()


def init_parameters(config: ModelConfig, seed: int) -> MilModel:
    """Deterministic initialization.

    Poles start at -1/2 + i*pi*k (k-th conjugate pair), projections are
    unit-variance circular normals, log timesteps are uniform over
    [log 0.001, log 0.1], feedthrough starts at 1, and affine maps use
    fan-in-scaled uniform weights and biases.
    """
    rng = substream(seed, "init")
    h, n = config.hidden_dim, config.n_half

    def affine(fan_in, shape_w, shape_b):
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, shape_w)
        b = rng.uniform(-bound, bound, shape_b)
        return w, b

    params: dict[str, np.ndarray] = {}
    pw, pb = affine(config.input_dim, (config.input_dim, h), (h,))
    params["projection.weight"] = pw
    params["projection.bias"] = pb
    params["norm.scale"] = np.ones(h)
    params["norm.shift"] = np.zeros(h)
    for i in range(config.num_ssm_layers):
        params[f"ssm{i}.a_re"] = np.full((h, n), -0.5)
        params[f"ssm{i}.a_im"] = np.tile(np.pi * np.arange(n), (h, 1))
        params[f"ssm{i}.c_re"] = rng.standard_normal((h, n)) * np.sqrt(0.5)
        params[f"ssm{i}.c_im"] = rng.standard_normal((h, n)) * np.sqrt(0.5)
        params[f"ssm{i}.log_dt"] = rng.uniform(np.log(0.001), np.log(0.1), h)
        params[f"ssm{i}.d"] = np.ones(h)
        vw, vb = affine(h, (h, h), (h,))
        gw, gb = affine(h, (h, h), (h,))
        params[f"mix{i}.value_weight"] = vw
        params[f"mix{i}.value_bias"] = vb
        params[f"mix{i}.gate_weight"] = gw
        params[f"mix{i}.gate_bias"] = gb
    cw, cb = affine(h, (h, config.num_classes), (config.num_classes,))
    params["classifier.weight"] = cw
    params["classifier.bias"] = cb
    if config.multitask:
        hw, hb = affine(h, (h, config.patch_classes), (config.patch_classes,))
        params["patch_head.weight"] = hw
        params["patch_head.bias"] = hb
    return MilModel(config=config, params=params)


# --------------------------------------------------------------------------
# Forward passes
# --------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class TapeBundle(NamedTuple):
    tape: Tape
    slide_logits: Node
    patch_logits: Node | None


def _check_features(config: ModelConfig, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features)
    if features.ndim != 2:
        raise ContractError(f"bag features must be (L, D), got shape {features.shape}")
    if features.shape[0] == 0:
        raise EmptyBagError("empty bag: a sequence needs at least one token")
    if features.shape[1] != config.input_dim:
        raise ContractError(
            f"feature dimension {features.shape[1]} does not match input_dim {config.input_dim}"
        )
    # NaN and +-inf reach the extremes, so the (L, D) mask is built only to name one
    if not (np.isfinite(features.min()) and np.isfinite(features.max())):
        finite = np.isfinite(features)
        token, dim = np.unravel_index(np.argmin(finite), finite.shape)
        raise NumericalError(f"non-finite feature at token {token}, feature {dim}: "
                             f"{features[token, dim]}")
    return features


def _recurrence_layer_output(params: dict, prefix: str, u: np.ndarray, rule: str) -> np.ndarray:
    """Per-channel oracle path: run each channel's stepped recurrence."""
    names = ("a_re", "a_im", "c_re", "c_im", "log_dt")
    a, c, dt, _ = ssm_parameters(*(params[f"{prefix}.{k}"] for k in names))
    disc = ssm.discretize(a, dt, rule)
    d = np.asarray(params[f"{prefix}.d"], dtype=np.float64)
    out = np.empty(u.shape, dtype=np.float64)
    for hch in range(u.shape[1]):
        out[:, hch] = ssm.run_recurrence(disc.a_bar[hch], disc.b_bar[hch], c[hch], d[hch],
                                         u[:, hch])
    if not np.all(np.isfinite(out)):
        raise NumericalError("recurrence produced non-finite outputs")
    return out


def build_tape(config: ModelConfig, params: dict[str, np.ndarray], features: np.ndarray,
               slide_label: int | None = None, patch_labels=None, lam: float = 0.0,
               mode: str = "conv", dtype=np.float32, grad_enabled: bool = True) -> TapeBundle:
    """Assemble one bag's forward graph (slide_logits is a (1, C) row); given a
    slide label, the tape ends in the loss, which tape.forward() returns.

    A gradient tape of a model without a patch head records the last layer's
    mixing and GLU only on the tokens the max-pool picks: the max-pool passes
    gradient to at most one token per channel, so the head's backward over
    every other token would multiply zeros.  The GLU first runs over every
    token on a gradient-free tape to find those tokens; a ``rows`` node then
    gathers them (sorted, so the max-pool's lowest-index rule still picks
    the same token on a tie) and scatters their gradient back.  The loss,
    logits and gradients are the dense tape's up to BLAS rounding: a
    product of the gathered rows may take another kernel than one of all
    L rows (a single row, a matrix-vector product) and differ in the last
    bit.  At paper scale (L=30000, H=512, float32) they are byte-identical
    with OpenBLAS 0.3.31.  A multitask model's patch head reads every
    token's GLU output, so its tape records the head on every token.
    """
    features = _check_features(config, features)
    if mode not in ("conv", "recurrence"):
        raise ContractError(f"unknown forward mode {mode!r}")
    tape = Tape(dtype=dtype, grad_enabled=grad_enabled)
    leaves = {name: tape.leaf(value, name) for name, value in params.items()}

    def glu(tape: Tape, y: Node, i: int) -> Node:
        # layer i's mixing to 2H and gated linear unit back to H, recorded on tape
        value = tape.matvec(y, leaves[f"mix{i}.value_weight"], leaves[f"mix{i}.value_bias"])
        gate = tape.matvec(y, leaves[f"mix{i}.gate_weight"], leaves[f"mix{i}.gate_bias"])
        return tape.mul(value, tape.sigmoid(gate))

    x = tape.leaf(features)
    x = tape.matvec(x, leaves["projection.weight"], leaves["projection.bias"])
    x = tape.layernorm(x, leaves["norm.scale"], leaves["norm.shift"])
    for i in range(config.num_ssm_layers):
        if mode == "conv":
            y = tape.ssm_conv(x, leaves[f"ssm{i}.a_re"], leaves[f"ssm{i}.a_im"],
                              leaves[f"ssm{i}.c_re"], leaves[f"ssm{i}.c_im"],
                              leaves[f"ssm{i}.d"], leaves[f"ssm{i}.log_dt"],
                              rule=config.discretization)
        else:
            # Oracle path: forward-only, parameters enter as a plain input.
            y = tape.leaf(_recurrence_layer_output(params, f"ssm{i}", x.value.astype(np.float64),
                                                   config.discretization))
        if i == config.num_ssm_layers - 1 and tape.grad_enabled and not config.multitask:
            # each channel's max-pool token (first occurrence wins) from every
            # token's GLU output, on a gradient-free tape freed right away
            winners = np.argmax(glu(Tape(dtype=dtype, grad_enabled=False), y, i).value, axis=0)
            y = tape.rows(y, np.unique(winners))
        x = glu(tape, y, i)
    patch_logits = None
    if config.multitask:
        patch_logits = tape.matvec(x, leaves["patch_head.weight"], leaves["patch_head.bias"])
    pooled = tape.max_pool_sequence(x)
    slide_logits = tape.matvec(pooled, leaves["classifier.weight"], leaves["classifier.bias"])
    if slide_label is not None:
        loss = tape.softmax_log_loss(slide_logits, [int(slide_label)])
        if config.multitask and lam != 0.0:
            if patch_labels is None:
                raise ContractError("multitask loss with lam != 0 requires patch labels")
            patch_labels = np.asarray(patch_labels, dtype=np.int64)
            if patch_labels.shape != (features.shape[0],):
                raise ContractError(
                    f"patch labels must have length {features.shape[0]}, got {patch_labels.shape}"
                )
            patch_term = tape.softmax_log_loss(patch_logits, patch_labels)
            tape.add(loss, tape.scale(patch_term, lam / features.shape[0]))
    return TapeBundle(tape=tape, slide_logits=slide_logits, patch_logits=patch_logits)


class ForwardResult(NamedTuple):
    slide_probs: np.ndarray
    patch_probs: np.ndarray | None


def forward_mil(model: MilModel, features: np.ndarray, mode: str = "conv",
                dtype=np.float32) -> ForwardResult:
    """Class probabilities for one bag (and per-token probabilities when multitask).

    The tape is gradient-free, so its elementwise ops reuse the arrays they
    consume: a one-layer model holds at most 3 (L, H) planes (the ssm-conv
    output, the value and GLU, the gate and sigmoid) besides the features.
    """
    bundle = build_tape(model.config, model.params, features, mode=mode, dtype=dtype,
                        grad_enabled=False)
    slide = softmax(bundle.slide_logits.value)[0]
    patch = softmax(bundle.patch_logits.value) if bundle.patch_logits is not None else None
    return ForwardResult(slide_probs=slide, patch_probs=patch)


# --------------------------------------------------------------------------
# Pooling baselines
# --------------------------------------------------------------------------

# The baselines are forward-only: `s4mil bench` times them against the
# aggregator with the head as initialized.  Nothing trains them, so they
# have no tape.

POOLING_KINDS = ("mean", "max")


@dataclass
class PoolingModel:
    """Feature-wise pooling over the sequence plus an affine softmax head."""

    kind: str
    weight: np.ndarray  # (D, C)
    bias: np.ndarray  # (C,)


def init_pooling_baseline(kind: str, input_dim: int, num_classes: int, seed: int) -> PoolingModel:
    if kind not in POOLING_KINDS:
        raise ContractError(f"pooling kind must be one of {POOLING_KINDS}, got {kind!r}")
    rng = substream(seed, f"pool-init-{kind}")
    bound = 1.0 / np.sqrt(input_dim)
    return PoolingModel(
        kind=kind,
        weight=rng.uniform(-bound, bound, (input_dim, num_classes)).astype(np.float32),
        bias=rng.uniform(-bound, bound, num_classes).astype(np.float32),
    )


def pool_features(kind: str, features: np.ndarray) -> np.ndarray:
    """Order-independent pooling: identical bytes out for any token permutation."""
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[0] == 0:
        raise EmptyBagError(f"pooling needs a non-empty (L, D) bag, got shape {features.shape}")
    if kind == "max":
        return features.max(axis=0).astype(np.float64)
    if kind == "mean":
        # summing in sorted order makes the result independent of token order
        ordered = np.sort(np.asarray(features, dtype=np.float64), axis=0)
        return ordered.sum(axis=0) / features.shape[0]
    raise ContractError(f"pooling kind must be one of {POOLING_KINDS}, got {kind!r}")


def forward_pooling_baseline(model: PoolingModel, features: np.ndarray) -> np.ndarray:
    pooled = pool_features(model.kind, features)
    if pooled.shape[0] != model.weight.shape[0]:
        raise ContractError(
            f"feature dimension {pooled.shape[0]} does not match head input {model.weight.shape[0]}"
        )
    logits = pooled @ model.weight.astype(np.float64) + model.bias.astype(np.float64)
    return softmax(logits)
