"""Training: losses, Adam with lookahead, early stopping, folds, synthetic bags.

The slide-level objective is the mean negative log probability of each
bag's label; the multitask objective adds, per bag, lam/L times the summed
negative log probabilities of its token labels.  Probabilities are floored
at 1e-12 before the log; every floor hit is counted in
``numerical_floor_events`` so healthy runs can assert it never fired.

Optimization is one bag per step (optionally accumulating over
``grad_accum`` bags) with decoupled weight decay applied on every inner
step, and lookahead slow weights synchronized every ``lookahead_k`` steps.
Gradient accumulation and reduction follow the shuffled bag order, so runs
are reproducible given the seed.  Gradients, optimizer state and the
best-epoch copy are each one vector in the model's parameter order.
"""

import contextlib
import csv
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data_io import Bag
from .errors import ContractError, NumericalError, S4MilError
from .metrics import ScoredPrediction, UndefinedMetricError, accuracy, auroc_binary, auroc_ovr
from .model import MilModel, ParameterVector, build_tape, forward_mil
from .seeding import substream

LOSS_FLOOR = 1e-12
STEP_SLICE = 1 << 16  # values per optimizer-step slice: its temporaries are reused, not left in the heap


class _FloorCounter:
    def __init__(self):
        self.count = 0

    def record(self, n: int = 1):
        self.count += n

    def reset(self):
        self.count = 0


numerical_floor_events = _FloorCounter()


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-4
    weight_decay: float = 1e-4
    lookahead_k: int = 5
    lookahead_alpha: float = 0.5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    patience: int = 10
    max_epochs: int = 100
    lam: float = 5.0
    grad_accum: int = 1
    seed: int = 0

    def __post_init__(self):
        for name, value, ok, rule in (
            ("learning_rate", self.learning_rate, self.learning_rate > 0, "> 0"),
            ("patience", self.patience, self.patience >= 1, ">= 1"),
            ("lambda", self.lam, self.lam >= 0, ">= 0"),
            ("max_epochs", self.max_epochs, self.max_epochs >= 1, ">= 1"),
            ("grad_accum", self.grad_accum, self.grad_accum >= 1, ">= 1"),
            ("lookahead_alpha", self.lookahead_alpha, 0 <= self.lookahead_alpha <= 1, "in [0, 1]"),
            ("lookahead_k", self.lookahead_k, self.lookahead_k >= 1, ">= 1"),
            ("adam_beta1", self.adam_beta1, 0 <= self.adam_beta1 < 1, "in [0, 1)"),
            ("adam_beta2", self.adam_beta2, 0 <= self.adam_beta2 < 1, "in [0, 1)"),
            ("adam_eps", self.adam_eps, self.adam_eps > 0, "> 0"),
            ("weight_decay", self.weight_decay, self.weight_decay >= 0, ">= 0"),
        ):
            if not ok:
                raise ContractError(f"{name} must be {rule}, got {value}")


# --------------------------------------------------------------------------
# Losses
# --------------------------------------------------------------------------

def _clamped_log(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    below = p < LOSS_FLOOR
    if np.any(below):
        numerical_floor_events.record(int(below.sum()))
        p = np.maximum(p, LOSS_FLOOR)
    return np.log(p)


def _picked(probs: np.ndarray, labels: np.ndarray, what: str) -> np.ndarray:
    """probs[..., label] along the last (class) axis; every label must be a class index."""
    classes = probs.shape[-1]
    bad = (labels < 0) | (labels >= classes)
    if np.any(bad):
        raise ContractError(f"{what} label {labels[bad].flat[0]} is outside 0..{classes - 1}")
    return np.take_along_axis(probs, labels[..., None], axis=-1)[..., 0]


def mil_loss(slide_probs: Sequence[np.ndarray], labels: Sequence[int]) -> float:
    """Mean negative log probability of each bag's slide label."""
    if len(slide_probs) == 0 or len(slide_probs) != len(labels):
        raise ContractError(
            f"need matching non-empty probabilities and labels, got {len(slide_probs)} vs {len(labels)}"
        )
    picked = np.array([_picked(np.asarray(p, dtype=np.float64), np.int64(y), "slide")
                       for p, y in zip(slide_probs, labels)])
    return float(-np.mean(_clamped_log(picked)))


def multitask_loss(slide_probs, slide_labels, patch_probs, patch_labels, lam: float) -> float:
    """Slide loss plus lam/L-weighted token losses, averaged over bags."""
    if lam < 0:
        raise ContractError(f"lambda must be >= 0, got {lam}")
    if lam == 0.0:
        return mil_loss(slide_probs, slide_labels)  # identical code path for the slide term
    if not (len(slide_probs) == len(slide_labels) == len(patch_probs) == len(patch_labels)):
        raise ContractError("multitask loss needs aligned slide and patch inputs")
    total = 0.0
    for sp, sy, pp, py in zip(slide_probs, slide_labels, patch_probs, patch_labels):
        pp = np.asarray(pp, dtype=np.float64)
        py = np.asarray(py, dtype=np.int64)
        if pp.ndim != 2 or py.shape != (pp.shape[0],):
            raise ContractError(f"patch inputs misaligned: probs {pp.shape}, labels {py.shape}")
        sp = np.asarray(sp, dtype=np.float64)
        slide_term = -float(_clamped_log(_picked(sp, np.int64(sy), "slide")))
        token_terms = -_clamped_log(_picked(pp, py, "patch"))
        total += slide_term + (lam / pp.shape[0]) * float(token_terms.sum())
    return total / len(slide_probs)


# --------------------------------------------------------------------------
# Optimizer
# --------------------------------------------------------------------------

class AdamLookahead:
    """Adam with decoupled weight decay wrapped by lookahead slow weights.

    Every inner step: theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps)
    + weight_decay * theta).  Every ``lookahead_k`` inner steps the slow
    copy moves by alpha toward the fast weights and the fast weights are
    reset onto it.

    The state is flat, in the parameters' order: m and v in float64, the slow
    weights in the parameters' dtype.  A step updates the parameters' vector
    (a plain mapping is packed and written back) STEP_SLICE values at a time.
    """

    def __init__(self, params: Mapping[str, np.ndarray], config: TrainConfig):
        self.config = config
        self.step_count = 0
        self.slow = ParameterVector.pack(params)
        self.m = np.zeros(self.slow.vector.size)
        self.v = np.zeros(self.slow.vector.size)

    def step(self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        cfg = self.config
        g = self.slow.flatten(grads)  # in the gradients' dtype, widened one slice at a time
        if not np.isfinite(g).all():
            name = self.slow.name_at(int(np.argmin(np.isfinite(g))))
            raise NumericalError(f"non-finite gradient for parameter {name!r}; step aborted")
        theta = self.slow.flatten(params, self.slow.vector.dtype)
        self.step_count += 1
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        bias1, bias2 = 1.0 - b1 ** self.step_count, 1.0 - b2 ** self.step_count
        for start in range(0, theta.size, STEP_SLICE):
            part = slice(start, start + STEP_SLICE)
            value, m, v = theta[part], self.m[part], self.v[part]
            grad = g[part].astype(np.float64, copy=False)
            m[...] = b1 * m + (1 - b1) * grad
            v[...] = b2 * v + (1 - b2) * grad * grad
            update = (m / bias1) / (np.sqrt(v / bias2) + cfg.adam_eps)
            if cfg.weight_decay:
                update += cfg.weight_decay * value.astype(np.float64)
            value -= (cfg.learning_rate * update).astype(value.dtype)
            if self.step_count % cfg.lookahead_k == 0:
                slow = self.slow.vector[part]
                slow[...] = slow + cfg.lookahead_alpha * (value.astype(np.float64) - slow)
                value[...] = slow
        if theta is not getattr(params, "vector", None):
            for name, value in ParameterVector(theta, self.slow.shapes).items():
                params[name][...] = value


# --------------------------------------------------------------------------
# Fitting
# --------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float
    val_auroc: float


@dataclass
class FitResult:
    model: MilModel
    history: list[EpochRecord]
    best_epoch: int


@contextlib.contextmanager
def _naming(prefix: str):
    """Re-raise a package error as the same type, its message prefixed with ``prefix``."""
    try:
        yield
    except S4MilError as exc:
        raise type(exc)(f"{prefix}{exc}") from exc


def evaluate_model(model: MilModel, bags: Sequence[Bag], lam: float = 0.0) -> dict:
    """Loss and metrics of a model on a set of bags (conv path, read-only);
    an error raised while a bag is processed names the bag."""
    if not bags:
        raise ContractError("evaluation needs a non-empty split")
    multitask = model.config.multitask and lam > 0 and all(b.patch_labels is not None for b in bags)
    slide_probs, patch_probs = [], []
    for bag in bags:
        with _naming(f"bag {bag.id}: "):
            out = forward_mil(model, bag.features)
        slide_probs.append(out.slide_probs)
        patch_probs.append(out.patch_probs)
    labels = [b.slide_label for b in bags]
    if multitask:
        loss = multitask_loss(slide_probs, labels, patch_probs, [b.patch_labels for b in bags], lam)
    else:
        loss = mil_loss(slide_probs, labels)
    preds = [ScoredPrediction(scores=p, true_label=y) for p, y in zip(slide_probs, labels)]
    acc = accuracy(preds)
    try:
        if model.config.num_classes == 2:
            auroc = auroc_binary(np.array([p[1] for p in slide_probs]), np.array(labels))
        else:
            auroc = auroc_ovr(preds, model.config.num_classes)
    except UndefinedMetricError:
        auroc = float("nan")
    return {"loss": loss, "accuracy": acc, "auroc": auroc,
            "slide_probs": slide_probs, "patch_probs": patch_probs}


def fit(model: MilModel, train_bags: Sequence[Bag], val_bags: Sequence[Bag],
        config: TrainConfig) -> FitResult:
    """Train until validation loss stalls for ``patience`` epochs.

    Restores the parameters of the best validation epoch before returning.
    Deterministic given config.seed: bag order per epoch is a seeded shuffle
    and gradients accumulate in that order.  An error raised while a bag is
    processed, in training or validation, names the epoch and the bag.
    """
    if not train_bags or not val_bags:
        raise ContractError("fit needs non-empty train and validation splits")
    lam = config.lam if model.config.multitask else 0.0
    optimizer = AdamLookahead(model.params, config)
    history: list[EpochRecord] = []
    best_loss = math.inf
    best_params = model.copy_params()
    mean = ParameterVector(np.empty(best_params.vector.size), best_params.shapes)  # each step's gradient
    best_epoch = 0
    stall = 0
    accumulated = 0  # bags summed into accum; every epoch's last bag ends a step
    for epoch in range(1, config.max_epochs + 1):
        order = substream(config.seed, f"shuffle-epoch-{epoch}").permutation(len(train_bags))
        epoch_losses = []
        for step_idx, bag_idx in enumerate(order):
            bag = train_bags[int(bag_idx)]
            with _naming(f"epoch {epoch}, bag {bag.id}: "):
                bundle = build_tape(model.config, model.params, bag.features,
                                    slide_label=bag.slide_label, patch_labels=bag.patch_labels,
                                    lam=lam)
                epoch_losses.append(bundle.tape.forward())
                grads = model.params.flatten(bundle.tape.backward(), np.float64)
            accum = grads if accumulated == 0 else accum + grads
            accumulated += 1
            if accumulated == config.grad_accum or step_idx == len(order) - 1:
                np.divide(accum, accumulated, out=mean.vector)
                with _naming(f"epoch {epoch}, "):  # the step may sum several bags' gradients
                    optimizer.step(model.params, mean)
                accumulated = 0
        with _naming(f"epoch {epoch}, "):
            stats = evaluate_model(model, val_bags, lam=lam)
        history.append(EpochRecord(
            epoch=epoch,
            train_loss=float(np.mean(epoch_losses)),
            val_loss=stats["loss"],
            val_accuracy=stats["accuracy"],
            val_auroc=stats["auroc"],
        ))
        if stats["loss"] < best_loss:
            best_loss = stats["loss"]
            best_params = model.copy_params()
            best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break
    model.params.vector[...] = best_params.vector
    return FitResult(model=model, history=history, best_epoch=best_epoch)


# --------------------------------------------------------------------------
# Folds
# --------------------------------------------------------------------------

def kfold(labels: Sequence[int], k: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Label-stratified k-fold partition of indices.

    Classes with fewer than k members trigger a warning and an unstratified
    split.  Every index lands in exactly one validation fold.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    if k < 2 or k > n:
        raise ContractError(f"k must be in [2, {n}], got {k}")
    rng = substream(seed, "kfold")
    counts = np.bincount(labels)
    fold_of = np.empty(n, dtype=np.int64)
    if np.any(counts[counts > 0] < k):
        warnings.warn(
            f"class with fewer than {k} members: falling back to an unstratified split",
            stacklevel=2,
        )
        order = rng.permutation(n)
        fold_of[order] = np.arange(n) % k
    else:
        for cls in np.nonzero(counts)[0]:
            members = np.nonzero(labels == cls)[0]
            members = members[rng.permutation(members.size)]
            fold_of[members] = np.arange(members.size) % k
    splits = []
    for fold in range(k):
        val = np.nonzero(fold_of == fold)[0]
        train = np.nonzero(fold_of != fold)[0]
        splits.append((train, val))
    return splits


# --------------------------------------------------------------------------
# Synthetic bags
# --------------------------------------------------------------------------

SIGNAL_SHIFT = 1.0  # added to every feature of a signal token


@dataclass(frozen=True)
class SyntheticTaskSpec:
    task: str = "needle"
    num_bags: int = 200
    length_range: tuple[int, int] = (128, 512)
    feature_dim: int = 16
    signal_rate: float = 0.05
    noise_sigma: float = 1.0

    def __post_init__(self):
        if self.task not in ("needle", "majority"):
            raise ContractError(f"task must be 'needle' or 'majority', got {self.task!r}")
        lo, hi = self.length_range
        if lo < 1 or hi < lo:
            raise ContractError(f"length_range must satisfy 1 <= L_min <= L_max, got {self.length_range}")
        if not 0 < self.signal_rate <= 1:
            raise ContractError(f"signal_rate must be in (0, 1], got {self.signal_rate}")
        if self.task == "majority" and self.signal_rate <= 0.5:
            raise ContractError("majority task needs signal_rate > 0.5 so labels match the majority")
        if self.num_bags < 2:
            raise ContractError(f"num_bags must be >= 2, got {self.num_bags}")
        if self.feature_dim < 1:
            raise ContractError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.noise_sigma < 0:
            raise ContractError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def generate_synthetic(spec: SyntheticTaskSpec, seed: int) -> list[Bag]:
    """Balanced labelled bags; signal tokens are noise shifted by +1 everywhere.

    needle: positive bags hide ceil(signal_rate * L) signal tokens, negative
    bags are pure noise.  majority: both labels carry signal tokens, the
    label marking whether they form the majority.  Patch labels flag signal
    tokens; coords lay tokens on a row-major square grid for heatmap export.
    """
    rng = substream(seed, "synth")
    lo, hi = spec.length_range
    bags = []
    for m in range(spec.num_bags):
        label = m % 2
        length = int(rng.integers(lo, hi + 1))
        features = spec.noise_sigma * rng.standard_normal((length, spec.feature_dim))
        n_signal = math.ceil(spec.signal_rate * length)
        if spec.task == "majority" and label == 0:
            n_signal = length - n_signal
        elif spec.task == "needle" and label == 0:
            n_signal = 0
        patch_labels = np.zeros(length, dtype=np.int64)
        if n_signal > 0:
            idx = rng.choice(length, size=n_signal, replace=False)
            features[idx] += SIGNAL_SHIFT
            patch_labels[idx] = 1
        side = math.ceil(math.sqrt(length))
        coords = np.stack([np.arange(length) // side, np.arange(length) % side], axis=1)
        bags.append(Bag(
            id=f"synth-{m:04d}",
            features=features.astype(np.float32),
            slide_label=label,
            patch_labels=patch_labels,
            coords=coords,
        ))
    return bags


# --------------------------------------------------------------------------
# History files
# --------------------------------------------------------------------------

HISTORY_COLUMNS = ["epoch", "train_loss", "val_loss", "val_accuracy", "val_auroc"]


def write_history(path, history: list[EpochRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for rec in history:
            writer.writerow([rec.epoch, repr(rec.train_loss), repr(rec.val_loss),
                             repr(rec.val_accuracy), repr(rec.val_auroc)])


def read_history(path) -> list[EpochRecord]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != HISTORY_COLUMNS:
            raise ContractError(f"history header must be {HISTORY_COLUMNS}, got {header}")
        return [EpochRecord(epoch=int(row[0]), train_loss=float(row[1]), val_loss=float(row[2]),
                            val_accuracy=float(row[3]), val_auroc=float(row[4]))
                for row in reader]
