"""The benchmark's workloads, each driving s4mil's public functions.

Every workload has fixed sizes; the workload seed draws only values
(features, needle positions, initial parameters), so runs with different
seeds do the same work and their counters repeat exactly.  Labels, the fold
split and the training shuffle order are fixed for the same reason: the
first two decide which bag lengths land in training, and the order decides
which finished tapes are alive together, and with it the peak memory.

A workload is set up (``setup``), repeats a fixed unit of work
(``run_unit``) and finally checks every unit's outputs (``check``), outside
the timed phase.  Set-up may run again before any unit; it rebuilds the same
inputs from the seed, so every unit does the same work.  The package is
called through module attributes so that the tracer's patches are seen.

* ``slide-infer``: the ``s4mil evaluate`` path on a few paper-scale bags.
  Forward-only; ssm FFT convolution, ``kernel_bank``, the tape sigmoid and
  BLAS projections dominate, and the few large files load ``data_io``.
  33,000 tokens sits just above an FFT size boundary (2L-1 > 65,536).
* ``paper-train-step``: one training step at paper scale (forward, backward,
  optimizer).  The only workload dominated by ``grad_ssm_conv``.
* ``needle-train``: the acceptance-scale ``s4mil train`` loop on a small
  needle corpus; per-node tape overhead, the optimizer's per-array loop and
  many small file reads dominate, FFTs and BLAS barely register.
"""

import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from s4mil import checkpoint, data_io, metrics, model, train
from s4mil.errors import S4MilError


@dataclass
class Unit:
    """One repetition of a workload's timed work and what it produced."""

    tokens: int
    attempted: int
    failed: int
    output: dict


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _features(rng: np.random.Generator, shape) -> np.ndarray:
    """Zero-mean, unit-variance uniform float32 values; a quarter of the cost
    of normal draws, which matters at 10^8 values per set-up."""
    x = rng.random(shape, dtype=np.float32)
    x -= 0.5
    x *= np.float32(math.sqrt(12.0))
    return x


def _brute_force_auroc(scores, labels) -> float:
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


# --------------------------------------------------------------------------
# slide-infer
# --------------------------------------------------------------------------

def _token_outputs(mil, features, mode: str) -> dict:
    """Every token's activation (the max pool's input) and the slide logits."""
    bundle = model.build_tape(mil.config, mil.params, features, mode=mode, grad_enabled=False)
    pool = next(n for n in bundle.tape.nodes if n.op == "max-pool-over-sequence")
    return {"token activations": pool.parents[0].value, "slide logits": bundle.slide_logits.value}


@dataclass(frozen=True)
class SlideSizes:
    lengths: tuple[int, ...]
    input_dim: int
    hidden_dim: int
    state_dim: int
    oracle_length: int  # short bag checked against the recurrence oracle


class SlideInfer:
    trace_memory = False
    reference = "bulk"  # see reference.py

    def __init__(self, sizes: SlideSizes):
        self.sizes = sizes

    def setup(self, work_dir: Path, seed: int) -> None:
        s = self.sizes
        cfg = model.ModelConfig(input_dim=s.input_dim, hidden_dim=s.hidden_dim,
                                state_dim=s.state_dim, discretization="bilinear")
        self.checkpoint_path = work_dir / "model.s4mc"
        checkpoint.save_checkpoint(self.checkpoint_path, model.init_parameters(cfg, seed))
        rows = []
        for i, length in enumerate(s.lengths):
            features = _features(_rng(seed, i), (length, s.input_dim))
            data_io.write_sequence_file(work_dir / f"slide-{i}.seqf", features)
            rows.append({"id": f"slide-{i}", "label": i % 2, "features": f"slide-{i}.seqf"})
        self.manifest_path = work_dir / "manifest.csv"
        data_io.write_manifest(self.manifest_path, rows)
        self.oracle_bag = _features(_rng(seed, len(s.lengths)), (s.oracle_length, s.input_dim))
        model.forward_mil(checkpoint.load_checkpoint(self.checkpoint_path), self.oracle_bag)

    def run_unit(self) -> Unit:
        n_bags = len(self.sizes.lengths)
        try:
            mil = checkpoint.load_checkpoint(self.checkpoint_path)
            bags = data_io.load_manifest(self.manifest_path)
            stats = train.evaluate_model(mil, bags)
        except S4MilError:
            return Unit(tokens=0, attempted=n_bags, failed=n_bags, output={})
        return Unit(tokens=sum(b.length for b in bags), attempted=n_bags, failed=0,
                    output={"probs": stats["slide_probs"], "auroc": stats["auroc"],
                            "labels": [b.slide_label for b in bags]})

    def check(self, units: list[Unit]) -> list[str]:
        problems = []
        first = units[0].output
        if len(first.get("probs", ())) != len(self.sizes.lengths):
            return ["slide-infer: not every bag was scored"]
        for p in first["probs"]:
            if not np.all(np.isfinite(p)) or abs(float(np.sum(p)) - 1.0) > 1e-6:
                problems.append(f"slide-infer: probabilities off the simplex: {p}")
        for unit in units[1:]:
            if any(not np.array_equal(a, b) for a, b in zip(unit.output["probs"], first["probs"])):
                problems.append("slide-infer: repeated passes disagree")
        expected = _brute_force_auroc([p[1] for p in first["probs"]], first["labels"])
        if first["auroc"] != expected:
            problems.append(f"slide-infer: auroc {first['auroc']} != pair count {expected}")
        mil = checkpoint.load_checkpoint(self.checkpoint_path)
        conv, rec = (_token_outputs(mil, self.oracle_bag, mode) for mode in ("conv", "recurrence"))
        for name in conv:
            err = float(np.max(np.abs(conv[name] - rec[name])) / (1.0 + np.max(np.abs(rec[name]))))
            if not err <= 1e-5:
                problems.append(
                    f"slide-infer: conv vs recurrence {name} relative error {err:.3e} > 1e-5")
        return problems

    def report(self, units: list[Unit]) -> dict:
        return {}


# --------------------------------------------------------------------------
# paper-train-step
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StepSizes:
    length: int
    input_dim: int
    hidden_dim: int
    state_dim: int


class PaperTrainStep:
    trace_memory = True  # the traced step also runs under tracemalloc
    reference = "bulk"

    def __init__(self, sizes: StepSizes):
        self.sizes = sizes

    def setup(self, work_dir: Path, seed: int) -> None:
        s = self.sizes
        self.config = model.ModelConfig(input_dim=s.input_dim, hidden_dim=s.hidden_dim,
                                        state_dim=s.state_dim, discretization="bilinear")
        self.model = model.init_parameters(self.config, seed)
        self.optimizer = train.AdamLookahead(self.model.params, train.TrainConfig(seed=seed))
        rng = _rng(seed, 0)
        self.features = _features(rng, (s.length, s.input_dim))
        self.label = int(rng.integers(0, 2))
        warm = model.build_tape(self.config, self.model.params, self.features[:64],
                                slide_label=self.label)
        warm.tape.backward()

    def run_unit(self) -> Unit:
        try:
            bundle = model.build_tape(self.config, self.model.params, self.features,
                                      slide_label=self.label)
            loss = bundle.tape.forward()
            grads = bundle.tape.backward()
            self.optimizer.step(self.model.params, grads)
        except S4MilError:
            return Unit(tokens=0, attempted=1, failed=1, output={})
        return Unit(tokens=self.sizes.length, attempted=1, failed=0,
                    output={"loss": loss, "grads": grads})

    def check(self, units: list[Unit]) -> list[str]:
        problems = []
        names = set(model.parameter_shapes(self.config))
        for i, unit in enumerate(units):
            if not unit.output:
                problems.append(f"paper-train-step: step {i} failed")
                continue
            if not math.isfinite(unit.output["loss"]):
                problems.append(f"paper-train-step: step {i} loss is {unit.output['loss']}")
            grads = unit.output["grads"]
            if set(grads) != names:
                problems.append(f"paper-train-step: step {i} gradients cover {sorted(grads)}")
            bad = [k for k, g in grads.items() if not np.all(np.isfinite(g))]
            if bad:
                problems.append(f"paper-train-step: step {i} non-finite gradients for {bad}")
        return problems

    def report(self, units: list[Unit]) -> dict:
        return {}


# --------------------------------------------------------------------------
# needle-train
# --------------------------------------------------------------------------

MIN_VAL_AUROC = 0.95
MIN_PATCH_AUROC = 0.9


@dataclass(frozen=True)
class NeedleSizes:
    num_bags: int
    min_length: int
    max_length: int
    input_dim: int
    hidden_dim: int
    state_dim: int
    epochs: int
    folds: int = 4  # fold 0 trains on 3/4 of the bags and validates on the rest
    lam: float = 5.0
    learning_rate: float = 2e-3
    signal_rate: float = 0.05


class NeedleTrain:
    trace_memory = False
    reference = "interpreter"

    def __init__(self, sizes: NeedleSizes):
        self.sizes = sizes

    def lengths(self) -> list[int]:
        # Bags come in pairs of equal length, one per label.
        s = self.sizes
        pairs = s.num_bags // 2
        return [s.min_length + (s.max_length - s.min_length) * (i // 2) // max(1, pairs - 1)
                for i in range(s.num_bags)]

    def setup(self, work_dir: Path, seed: int) -> None:
        s = self.sizes
        bag_dir = work_dir / "bags"
        shutil.rmtree(bag_dir, ignore_errors=True)
        bag_dir.mkdir(parents=True)
        rng = _rng(seed, 0)
        rows = []
        for i, length in enumerate(self.lengths()):
            label = i % 2
            features = rng.standard_normal((length, s.input_dim), dtype=np.float32)
            patch = np.zeros(length, dtype=np.float32)
            if label:
                idx = rng.choice(length, size=math.ceil(s.signal_rate * length), replace=False)
                features[idx] += 1.0
                patch[idx] = 1.0
            stem = f"bags/needle-{i:04d}"
            data_io.write_sequence_file(work_dir / f"{stem}.seqf", features)
            data_io.write_sequence_file(work_dir / f"{stem}.patch.seqf", patch[:, None])
            rows.append({"id": f"needle-{i:04d}", "label": label, "features": f"{stem}.seqf",
                         "patch_labels": f"{stem}.patch.seqf"})
        self.manifest_path = work_dir / "manifest.csv"
        data_io.write_manifest(self.manifest_path, rows)
        self.checkpoint_path = work_dir / "needle.s4mc"
        self.config = model.ModelConfig(input_dim=s.input_dim, hidden_dim=s.hidden_dim,
                                        state_dim=s.state_dim, multitask=True)
        self.init_seed = seed
        self.train_config = train.TrainConfig(
            learning_rate=s.learning_rate, lam=s.lam, max_epochs=s.epochs,
            patience=s.epochs + 1, seed=0)  # shuffle order; see the module docstring
        labels = [i % 2 for i in range(s.num_bags)]
        self.train_idx, self.val_idx = train.kfold(labels, k=s.folds, seed=0)[0]
        warm = data_io.load_manifest(self.manifest_path)[0]
        model.build_tape(self.config, model.init_parameters(self.config, seed).params,
                         warm.features, slide_label=warm.slide_label,
                         patch_labels=warm.patch_labels, lam=s.lam).tape.backward()

    def run_unit(self) -> Unit:
        s = self.sizes
        lengths = self.lengths()
        train_tokens = sum(lengths[i] for i in self.train_idx)
        val_tokens = sum(lengths[i] for i in self.val_idx)
        ops = s.epochs * (len(self.train_idx) + len(self.val_idx)) + len(self.val_idx)
        floor_events = train.numerical_floor_events.count
        try:
            bags = data_io.load_manifest(self.manifest_path)
            train_bags = [bags[i] for i in self.train_idx]
            val_bags = [bags[i] for i in self.val_idx]
            mil = model.init_parameters(self.config, self.init_seed)
            result = train.fit(mil, train_bags, val_bags, self.train_config)
            stats = train.evaluate_model(result.model, val_bags, lam=s.lam)
            patch_auroc = metrics.auroc_binary(
                np.concatenate([p[:, 1] for p in stats["patch_probs"]]),
                np.concatenate([b.patch_labels for b in val_bags]))
            checkpoint.save_checkpoint(self.checkpoint_path, result.model)
        except S4MilError:
            return Unit(tokens=0, attempted=ops, failed=ops, output={})
        floor_events = train.numerical_floor_events.count - floor_events
        return Unit(tokens=s.epochs * (train_tokens + val_tokens) + val_tokens, attempted=ops,
                    failed=0, output={"val_auroc": stats["auroc"], "patch_auroc": patch_auroc,
                                      "epochs": len(result.history), "params": result.model.params,
                                      "floor_events": floor_events})

    def check(self, units: list[Unit]) -> list[str]:
        s = self.sizes
        problems = []
        for i, unit in enumerate(units):
            out = unit.output
            if not out:
                problems.append(f"needle-train: cycle {i} failed")
                continue
            if out["epochs"] != s.epochs:
                problems.append(f"needle-train: cycle {i} ran {out['epochs']} epochs, not {s.epochs}")
            if not out["val_auroc"] >= MIN_VAL_AUROC:
                problems.append(f"needle-train: val_auroc {out['val_auroc']} < {MIN_VAL_AUROC}")
            if not out["patch_auroc"] >= MIN_PATCH_AUROC:
                problems.append(f"needle-train: patch_auroc {out['patch_auroc']} < {MIN_PATCH_AUROC}")
            if out["floor_events"]:
                problems.append(f"needle-train: cycle {i} hit {out['floor_events']} numerical floors")
        if units[-1].output:
            saved = checkpoint.load_checkpoint(self.checkpoint_path).params
            params = units[-1].output["params"]
            if any(not np.array_equal(saved[k], params[k]) for k in params):
                problems.append("needle-train: saved checkpoint does not reload bitwise")
        return problems

    def report(self, units: list[Unit]) -> dict:
        out = units[-1].output
        return {"val_auroc": (out.get("val_auroc", float("nan")), "1"),
                "patch_auroc": (out.get("patch_auroc", float("nan")), "1")}


FULL = {
    "slide-infer": SlideInfer(SlideSizes(
        lengths=(8192, 33000, 62235), input_dim=1024, hidden_dim=512, state_dim=32,
        oracle_length=64)),
    "paper-train-step": PaperTrainStep(StepSizes(
        length=30000, input_dim=1024, hidden_dim=512, state_dim=32)),
    "needle-train": NeedleTrain(NeedleSizes(
        num_bags=200, min_length=128, max_length=512, input_dim=16, hidden_dim=32,
        state_dim=8, epochs=5)),
}

SMOKE = {
    "slide-infer": SlideInfer(SlideSizes(
        lengths=(100, 129, 300), input_dim=32, hidden_dim=16, state_dim=8, oracle_length=32)),
    "paper-train-step": PaperTrainStep(StepSizes(
        length=300, input_dim=32, hidden_dim=16, state_dim=8)),
    "needle-train": NeedleTrain(NeedleSizes(
        num_bags=120, min_length=128, max_length=256, input_dim=16, hidden_dim=32,
        state_dim=8, epochs=3)),
}
