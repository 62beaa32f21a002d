"""Command-line entry point.

Commands: train, evaluate, kernel-check, grad-check, param-count, bench,
synth, export-heatmap, stats.

Configuration is a flat registry of dotted keys.  The model.*, train.* and
synth.* keys are the fields of ModelConfig, TrainConfig and
SyntheticTaskSpec, with the fields' defaults and types.  Three fields are
named differently (_FIELD_KEYS): TrainConfig.lam is train.lambda,
TrainConfig.seed (the per-fold seed) has no key, and
SyntheticTaskSpec.length_range is synth.length_min and synth.length_max.
The remaining keys (run.*, bench.*, train.folds, ...) are declared in
REGISTRY itself.

COMMANDS declares each command: its handler, its help and its flags.  Each
flag is shorthand for one key and carries no type of its own: its text is
parsed exactly as ``--set key=text`` is, so REGISTRY alone types every value,
and a flag for a boolean key takes no value and sets it true.

Effective values come from, in increasing precedence: registry defaults, a
JSON --config file (flat or nested), repeated --set key=value overrides, and
explicit command-line flags.  Every run writes the merged result to
<output>/resolved_config.json; feeding that file back to the same command
reproduces the run.  Unknown keys are rejected by name.  All randomness
derives from run.seed through labelled substreams.

Failures print a single line ``error <code>: <message>`` to stderr and exit
1; a bad flag value is a config-error like a bad ``--set`` value, and so is
a usage error (an unknown flag, a missing value, no command).
"""

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, get_args

import numpy as np

from . import parallel, ssm
from .autograd import Tape, check_gradients, grad_check_cases, ssm_parameters
from .checkpoint import load_checkpoint, save_checkpoint
from .data_io import Bag, corpus_stats, load_manifest, long_sequence_split, write_manifest, write_sequence_file
from .errors import ConfigError, ContractError, ParseError, S4MilError
from .metrics import UndefinedMetricError, auroc
from .model import (
    ModelConfig,
    count_parameters,
    forward_mil,
    forward_pooling_baseline,
    init_parameters,
    init_pooling_baseline,
)
from .seeding import substream
from .train import (
    SyntheticTaskSpec,
    TrainConfig,
    evaluate_model,
    fit,
    generate_synthetic,
    kfold,
    write_history,
)

# Dataclasses whose fields are the keys of their section.
_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "synth": SyntheticTaskSpec}

# Fields whose keys are not "<section>.<field>".
_FIELD_KEYS = {
    "train.lam": ("train.lambda",),
    "train.seed": (),  # the per-fold seed, derived from run.seed
    "synth.length_range": ("synth.length_min", "synth.length_max"),
}


def _field_keys(section: str, name: str) -> tuple[str, ...]:
    dotted = f"{section}.{name}"
    return _FIELD_KEYS.get(dotted, (dotted,))


def _section_entries() -> dict[str, tuple[object, type]]:
    entries = {}
    for section, cls in _SECTIONS.items():
        for f in fields(cls):
            keys = _field_keys(section, f.name)
            # a field with several keys is a tuple: one default and one item type per key
            defaults = f.default if len(keys) > 1 else (f.default,)
            kinds = [t for t in get_args(f.type) if t is not type(None)] or [f.type]
            entries.update((key, (default, kind)) for key, default, kind in zip(keys, defaults, kinds))
    return entries


# key -> (default, type); None defaults carry their type explicitly
REGISTRY: dict[str, tuple[object, type]] = {
    "run.seed": (0, int),
    "run.threads": (1, int),
    **_section_entries(),
    "train.folds": (10, int),
    "train.manifest": (None, str),
    "train.synthetic": (False, bool),
    "bench.length": (30000, int),
    "bench.dim": (1024, int),
    "bench.repeats": (100, int),
    "kernel_check.trials": (100, int),
    "kernel_check.max_state": (8, int),
    "kernel_check.max_length": (512, int),
    "kernel_check.tolerance": (1e-6, float),
    "kernel_check.inject_fault": (False, bool),
    "grad_check.step": (1e-5, float),
    "grad_check.tolerance": (1e-4, float),
    "param_count.expect": (None, int),
    "stats.manifest": (None, str),
    "stats.percentile": (85.0, float),
    "evaluate.checkpoint": (None, str),
    "evaluate.manifest": (None, str),
    "evaluate.long_percentile": (None, float),
    "heatmap.checkpoint": (None, str),
    "heatmap.manifest": (None, str),
    "heatmap.bag_id": (None, str),
}


@dataclass
class RunSpec:
    command: str
    config_file: str | None
    overrides: list[str]
    output_dir: Path


# --------------------------------------------------------------------------
# Configuration resolution
# --------------------------------------------------------------------------

def _coerce(key: str, raw, kind: type):
    if raw is None:
        return None
    if kind is bool:
        if isinstance(raw, bool):
            return raw
        text = str(raw).strip().lower()
        if text in ("true", "1", "yes"):
            return True
        if text in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: cannot parse {raw!r} as a boolean")
    # str() takes any value, so a string key takes only a string.
    if kind is str and not isinstance(raw, str):
        raise ConfigError(f"{key}: {raw!r} is not a string")
    # A bool is an int to Python, and int() truncates floats; neither is a number here.
    if isinstance(raw, bool):
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind.__name__}")
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind.__name__}") from None
    if kind is int and isinstance(raw, float) and value != raw:
        raise ConfigError(f"{key}: {raw!r} is not an integer")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key}: {raw!r} is not a finite number")
    return value


def _flatten(obj, prefix="") -> dict:
    flat = {}
    for key, value in obj.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{dotted}."))
        else:
            flat[dotted] = value
    return flat


def _apply(config: dict, key: str, raw, command: str):
    if key == "run.command":
        if raw != command:
            raise ConfigError(
                f"resolved config was written by command {raw!r}, re-feed it to that command"
            )
        return
    if key not in REGISTRY:
        raise ConfigError(f"unknown configuration key {key!r}")
    default, kind = REGISTRY[key]
    if raw is None and default is not None:
        raise ConfigError(f"{key}: null is not a {kind.__name__}; only optional keys take null")
    config[key] = _coerce(key, raw, kind)


def resolve_config(spec: RunSpec, flag_values: dict[str, object]) -> dict:
    config = {key: default for key, (default, _) in REGISTRY.items()}
    if spec.config_file:
        path = Path(spec.config_file)
        if not path.is_file():
            raise ConfigError(f"config file {path} does not exist")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key, raw in _flatten(loaded).items():
            _apply(config, key, raw, spec.command)
    for item in spec.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _apply(config, key.strip(), raw.strip(), spec.command)
    for key, value in flag_values.items():
        if value is not None:
            _apply(config, key, value, spec.command)
    return config


def write_resolved_config(spec: RunSpec, config: dict) -> Path:
    spec.output_dir.mkdir(parents=True, exist_ok=True)
    payload = {"run.command": spec.command}
    payload.update({k: config[k] for k in sorted(config)})
    path = spec.output_dir / "resolved_config.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    json.loads(path.read_text())  # written file must parse back
    return path


def dataclass_from(section: str, config: dict, **fixed):
    """The section's config dataclass built from resolved keys.

    ``fixed`` gives fields that have no key (the per-fold seed) or that take
    their value from another key (bench's input_dim from bench.dim).
    """
    values = {}
    for f in fields(_SECTIONS[section]):
        keys = _field_keys(section, f.name)
        if len(keys) == 1:
            values[f.name] = config[keys[0]]
        elif keys:
            values[f.name] = tuple(config[key] for key in keys)
    return _SECTIONS[section](**{**values, **fixed})


# --------------------------------------------------------------------------
# train / evaluate
# --------------------------------------------------------------------------

def _load_training_bags(config: dict, seed: int) -> list[Bag]:
    manifest = config["train.manifest"]
    if config["train.synthetic"] and manifest:
        raise ConfigError("choose either --manifest or --synthetic, not both")
    if config["train.synthetic"]:
        spec = dataclass_from("synth", config)
        if spec.feature_dim != config["model.input_dim"]:
            raise ConfigError(
                f"model.input_dim ({config['model.input_dim']}) must equal synth.feature_dim "
                f"({spec.feature_dim}) for synthetic training"
            )
        return generate_synthetic(spec, seed=seed)
    if not manifest:
        raise ConfigError("train needs --manifest PATH or --synthetic")
    return load_manifest(manifest)


def _check_labels(bags: list[Bag], model_cfg: ModelConfig) -> None:
    """Reject a bag whose labels name no class of the model, before any forward pass."""
    for bag in bags:
        if not 0 <= bag.slide_label < model_cfg.num_classes:
            raise ContractError(f"bag {bag.id}: slide label {bag.slide_label} is outside "
                                f"0..{model_cfg.num_classes - 1}")
        patch = bag.patch_labels if model_cfg.multitask else None
        if patch is not None and np.any((patch < 0) | (patch >= model_cfg.patch_classes)):
            raise ContractError(f"bag {bag.id}: a patch label is outside 0..{model_cfg.patch_classes - 1}")


def _fold_seed(seed: int, fold: int) -> int:
    return int(substream(seed, f"fold-{fold}").integers(0, 2**31))


def cmd_train(spec: RunSpec, config: dict) -> int:
    seed = config["run.seed"]
    bags = _load_training_bags(config, seed)
    model_cfg = dataclass_from("model", config)
    if model_cfg.multitask and any(b.patch_labels is None for b in bags):
        raise ConfigError("multitask training needs patch labels for every bag")
    _check_labels(bags, model_cfg)
    folds = config["train.folds"]
    splits = kfold([b.slide_label for b in bags], k=folds, seed=seed)  # fails before training
    rows = []
    for i, (train_idx, val_idx) in enumerate(splits):
        try:
            fold_seed = _fold_seed(seed, i)
            model = init_parameters(model_cfg, seed=fold_seed)
            result = fit(model, [bags[j] for j in train_idx], [bags[j] for j in val_idx],
                         dataclass_from("train", config, seed=fold_seed))
            fold_dir = spec.output_dir / f"fold_{i:02d}"
            fold_dir.mkdir(parents=True, exist_ok=True)
            save_checkpoint(fold_dir / "checkpoint.s4mc", result.model)
            load_checkpoint(fold_dir / "checkpoint.s4mc")  # must be re-parseable
            write_history(fold_dir / "history.csv", result.history)
            # fit restored the best epoch's parameters, which scored this record
            best = result.history[result.best_epoch - 1]
            rows.append({"fold": i, "n_val": len(val_idx),
                         "accuracy": best.val_accuracy, "auroc": best.val_auroc})
        except S4MilError as exc:
            raise type(exc)(f"fold {i}: {exc}") from exc
    summary = spec.output_dir / "summary.csv"
    n_total = sum(r["n_val"] for r in rows)
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "n_val", "accuracy", "auroc"])
        for r in rows:
            writer.writerow([r["fold"], r["n_val"], repr(r["accuracy"]), repr(r["auroc"])])
        writer.writerow(["mean", n_total,
                         repr(float(np.mean([r["accuracy"] for r in rows]))),
                         repr(float(np.mean([r["auroc"] for r in rows])))])
        writer.writerow(["weighted_mean", n_total,
                         repr(float(np.sum([r["accuracy"] * r["n_val"] for r in rows]) / n_total)),
                         repr(float(np.sum([r["auroc"] * r["n_val"] for r in rows]) / n_total))])
    print(f"trained {len(rows)} folds; mean accuracy "
          f"{np.mean([r['accuracy'] for r in rows]):.4f}, mean AUROC "
          f"{np.mean([r['auroc'] for r in rows]):.4f}; outputs in {spec.output_dir}")
    return 0


def write_metrics(path: Path, rows: list[tuple[str, object]]) -> None:
    """Write ``metric,value`` rows to a CSV file and print each as ``name: value``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerows(rows)  # a float is written as its repr
    for name, value in rows:
        print(f"{name}: {value}")


def cmd_evaluate(spec: RunSpec, config: dict) -> int:
    if not config["evaluate.checkpoint"] or not config["evaluate.manifest"]:
        raise ConfigError("evaluate needs --checkpoint and --manifest")
    model = load_checkpoint(config["evaluate.checkpoint"])
    bags = load_manifest(config["evaluate.manifest"])
    percentile = config["evaluate.long_percentile"]
    if percentile is not None:
        bags = long_sequence_split(bags, percentile=percentile)
        if not bags:
            raise ConfigError("long-sequence split left no bags to evaluate")
    _check_labels(bags, model.config)
    stats = evaluate_model(model, bags)
    out_rows = [("count", len(bags)), ("loss", stats["loss"]),
                ("accuracy", stats["accuracy"]), ("auroc", stats["auroc"])]
    if model.config.multitask and all(b.patch_labels is not None for b in bags):
        token_probs = np.concatenate(stats["patch_probs"])
        token_labels = np.concatenate([b.patch_labels for b in bags])
        try:
            out_rows.append(("patch_auroc", auroc(token_probs, token_labels)))
        except UndefinedMetricError:
            out_rows.append(("patch_auroc", float("nan")))
    write_metrics(spec.output_dir / "metrics.csv", out_rows)
    return 0


# --------------------------------------------------------------------------
# kernel-check / grad-check / param-count
# --------------------------------------------------------------------------

def _random_stable_channel(rng, n_half):
    a = -rng.uniform(0.05, 2.0, n_half) + 1j * rng.uniform(-8.0, 8.0, n_half)
    c = rng.standard_normal(n_half) + 1j * rng.standard_normal(n_half)
    d = float(rng.standard_normal())
    dt = float(rng.uniform(1e-3, 1.0))
    return a, c, d, dt


def run_kernel_check(trials: int, max_state: int, max_length: int, tolerance: float,
                     seed: int, inject_fault: bool = False) -> tuple[bool, float, int]:
    """Recurrence vs the model's convolution over random stable channels.

    Each channel runs through the grad-free float64 ``Tape.ssm_conv``, the
    op the model runs (one FFT block for inputs of at most
    ssm.ONE_BLOCK_MAX tokens, Toeplitz blocks with states carried across
    them past that), and through its stepped recurrence.  The injected
    fault negates the first trial's c, and so its kernel.
    """
    rng = substream(seed, "kernel-check")
    worst = 0.0
    checked = 0
    for trial in range(trials):
        n_half = int(rng.integers(1, max_state + 1))
        length = int(rng.integers(1, max_length + 1))
        a, c, d, dt = _random_stable_channel(rng, n_half)
        u = rng.standard_normal(length)
        a_re, a_im, c_re, c_im = a.real[None], a.imag[None], c.real[None], c.imag[None]
        log_dt = np.log([dt])
        a_op, c_op, dt_op, _ = ssm_parameters(a_re, a_im, c_re, c_im, log_dt)
        sign = -1.0 if inject_fault and trial == 0 else 1.0
        for rule in ("bilinear", "zoh"):
            tape = Tape(dtype=np.float64, grad_enabled=False)
            leaves = [tape.leaf(v) for v in
                      (u[:, None], a_re, a_im, sign * c_re, sign * c_im, [d], log_dt)]
            y_conv = tape.ssm_conv(*leaves, rule=rule).value[:, 0]
            disc = ssm.discretize(a_op[0], dt_op[0], rule)
            y_rec = ssm.run_recurrence(disc.a_bar, disc.b_bar, c_op[0], d, u)
            err = float(np.max(np.abs(y_conv - y_rec)) / (1.0 + np.max(np.abs(y_rec))))
            worst = max(worst, err)
            checked += 1
    return worst <= tolerance, worst, checked


def cmd_kernel_check(spec: RunSpec, config: dict) -> int:
    for key, least in (("kernel_check.trials", 0), ("kernel_check.max_state", 1),
                       ("kernel_check.max_length", 1)):
        if config[key] < least:
            raise ConfigError(f"{key} must be >= {least}, got {config[key]}")
    trials = config["kernel_check.trials"]
    tolerance = config["kernel_check.tolerance"]
    passed, worst, checked = run_kernel_check(
        trials, config["kernel_check.max_state"], config["kernel_check.max_length"],
        tolerance, config["run.seed"], inject_fault=config["kernel_check.inject_fault"],
    )
    note = " (0 trials: vacuous)" if trials == 0 else ""
    report = spec.output_dir / "kernel_check.txt"
    report.write_text(
        f"trials={trials}\nchecked={checked}\ntolerance={tolerance!r}\n"
        f"worst_relative_error={worst!r}\nstatus={'pass' if passed else 'fail'}{note}\n"
    )
    print(f"kernel-check: {'pass' if passed else 'fail'}{note}, "
          f"worst relative error {worst:.3e} over {checked} comparisons")
    if not passed:
        print(f"error check-failed: kernel-check worst error {worst:.3e} > {tolerance}",
              file=sys.stderr)
        return 1
    return 0


def cmd_grad_check(spec: RunSpec, config: dict) -> int:
    step = config["grad_check.step"]
    if step <= 0:
        raise ConfigError(f"grad_check.step must be > 0, got {step}")
    tolerance = config["grad_check.tolerance"]
    lines = []
    all_ok = True
    for name, (build, params) in grad_check_cases(config["run.seed"]).items():
        worst, failures = check_gradients(build, params, step=step, rtol=tolerance)
        ok = not failures
        all_ok &= ok
        lines.append(f"{name}: {'pass' if ok else 'fail'} worst_rel={worst!r}")
        print(f"grad-check {lines[-1]}")
    report = spec.output_dir / "grad_check.txt"
    report.write_text("\n".join(lines) + "\n")
    if not all_ok:
        print("error check-failed: gradient check failed", file=sys.stderr)
        return 1
    return 0


def cmd_param_count(spec: RunSpec, config: dict) -> int:
    count = count_parameters(dataclass_from("model", config))
    path = spec.output_dir / "param_count.txt"
    path.write_text(f"count={count}\n")
    if int(path.read_text().split("=")[1]) != count:
        raise ParseError(f"{path} does not read back the count {count}")
    print(f"trainable parameters: {count}")
    expect = config["param_count.expect"]
    if expect is not None and expect != count:
        print(f"error check-failed: parameter count {count} != expected {expect}", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# bench
# --------------------------------------------------------------------------

def run_bench(config: dict, seed: int) -> list[dict]:
    length, dim, repeats = config["bench.length"], config["bench.dim"], config["bench.repeats"]
    if length < 1 or dim < 1 or repeats < 1:
        raise ConfigError("bench needs length, dim and repeats all >= 1")
    model_cfg = dataclass_from("model", config, input_dim=dim)
    model = init_parameters(model_cfg, seed=seed)
    baselines = {kind: init_pooling_baseline(kind, dim, model_cfg.num_classes, seed)
                 for kind in ("mean", "max")}
    features = substream(seed, "bench").standard_normal((length, dim)).astype(np.float32)

    def timed(fn):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) * 1e3)
        return float(np.mean(samples)), float(np.std(samples))

    results = []
    for mode in ("conv", "recurrence"):
        mean, std = timed(lambda mode=mode: forward_mil(model, features, mode=mode))
        results.append({"mode": mode, "repeats": repeats, "mean_ms": mean, "std_ms": std})
    for kind, baseline in baselines.items():
        mean, std = timed(lambda b=baseline: forward_pooling_baseline(b, features))
        results.append({"mode": f"{kind}-pool", "repeats": repeats, "mean_ms": mean, "std_ms": std})
    return results


def cmd_bench(spec: RunSpec, config: dict) -> int:
    results = run_bench(config, config["run.seed"])
    path = spec.output_dir / "bench.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "repeats", "mean_ms", "std_ms"])
        for r in results:
            writer.writerow([r["mode"], r["repeats"], repr(r["mean_ms"]), repr(r["std_ms"])])
    for r in results:
        print(f"{r['mode']:>11}: {r['mean_ms']:10.2f} ms +/- {r['std_ms']:.2f} "
              f"({r['repeats']} repeats)")
    conv = next(r for r in results if r["mode"] == "conv")
    rec = next(r for r in results if r["mode"] == "recurrence")
    if conv["mean_ms"] > 0:
        print(f"recurrence/convolution time ratio: {rec['mean_ms'] / conv['mean_ms']:.1f}x")
    return 0


# --------------------------------------------------------------------------
# synth / stats / export-heatmap
# --------------------------------------------------------------------------

def cmd_synth(spec: RunSpec, config: dict) -> int:
    bags = generate_synthetic(dataclass_from("synth", config), seed=config["run.seed"])
    data_dir = spec.output_dir / "bags"
    data_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for bag in bags:
        write_sequence_file(data_dir / f"{bag.id}.seqf", bag.features)
        write_sequence_file(data_dir / f"{bag.id}.patch.seqf",
                            bag.patch_labels[:, None].astype(np.float32))
        write_sequence_file(data_dir / f"{bag.id}.coords.seqf",
                            bag.coords.astype(np.float32))
        rows.append({"id": bag.id, "label": bag.slide_label,
                     "features": f"bags/{bag.id}.seqf",
                     "patch_labels": f"bags/{bag.id}.patch.seqf",
                     "coords": f"bags/{bag.id}.coords.seqf"})
    manifest = spec.output_dir / "manifest.csv"
    write_manifest(manifest, rows)
    print(f"wrote {len(bags)} bags and manifest to {spec.output_dir}")
    return 0


def cmd_stats(spec: RunSpec, config: dict) -> int:
    if not config["stats.manifest"]:
        raise ConfigError("stats needs --manifest PATH")
    bags = load_manifest(config["stats.manifest"])
    stats = corpus_stats(bags)
    percentile = config["stats.percentile"]
    long_bags = long_sequence_split(bags, percentile=percentile)
    rows = list(stats.items()) + [
        ("long_percentile", percentile),
        ("long_count", len(long_bags)),
        ("long_min_length", min(b.length for b in long_bags)),
    ]
    write_metrics(spec.output_dir / "stats.csv", rows)
    return 0


def write_heatmap(path, grid: np.ndarray) -> None:
    rows, cols = grid.shape
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        for r in range(rows):
            fh.write(" ".join(f"{v:.17g}" for v in grid[r]) + "\n")


def parse_heatmap(path) -> np.ndarray:
    lines = Path(path).read_text().splitlines() or [""]
    grid, lineno = [], 1
    try:
        rows, cols = (int(x) for x in lines[0].split())
        if rows < 1 or cols < 1:
            raise ValueError(f"the header says {rows} rows of {cols} values (at least 1 each)")
        for lineno, line in enumerate(lines[1:], start=2):
            if lineno > rows + 1:
                raise ValueError(f"a row past the {rows} the header says")
            grid.append([float(v) for v in line.split()])
            if len(grid[-1]) != cols:
                raise ValueError(f"{len(grid[-1])} values, the header says {cols}")
        if len(grid) < rows:
            lineno = len(lines) + 1
            raise ValueError(f"the body ends after {len(grid)} rows, the header says {rows}")
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from None
    return np.array(grid)


def heatmap_grid(patch_probs: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Positive-class probability per grid cell; -1 marks empty cells.

    Two patches on one cell raise ContractError naming the first repeated cell.
    """
    r0, c0 = coords.min(axis=0)
    r1, c1 = coords.max(axis=0)
    grid = np.full((int(r1 - r0 + 1), int(c1 - c0 + 1)), -1.0)
    rows, cols = coords[:, 0] - r0, coords[:, 1] - c0
    _, first = np.unique(rows * grid.shape[1] + cols, return_index=True)
    if first.size < len(coords):
        repeat = np.ones(len(coords), dtype=bool)
        repeat[first] = False
        row, col = coords[np.argmax(repeat)]
        raise ContractError(f"duplicate patch coordinate (row {row}, col {col}) in heatmap")
    grid[rows, cols] = patch_probs
    return grid


def cmd_export_heatmap(spec: RunSpec, config: dict) -> int:
    for key in ("heatmap.checkpoint", "heatmap.manifest", "heatmap.bag_id"):
        if not config[key]:
            raise ConfigError("export-heatmap needs --checkpoint, --manifest and --bag-id")
    model = load_checkpoint(config["heatmap.checkpoint"])
    if not model.config.multitask:
        raise ConfigError("export-heatmap needs a multitask checkpoint (it has no patch head)")
    if model.config.patch_classes < 2:
        raise ConfigError("patch head must score at least 2 classes")
    bags = {b.id: b for b in load_manifest(config["heatmap.manifest"])}
    bag_id = config["heatmap.bag_id"]
    if bag_id not in bags:
        raise ConfigError(f"bag id {bag_id!r} not present in the manifest")
    bag = bags[bag_id]
    if bag.coords is None:
        raise ConfigError(f"bag {bag_id!r} carries no coordinates")
    out = forward_mil(model, bag.features)
    grid = heatmap_grid(out.patch_probs[:, 1], bag.coords)
    path = spec.output_dir / f"heatmap_{bag_id}.txt"
    write_heatmap(path, grid)
    print(f"wrote {grid.shape[0]}x{grid.shape[1]} heatmap to {path}")
    return 0


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------

class Command(NamedTuple):
    run: Callable[[RunSpec, dict], int]
    help: str
    flags: dict[str, str]  # the command's own flag -> the registry key it sets


COMMANDS = {
    "train": Command(cmd_train, "k-fold training on a manifest or synthetic bags", {
        "--manifest": "train.manifest", "--synthetic": "train.synthetic",
        "--folds": "train.folds", "--multitask": "model.multitask", "--lambda": "train.lambda"}),
    "evaluate": Command(cmd_evaluate, "metrics of a checkpoint on a manifest", {
        "--checkpoint": "evaluate.checkpoint", "--manifest": "evaluate.manifest",
        "--long-percentile": "evaluate.long_percentile"}),
    "kernel-check": Command(cmd_kernel_check, "recurrence vs convolution duality check", {
        "--trials": "kernel_check.trials", "--tolerance": "kernel_check.tolerance",
        "--max-state": "kernel_check.max_state", "--max-length": "kernel_check.max_length",
        "--inject-fault": "kernel_check.inject_fault"}),
    "grad-check": Command(cmd_grad_check, "finite-difference gradient audit", {}),
    "param-count": Command(cmd_param_count, "closed-form trainable parameter count", {
        "--expect": "param_count.expect"}),
    "bench": Command(cmd_bench, "forward-pass timing of both evaluation modes", {
        "--length": "bench.length", "--dim": "bench.dim", "--repeats": "bench.repeats"}),
    "synth": Command(cmd_synth, "generate a synthetic bag corpus", {}),
    "export-heatmap": Command(cmd_export_heatmap, "patch-probability grid for one bag", {
        "--checkpoint": "heatmap.checkpoint", "--manifest": "heatmap.manifest",
        "--bag-id": "heatmap.bag_id"}),
    "stats": Command(cmd_stats, "corpus length statistics", {
        "--manifest": "stats.manifest", "--percentile": "stats.percentile"}),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError; its subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """A subparser per COMMANDS entry; each flag's ``dest`` is the registry key it sets.

    A flag keeps its text: resolve_config types it as it types a ``--set`` value.
    """
    parser = _Parser(
        prog="s4mil",
        description="Diagonal state space engine for long patch-feature sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file (flat dotted or nested keys)")
        p.add_argument("--seed", dest="run.seed", help="root random seed")
        p.add_argument("--output", default="s4mil-out", help="output directory")
        p.add_argument("--threads", dest="run.threads",
                       help="threads that split ssm-conv channel chunks "
                            "(the BLAS pool is set by OPENBLAS_NUM_THREADS)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        for flag, key in command.flags.items():
            switch = {"action": "store_const", "const": True} if REGISTRY[key][1] is bool else {}
            p.add_argument(flag, dest=key, **switch)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        spec = RunSpec(command=args.command, config_file=args.config, overrides=list(args.set),
                       output_dir=Path(args.output))
        flag_values = {key: value for key, value in vars(args).items() if "." in key}
        config = resolve_config(spec, flag_values)
        parallel.set_threads(config["run.threads"])
        write_resolved_config(spec, config)
        return COMMANDS[spec.command].run(spec, config)
    except S4MilError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1
    finally:
        parallel.set_threads(1)


if __name__ == "__main__":
    sys.exit(main())
