import argparse
import csv
import json

import numpy as np
import pytest

from s4mil.checkpoint import save_checkpoint
from s4mil.cli import (REGISTRY, RunSpec, _coerce, build_parser, heatmap_grid, main,
                       parse_heatmap, resolve_config, write_heatmap)
from s4mil.data_io import write_manifest, write_sequence_file
from s4mil.errors import ConfigError, ContractError
from s4mil.model import ModelConfig, init_parameters

TINY_SYNTH = [
    "--set", "synth.num_bags=12", "--set", "synth.length_min=4",
    "--set", "synth.length_max=9", "--set", "synth.feature_dim=4",
]
TINY_MODEL = [
    "--set", "model.input_dim=4", "--set", "model.hidden_dim=4",
    "--set", "model.state_dim=4", "--set", "train.max_epochs=2",
]


def run(argv):
    return main([str(a) for a in argv])


# --------------------------------------------------------------------------
# train / synth
# --------------------------------------------------------------------------

def test_train_synthetic_writes_all_outputs(tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--synthetic", "--folds", "3", "--seed", "5",
                "--output", out, *TINY_SYNTH, *TINY_MODEL])
    assert code == 0
    for i in range(3):
        assert (out / f"fold_{i:02d}" / "checkpoint.s4mc").is_file()
        assert (out / f"fold_{i:02d}" / "history.csv").is_file()
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3 + 3
    assert rows[0] == ["fold", "n_val", "accuracy", "auroc"]
    assert rows[-2][0] == "mean" and rows[-1][0] == "weighted_mean"
    assert (out / "resolved_config.json").is_file()


def test_train_same_seed_identical_summaries(tmp_path):
    args = ["train", "--synthetic", "--folds", "3", "--seed", "9", *TINY_SYNTH, *TINY_MODEL]
    assert run([*args, "--output", tmp_path / "a"]) == 0
    assert run([*args, "--output", tmp_path / "b"]) == 0
    assert (tmp_path / "a/summary.csv").read_bytes() == (tmp_path / "b/summary.csv").read_bytes()
    assert (tmp_path / "a/fold_00/checkpoint.s4mc").read_bytes() == \
        (tmp_path / "b/fold_00/checkpoint.s4mc").read_bytes()


def test_train_folds_exceeding_bags_fails_before_training(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["train", "--synthetic", "--folds", "50", "--output", out,
                *TINY_SYNTH, *TINY_MODEL])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error contract-violation:")
    assert "\n" not in err
    assert not (out / "fold_00").exists()


@pytest.mark.parametrize("setting", ["train.adam_beta1=1.0", "train.adam_beta2=-0.5",
                                     "train.adam_eps=0", "train.weight_decay=-1"])
def test_an_optimizer_setting_out_of_range_fails_as_other_train_settings_do(tmp_path, capsys,
                                                                           setting):
    key, value = setting.split("=")
    name = key.split(".")[1]
    assert run(["train", "--synthetic", "--folds", "2", "--set", setting, "--output", tmp_path,
                *TINY_SYNTH, *TINY_MODEL]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error contract-violation: fold 0: {name} must be ")
    assert err.endswith(f", got {float(value)}\n") and err.count("\n") == 1
    assert not (tmp_path / "fold_00").exists()


def _forbid_forward_passes(monkeypatch):
    from s4mil import train

    def forbidden(*args, **kwargs):
        raise AssertionError("a forward pass ran")

    monkeypatch.setattr(train, "build_tape", forbidden)
    monkeypatch.setattr(train, "forward_mil", forbidden)


def _relabel(manifest, bag_id, label):
    with open(manifest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["id"] == bag_id:
            row["label"] = str(label)
    write_manifest(manifest, rows)


@pytest.mark.parametrize("label", [7, -1])
def test_train_rejects_an_out_of_range_slide_label_before_any_forward_pass(tmp_path, capsys,
                                                                           monkeypatch, label):
    corpus = tmp_path / "corpus"
    assert run(["synth", "--seed", "1", "--output", corpus, *TINY_SYNTH,
                "--set", "synth.num_bags=20"]) == 0
    _relabel(corpus / "manifest.csv", "synth-0013", label)
    _forbid_forward_passes(monkeypatch)
    capsys.readouterr()
    assert run(["train", "--manifest", corpus / "manifest.csv", "--folds", "4",
                "--output", tmp_path / "run", *TINY_MODEL]) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"error contract-violation: bag synth-0013: slide label {label} is outside 0..1"


def test_multitask_train_rejects_an_out_of_range_patch_label(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus"
    assert run(["synth", "--seed", "1", "--output", corpus, *TINY_SYNTH]) == 0
    path = corpus / "bags" / "synth-0003.patch.seqf"
    from s4mil.data_io import read_patch_labels

    labels = read_patch_labels(path)
    labels[-1] = 2
    write_sequence_file(path, labels[:, None].astype(np.float32))
    _forbid_forward_passes(monkeypatch)
    capsys.readouterr()
    assert run(["train", "--manifest", corpus / "manifest.csv", "--multitask", "--folds", "3",
                "--output", tmp_path / "run", *TINY_MODEL]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "error contract-violation: bag synth-0003: a patch label is outside 0..1"


def test_evaluate_rejects_an_out_of_range_slide_label_before_any_forward_pass(tmp_path, capsys,
                                                                              monkeypatch):
    corpus = tmp_path / "corpus"
    assert run(["synth", "--seed", "1", "--output", corpus, *TINY_SYNTH]) == 0
    _relabel(corpus / "manifest.csv", "synth-0005", 2)
    checkpoint = tmp_path / "model.s4mc"
    save_checkpoint(checkpoint, init_parameters(
        ModelConfig(input_dim=4, hidden_dim=4, state_dim=4, num_classes=2), seed=0))
    _forbid_forward_passes(monkeypatch)
    capsys.readouterr()
    assert run(["evaluate", "--checkpoint", checkpoint, "--manifest", corpus / "manifest.csv",
                "--output", tmp_path / "eval"]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "error contract-violation: bag synth-0005: slide label 2 is outside 0..1"
    assert not (tmp_path / "eval" / "metrics.csv").exists()


def test_resolved_config_refeed_reproduces(tmp_path):
    first = tmp_path / "first"
    assert run(["train", "--synthetic", "--folds", "3", "--seed", "4",
                "--output", first, *TINY_SYNTH, *TINY_MODEL]) == 0
    second = tmp_path / "second"
    assert run(["train", "--config", first / "resolved_config.json", "--output", second]) == 0
    assert (first / "summary.csv").read_bytes() == (second / "summary.csv").read_bytes()


def test_threads_flag_is_bitwise_equivalent(tmp_path):
    base = ["train", "--synthetic", "--folds", "2", "--seed", "2", *TINY_SYNTH, *TINY_MODEL]
    assert run([*base, "--threads", "1", "--output", tmp_path / "t1"]) == 0
    assert run([*base, "--threads", "2", "--output", tmp_path / "t2"]) == 0
    assert (tmp_path / "t1/summary.csv").read_bytes() == (tmp_path / "t2/summary.csv").read_bytes()


def test_unknown_set_key_is_named(tmp_path, capsys):
    code = run(["train", "--synthetic", "--output", tmp_path, "--set", "no.such=1"])
    assert code == 1
    assert "no.such" in capsys.readouterr().err


def test_synth_outputs_reload(tmp_path):
    out = tmp_path / "corpus"
    assert run(["synth", "--seed", "1", "--output", out, *TINY_SYNTH]) == 0
    from s4mil.data_io import load_manifest

    bags = load_manifest(out / "manifest.csv")
    assert len(bags) == 12
    assert all(b.patch_labels is not None and b.coords is not None for b in bags)


def test_multitask_train_and_evaluate_and_heatmap(tmp_path):
    corpus = tmp_path / "corpus"
    assert run(["synth", "--seed", "1", "--output", corpus, *TINY_SYNTH]) == 0
    out = tmp_path / "run"
    assert run(["train", "--manifest", corpus / "manifest.csv", "--multitask",
                "--lambda", "2.0", "--folds", "3", "--seed", "1",
                "--output", out, *TINY_MODEL]) == 0
    ev = tmp_path / "eval"
    assert run(["evaluate", "--checkpoint", out / "fold_00/checkpoint.s4mc",
                "--manifest", corpus / "manifest.csv", "--output", ev]) == 0
    with open(ev / "metrics.csv", newline="") as fh:
        metrics = dict(list(csv.reader(fh))[1:])
    assert {"count", "loss", "accuracy", "auroc", "patch_auroc"} <= set(metrics)
    hm = tmp_path / "hm"
    assert run(["export-heatmap", "--checkpoint", out / "fold_00/checkpoint.s4mc",
                "--manifest", corpus / "manifest.csv", "--bag-id", "synth-0002",
                "--output", hm]) == 0
    grid = parse_heatmap(hm / "heatmap_synth-0002.txt")
    filled = grid[grid >= 0]
    assert filled.size > 0 and np.all(filled <= 1.0)


def test_heatmap_requires_multitask_checkpoint(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run(["synth", "--seed", "1", "--output", corpus, *TINY_SYNTH]) == 0
    model = init_parameters(ModelConfig(input_dim=4, hidden_dim=4, state_dim=4), seed=0)
    save_checkpoint(tmp_path / "plain.s4mc", model)
    code = run(["export-heatmap", "--checkpoint", tmp_path / "plain.s4mc",
                "--manifest", corpus / "manifest.csv", "--bag-id", "synth-0000",
                "--output", tmp_path / "hm"])
    assert code == 1
    assert "multitask" in capsys.readouterr().err


# --------------------------------------------------------------------------
# heatmap grids
# --------------------------------------------------------------------------

def test_heatmap_singleton_grid():
    grid = heatmap_grid(np.array([0.7]), np.array([[0, 0]]))
    assert grid.shape == (1, 1) and grid[0, 0] == 0.7


def test_heatmap_hole_filled_with_minus_one():
    grid = heatmap_grid(np.array([0.2, 0.9]), np.array([[0, 0], [2, 0]]))
    assert grid.shape == (3, 1)
    assert grid[0, 0] == 0.2 and grid[2, 0] == 0.9 and grid[1, 0] == -1.0


def test_heatmap_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    grid = rng.random((4, 6))
    grid[1, 2] = -1.0
    path = tmp_path / "grid.txt"
    write_heatmap(path, grid)
    assert np.array_equal(parse_heatmap(path), grid)


def test_heatmap_duplicate_coordinate_names_first_repeat():
    coords = np.array([[3, 1], [4, 2], [5, 0], [4, 2], [3, 1]])
    with pytest.raises(ContractError, match=r"\(row 4, col 2\)"):
        heatmap_grid(np.linspace(0.1, 0.5, 5), coords)


def test_export_heatmap_rejects_duplicate_coordinates(tmp_path, capsys):
    model = init_parameters(ModelConfig(input_dim=4, hidden_dim=4, state_dim=4, multitask=True),
                            seed=0)
    save_checkpoint(tmp_path / "mt.s4mc", model)
    write_sequence_file(tmp_path / "f.seqf", np.ones((3, 4), dtype=np.float32))
    write_sequence_file(tmp_path / "c.seqf", np.array([[0, 0], [1, 0], [1, 0]], dtype=np.float32))
    write_manifest(tmp_path / "manifest.csv",
                   [{"id": "dup", "label": 1, "features": "f.seqf", "coords": "c.seqf"}])
    code = run(["export-heatmap", "--checkpoint", tmp_path / "mt.s4mc",
                "--manifest", tmp_path / "manifest.csv", "--bag-id", "dup",
                "--output", tmp_path / "hm"])
    assert code != 0
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "(row 1, col 0)" in err
    assert not (tmp_path / "hm" / "heatmap_dup.txt").exists()


# --------------------------------------------------------------------------
# kernel-check / grad-check / param-count / bench / stats
# --------------------------------------------------------------------------

def test_kernel_check_passes_and_fault_injection_fails(tmp_path, capsys):
    assert run(["kernel-check", "--trials", "10", "--output", tmp_path / "ok"]) == 0
    assert run(["kernel-check", "--trials", "4", "--inject-fault",
                "--output", tmp_path / "bad"]) == 1
    assert "check-failed" in capsys.readouterr().err
    report = (tmp_path / "bad" / "kernel_check.txt").read_text()
    assert "status=fail" in report


def test_kernel_check_runs_the_op_across_carried_blocks(tmp_path, monkeypatch, capsys):
    # Trials up to 4096 tokens span several blocks, so kernel-check passes
    # through the op's state-passing path, and a fault still fails it.
    from s4mil import ssm

    calls = []
    block_causal_conv = ssm.block_causal_conv
    monkeypatch.setattr(ssm, "block_causal_conv",
                        lambda *args: calls.append(args[-1].shape) or block_causal_conv(*args))
    assert run(["kernel-check", "--trials", "6", "--max-length", "4096",
                "--output", tmp_path / "ok"]) == 0
    assert calls, "no trial was longer than two blocks"
    assert run(["kernel-check", "--trials", "6", "--max-length", "4096", "--inject-fault",
                "--output", tmp_path / "bad"]) == 1
    assert "check-failed" in capsys.readouterr().err


def test_kernel_check_zero_trials_vacuous_pass(tmp_path, capsys):
    assert run(["kernel-check", "--trials", "0", "--output", tmp_path]) == 0
    assert "0 trials" in capsys.readouterr().out


def test_param_count_expect(tmp_path, capsys):
    assert run(["param-count", "--output", tmp_path / "a", "--expect", "1085954"]) == 0
    assert run(["param-count", "--output", tmp_path / "b", "--expect", "1"]) == 1
    assert "check-failed" in capsys.readouterr().err


def test_grad_check_command(tmp_path):
    assert run(["grad-check", "--output", tmp_path]) == 0
    report = (tmp_path / "grad_check.txt").read_text()
    assert "mil-model: pass" in report
    assert "mil-model-pooled: pass" in report


def test_grad_check_covers_the_slide_head_on_the_pooled_rows(tmp_path, monkeypatch):
    # mil-model-pooled is the one case whose tape records the last layer's
    # mixing and GLU on the pooled rows; a fault in their scatter fails it only.
    from s4mil.autograd import Tape

    rows = Tape.rows

    def faulty(self, x, index):
        node = rows(self, x, index)
        scatter = node.backward_fn
        node.backward_fn = lambda g: scatter(1.01 * g)
        return node

    monkeypatch.setattr(Tape, "rows", faulty)
    assert run(["grad-check", "--output", tmp_path]) == 1
    report = (tmp_path / "grad_check.txt").read_text()
    failed = [line.split(":")[0] for line in report.splitlines() if ": fail" in line]
    assert failed == ["mil-model-pooled"]


def test_grad_check_covers_the_ssm_conv_across_carried_blocks(tmp_path, monkeypatch):
    # Two cases run the ssm-conv on a bag past two blocks, where the
    # parameter gradients come from blocks; a fault in those sums fails them.
    from s4mil import ssm

    calls = []
    block_adjoint = ssm.block_adjoint

    def spy(g, *args):
        calls.append(g.shape)
        return block_adjoint(g, *args)

    def faulty(*args):
        grad_in, sums = block_adjoint(*args)
        return grad_in, 1.01 * sums

    monkeypatch.setattr(ssm, "block_adjoint", spy)
    assert run(["grad-check", "--output", tmp_path / "ok"]) == 0
    report = (tmp_path / "ok" / "grad_check.txt").read_text()
    for rule in ("bilinear", "zoh"):
        assert f"ssm-conv-blocks-{rule}: pass" in report
    assert calls

    monkeypatch.setattr(ssm, "block_adjoint", faulty)
    assert run(["grad-check", "--output", tmp_path / "bad"]) == 1
    report = (tmp_path / "bad" / "grad_check.txt").read_text()
    assert "ssm-conv-blocks-bilinear: fail" in report and "mil-model: pass" in report


def test_bench_small_and_degenerate(tmp_path):
    out = tmp_path / "bench"
    assert run(["bench", "--length", "64", "--dim", "8", "--repeats", "2",
                "--output", out, "--set", "model.hidden_dim=8",
                "--set", "model.state_dim=4"]) == 0
    with open(out / "bench.csv", newline="") as fh:
        rows = {r[0]: r for r in list(csv.reader(fh))[1:]}
    assert set(rows) == {"conv", "recurrence", "mean-pool", "max-pool"}
    # single repeat reports a zero standard deviation; L=1 must still work
    out1 = tmp_path / "bench1"
    assert run(["bench", "--length", "1", "--dim", "4", "--repeats", "1",
                "--output", out1, "--set", "model.hidden_dim=4",
                "--set", "model.state_dim=4"]) == 0
    with open(out1 / "bench.csv", newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            assert float(row[3]) == 0.0


def test_stats_command(tmp_path):
    corpus = tmp_path / "corpus"
    assert run(["synth", "--seed", "0", "--output", corpus, *TINY_SYNTH]) == 0
    out = tmp_path / "stats"
    assert run(["stats", "--manifest", corpus / "manifest.csv", "--percentile", "50",
                "--output", out]) == 0
    with open(out / "stats.csv", newline="") as fh:
        metrics = dict(list(csv.reader(fh))[1:])
    assert int(metrics["count"]) == 12
    assert int(metrics["long_count"]) >= 1


def test_stats_and_export_heatmap_read_only_the_features_they_use(tmp_path, monkeypatch):
    from s4mil import data_io

    corpus = tmp_path / "corpus"
    assert run(["synth", "--seed", "0", "--output", corpus, *TINY_SYNTH]) == 0
    save_checkpoint(tmp_path / "mt.s4mc", init_parameters(
        ModelConfig(input_dim=4, hidden_dim=4, state_dim=4, multitask=True), seed=0))
    # Patch-label and coordinate files are read through the same function,
    # so feature reads are told apart by file name.
    feature_reads = []
    read = data_io.read_sequence_file

    def counted(path):
        if not path.name.endswith((".patch.seqf", ".coords.seqf")):
            feature_reads.append(path.name)
        return read(path)

    monkeypatch.setattr(data_io, "read_sequence_file", counted)
    assert run(["stats", "--manifest", corpus / "manifest.csv", "--output", tmp_path / "stats"]) == 0
    assert feature_reads == []
    assert run(["export-heatmap", "--checkpoint", tmp_path / "mt.s4mc", "--manifest",
                corpus / "manifest.csv", "--bag-id", "synth-0002", "--output", tmp_path / "hm"]) == 0
    assert feature_reads == ["synth-0002.seqf"]


def test_missing_inputs_give_single_line_errors(tmp_path, capsys):
    assert run(["stats", "--output", tmp_path]) == 1
    assert run(["evaluate", "--output", tmp_path]) == 1
    errs = [line for line in capsys.readouterr().err.splitlines() if line]
    assert all(e.startswith("error config-error:") for e in errs)


@pytest.mark.parametrize("argv,names", [
    (["train", "--bogus", "1"], "--bogus 1"),
    (["train", "--folds"], "--folds"),
    ([], "command"),
], ids=["unknown-flag", "missing-value", "no-command"])
def test_a_usage_error_is_one_config_error_line(tmp_path, monkeypatch, capsys, argv, names):
    monkeypatch.chdir(tmp_path)  # the default output directory stays unmade
    assert run(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error config-error: ") and out.err.count("\n") == 1
    assert names in out.err
    assert not any(tmp_path.iterdir())


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["train", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: s4mil")


DEFAULT_PARAM_COUNT_CONFIG = {
    "run.command": "param-count",
    "bench.dim": 1024,
    "bench.length": 30000,
    "bench.repeats": 100,
    "evaluate.checkpoint": None,
    "evaluate.long_percentile": None,
    "evaluate.manifest": None,
    "grad_check.step": 1e-05,
    "grad_check.tolerance": 0.0001,
    "heatmap.bag_id": None,
    "heatmap.checkpoint": None,
    "heatmap.manifest": None,
    "kernel_check.inject_fault": False,
    "kernel_check.max_length": 512,
    "kernel_check.max_state": 8,
    "kernel_check.tolerance": 1e-06,
    "kernel_check.trials": 100,
    "model.discretization": "bilinear",
    "model.hidden_dim": 512,
    "model.input_dim": 1024,
    "model.multitask": False,
    "model.num_classes": 2,
    "model.num_patch_classes": None,
    "model.num_ssm_layers": 1,
    "model.state_dim": 32,
    "param_count.expect": None,
    "run.seed": 0,
    "run.threads": 1,
    "stats.manifest": None,
    "stats.percentile": 85.0,
    "synth.feature_dim": 16,
    "synth.length_max": 512,
    "synth.length_min": 128,
    "synth.noise_sigma": 1.0,
    "synth.num_bags": 200,
    "synth.signal_rate": 0.05,
    "synth.task": "needle",
    "train.adam_beta1": 0.9,
    "train.adam_beta2": 0.999,
    "train.adam_eps": 1e-08,
    "train.folds": 10,
    "train.grad_accum": 1,
    "train.lambda": 5.0,
    "train.learning_rate": 0.0002,
    "train.lookahead_alpha": 0.5,
    "train.lookahead_k": 5,
    "train.manifest": None,
    "train.max_epochs": 100,
    "train.patience": 10,
    "train.synthetic": False,
    "train.weight_decay": 0.0001,
}


def test_resolved_config_is_flat_json(tmp_path):
    # Every key, default and type, byte for byte: 85.0 and 85 differ in the text.
    assert run(["param-count", "--output", tmp_path]) == 0
    text = (tmp_path / "resolved_config.json").read_text()
    assert text == json.dumps(DEFAULT_PARAM_COUNT_CONFIG, indent=2) + "\n"


def test_every_flag_sets_a_registry_key():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for sub in commands.choices.values() for a in sub._actions}
    dotted = {d for d in dests if "." in d}
    assert dotted <= set(REGISTRY)
    assert dests - dotted == {"help", "config", "output", "set"}


# Each command's own flags and the keys they set; every command also takes
# -h/--help, --config, --seed, --output, --threads and --set.
COMMON_FLAGS = {"-h": "help", "--help": "help", "--config": "config", "--seed": "run.seed",
                "--output": "output", "--threads": "run.threads", "--set": "set"}
COMMAND_FLAGS = {
    "train": {"--manifest": "train.manifest", "--synthetic": "train.synthetic",
              "--folds": "train.folds", "--multitask": "model.multitask",
              "--lambda": "train.lambda"},
    "evaluate": {"--checkpoint": "evaluate.checkpoint", "--manifest": "evaluate.manifest",
                 "--long-percentile": "evaluate.long_percentile"},
    "kernel-check": {"--trials": "kernel_check.trials", "--tolerance": "kernel_check.tolerance",
                     "--max-state": "kernel_check.max_state",
                     "--max-length": "kernel_check.max_length",
                     "--inject-fault": "kernel_check.inject_fault"},
    "grad-check": {},
    "param-count": {"--expect": "param_count.expect"},
    "bench": {"--length": "bench.length", "--dim": "bench.dim", "--repeats": "bench.repeats"},
    "synth": {},
    "export-heatmap": {"--checkpoint": "heatmap.checkpoint", "--manifest": "heatmap.manifest",
                       "--bag-id": "heatmap.bag_id"},
    "stats": {"--manifest": "stats.manifest", "--percentile": "stats.percentile"},
}
SWITCHES = {"--synthetic", "--multitask", "--inject-fault"}


def test_each_command_keeps_its_flags_and_their_keys():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {(name, option): (action.dest, action.nargs == 0)
             for name, sub in commands.choices.items()
             for action in sub._actions for option in action.option_strings}
    expected = {(name, flag): (dest, flag in SWITCHES or dest == "help")
                for name, flags in COMMAND_FLAGS.items()
                for flag, dest in {**COMMON_FLAGS, **flags}.items()}
    assert found == expected


TYPED_FLAGS = [(name, flag, key)
               for name, flags in COMMAND_FLAGS.items()
               for flag, key in {"--seed": "run.seed", "--threads": "run.threads", **flags}.items()
               if REGISTRY[key][1] in (int, float)]


@pytest.mark.parametrize("command,flag,key", TYPED_FLAGS,
                         ids=[f"{name}{flag}" for name, flag, _ in TYPED_FLAGS])
def test_a_bad_flag_value_fails_as_the_same_set_override_does(tmp_path, capsys, command, flag, key):
    for value in ("x", "1.5" if REGISTRY[key][1] is int else "nan"):
        assert run([command, flag, value, "--output", tmp_path / "flag"]) == 1
        from_flag = capsys.readouterr().err
        assert run([command, "--set", f"{key}={value}", "--output", tmp_path / "set"]) == 1
        from_set = capsys.readouterr().err
        assert from_flag == from_set
        assert from_flag.startswith(f"error config-error: {key}: ") and from_flag.count("\n") == 1
    assert not (tmp_path / "flag").exists()


def test_train_summary_reports_each_folds_best_epoch(tmp_path):
    # The bytes a second validation pass over each fold's restored model wrote.
    # Fold 0 stops at epoch 3 with epoch 1 best, and the two epochs' accuracies
    # differ, so the summary must read the best epoch's record.
    assert run(["train", "--synthetic", "--folds", "3", "--seed", "3", *TINY_SYNTH, *TINY_MODEL,
                "--set", "train.max_epochs=6", "--set", "train.patience=2",
                "--set", "train.learning_rate=0.02", "--output", tmp_path]) == 0
    assert (tmp_path / "summary.csv").read_bytes() == (
        b"fold,n_val,accuracy,auroc\r\n"
        b"0,4,0.75,0.75\r\n"
        b"1,4,0.5,0.25\r\n"
        b"2,4,0.5,0.75\r\n"
        b"mean,12,0.5833333333333334,0.5833333333333334\r\n"
        b"weighted_mean,12,0.5833333333333334,0.5833333333333334\r\n"
    )


def test_flags_and_set_overrides_resolve_alike(tmp_path):
    base = ["train", "--synthetic", "--seed", "3", *TINY_SYNTH, *TINY_MODEL]
    assert run([*base, "--folds", "3", "--lambda", "2", "--output", tmp_path / "flags"]) == 0
    assert run([*base, "--set", "train.folds=3", "--set", "train.lambda=2",
                "--output", tmp_path / "set"]) == 0
    for name in ("resolved_config.json", "summary.csv"):
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "set" / name).read_bytes()


def test_evaluate_long_percentile_filters_bags(tmp_path):
    corpus = tmp_path / "corpus"
    assert run(["synth", "--seed", "7", "--output", corpus, *TINY_SYNTH]) == 0
    out = tmp_path / "run"
    assert run(["train", "--manifest", corpus / "manifest.csv", "--folds", "2",
                "--seed", "7", "--output", out, *TINY_MODEL]) == 0
    ev = tmp_path / "eval"
    assert run(["evaluate", "--checkpoint", out / "fold_00/checkpoint.s4mc",
                "--manifest", corpus / "manifest.csv", "--long-percentile", "85",
                "--output", ev]) == 0
    with open(ev / "metrics.csv", newline="") as fh:
        metrics = dict(list(csv.reader(fh))[1:])
    assert int(metrics["count"]) < 12  # the split kept only the longest bags


@pytest.mark.parametrize("text", [
    '{"train.max_epochs": 2.7}',  # was truncated to 2
    '{"train.max_epochs": true}',  # was read as 1
    '{"train.max_epochs": 1e400}',  # was a bare OverflowError
    '{"train.learning_rate": NaN}',  # was accepted
    '{"train.learning_rate": -Infinity}',
], ids=["fractional-int", "bool-int", "overflowing-int", "nan-float", "infinite-float"])
def test_config_file_number_that_does_not_fit_its_key_is_rejected(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    key = next(iter(json.loads(text)))
    with pytest.raises(ConfigError, match=key):
        resolve_config(RunSpec("train", str(path), [], tmp_path), {})


@pytest.mark.parametrize("value", ['[1, 2]', '5', '2.5', 'true'],
                         ids=["list", "int", "float", "bool"])
def test_config_file_value_that_is_not_a_string_for_a_string_key_is_rejected(tmp_path, value):
    # str() would take each of these as a file name or a rule name.
    path = tmp_path / "config.json"
    for key in ("train.manifest", "model.discretization"):
        path.write_text(f'{{"{key}": {value}}}')
        with pytest.raises(ConfigError, match=rf"{key}: .* is not a string"):
            resolve_config(RunSpec("train", str(path), [], tmp_path), {})


def test_dict_for_a_string_key_is_rejected():
    # A config file flattens nested objects into dotted keys, so only a
    # direct coercion sees a dict.
    with pytest.raises(ConfigError, match=r"train.manifest: .* is not a string"):
        _coerce("train.manifest", {"a": 1}, str)


def test_config_file_integral_float_is_an_int(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"train.max_epochs": 3.0}')
    config = resolve_config(RunSpec("train", str(path), [], tmp_path), {})
    assert config["train.max_epochs"] == 3 and type(config["train.max_epochs"]) is int


def test_config_file_null_for_a_key_that_is_not_optional_is_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"train.max_epochs": null, "evaluate.long_percentile": null}')
    with pytest.raises(ConfigError, match="train.max_epochs: null"):
        resolve_config(RunSpec("train", str(path), [], tmp_path), {})
    path.write_text('{"evaluate.long_percentile": null}')
    assert resolve_config(RunSpec("train", str(path), [], tmp_path), {})["evaluate.long_percentile"] is None
