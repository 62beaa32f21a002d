"""Tests of the benchmark itself, on the tiny ``--smoke`` sizes.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

They check the result schema against ``BENCHMARK.json``, that the traced
counts repeat exactly across seeds, that the tracer restores what it
patched, that the reference clock samples during a phase and restores the
timer, that a failing check fails the run, and that the benchmark refuses
to run without the package sources.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from s4mil import autograd, model, ssm, train  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.strip().splitlines()


def setUpModule():
    SCRATCH.mkdir(parents=True, exist_ok=True)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.parent.rmdir()  # only once no other run uses it
    except OSError:
        pass


class SmokeRuns(unittest.TestCase):
    def test_end_to_end_metrics_and_checks(self):
        proc, lines = _run("--workload", "all", "--seed", "1", "--seconds", "1",
                           "--trace", "0", "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        expected = {f"{w['name']}.{m['name']}" for w in SPEC["workloads"]
                    for m in SPEC["end_to_end"]}
        self.assertEqual(set(result["metrics"]), expected)
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
        self.assertTrue(any(line.startswith("needle-train val_auroc:") for line in lines))

    def test_traced_counts_repeat_across_seeds(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        self.assertEqual(names, [name for name, _, _ in spans.PER_LAYER])
        for workload in (w["name"] for w in SPEC["workloads"]):
            runs = []
            for seed in ("1", "2"):
                proc, lines = _run("--workload", workload, "--seed", seed, "--seconds", "1",
                                   "--trace", "1", "--smoke")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(list(result["metrics"]), names)
                runs.append(result["metrics"])
            counted = [n for n in names if runs[0][n]["unit"] == "count"]
            counted.append("ssm.fft_pad_efficiency")
            for name in counted:
                self.assertEqual(runs[0][name]["value"], runs[1][name]["value"],
                                 f"{workload} {name}")
            self.assertGreater(runs[0]["trace.span_coverage"]["value"], 0.5, workload)

    def test_refuses_to_run_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc, lines = _run("--workload", "needle-train", "--seed", "1", "--seconds", "1",
                           "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


class Tracing(unittest.TestCase):
    def test_spans_nest_and_originals_return(self):
        originals = (model.build_tape, train.build_tape, autograd.Tape.matvec, np.fft.rfft)
        cfg = model.ModelConfig(input_dim=4, hidden_dim=4, state_dim=4)
        mil = model.init_parameters(cfg, 0)
        tracer = spans.Tracer()
        with tracer.installed():
            self.assertIsNot(train.build_tape, originals[1])
            model.forward_mil(mil, np.ones((10, 4), dtype=np.float32))
        self.assertEqual((model.build_tape, train.build_tape, autograd.Tape.matvec, np.fft.rfft),
                         originals)
        self.assertEqual(tracer.calls["model.forward_mil"], 1)
        self.assertEqual(tracer.calls["ssm.fft_causal_conv"], 1)
        # three transforms of 4 rows, each at least the 2L-1 points of a linear convolution
        self.assertGreaterEqual(tracer.counts["fft_points"], 3 * 4 * 19)
        for name in spans.SPAN_NAMES:
            self.assertLessEqual(tracer.self_s[name], tracer.total_s[name] + 1e-12)
        self.assertAlmostEqual(sum(tracer.self_s.values()), tracer.covered_s, places=9)
        self.assertAlmostEqual(tracer.covered_s, tracer.total_s["model.forward_mil"], places=9)


class ReferenceClock(unittest.TestCase):
    def test_samples_during_a_phase_and_restores_the_timer(self):
        clock = reference.Clock("interpreter")
        start = time.perf_counter()
        with clock.phase("busy"):
            while time.perf_counter() - start < 0.3:
                pass
        elapsed = time.perf_counter() - start
        self.assertGreaterEqual(len(clock.samples), 5)
        self.assertLess(clock.wall["busy"][0], elapsed - sum(clock.samples) + 1e-3)
        speed = reference.REFERENCE_S["interpreter"] * len(clock.samples) / sum(clock.samples)
        self.assertAlmostEqual(clock.scaled["busy"][0], clock.wall["busy"][0] * speed)
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_without_a_kernel_times_are_wall_times(self):
        clock = reference.Clock(None)
        with clock.phase("idle"):
            time.sleep(0.05)
        self.assertEqual(clock.scaled["idle"], clock.wall["idle"])
        self.assertEqual(clock.samples, [])


class Checks(unittest.TestCase):
    def test_needle_thresholds_fail_the_run(self):
        needle = workloads.SMOKE["needle-train"]
        work_dir = SCRATCH / "needle"
        work_dir.mkdir()
        needle.setup(work_dir, 1)
        unit = needle.run_unit()
        self.assertEqual(needle.check([unit]), [])
        unit.output["val_auroc"] = workloads.MIN_VAL_AUROC - 0.01
        unit.output["patch_auroc"] = workloads.MIN_PATCH_AUROC - 0.01
        self.assertEqual(len(needle.check([unit])), 2)

    def test_conv_error_at_one_token_fails_the_oracle_check(self):
        slide = workloads.SMOKE["slide-infer"]
        work_dir = SCRATCH / "slide"
        work_dir.mkdir()
        slide.setup(work_dir, 1)
        units = [slide.run_unit()]
        self.assertEqual(slide.check(units), [])
        original = ssm.fft_causal_conv

        def off_at_one_token(kernels, u):
            out = original(kernels, u)
            out[0, 5] += 1e-3 * (1.0 + np.max(np.abs(out)))
            return out

        ssm.fft_causal_conv = off_at_one_token
        try:
            problems = slide.check(units)
        finally:
            ssm.fft_causal_conv = original
        self.assertTrue(any("token activations" in p for p in problems), problems)

    def test_nonfinite_gradient_fails_the_step_check(self):
        step = workloads.SMOKE["paper-train-step"]
        step.setup(SCRATCH, 1)
        unit = step.run_unit()
        self.assertEqual(step.check([unit]), [])
        unit.output["grads"]["norm.scale"][0] = np.nan
        self.assertEqual(len(step.check([unit])), 1)


if __name__ == "__main__":
    unittest.main()
