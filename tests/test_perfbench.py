"""The benchmark's smoke mode, run from this checkout, passes its own checks.

perfbench drives ``load_manifest``, ``Bag`` and the traced span names from
outside the package; a change that breaks that use fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_smoke_run_is_correct(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke", "--seconds", "1",
         "--seed", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
