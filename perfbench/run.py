"""Benchmark of the s4mil engine: slide inference, a paper-scale training
step and needle training, end to end and, traced, layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload slide-infer --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The benchmark builds its inputs from ``--seed`` under ``.perfbench_work/`` in
the checkout, imports ``s4mil`` from ``src/`` and drives its public
functions the way ``s4mil evaluate`` and ``s4mil train`` do.  It repeats
the workload's unit of work until the units have taken ``--seconds``, sets
the workload up ``SETUP_FIRST`` times before the first unit and once more
before every later one (so the set-up samples spread over the run), checks
every output, and prints one ``name: value unit`` line per metric, a
``machine:`` line with the settings, and as its last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (import,
input generation, checkpoint and warm-up; median of the set-ups),
``tokens_per_s`` (median over units) and ``peak_rss_mb`` (process high-water
mark after the timed units).  Both timings are in reference seconds: each
set-up's and unit's wall time is scaled by the speed of the core, which a
fixed reference kernel samples all through it (see ``reference.py``), so
that a shared host's drifting core speed cancels out and a change to s4mil
does not.  The ``name: value unit`` lines also give the wall-clock figures
and the spread of the speed samples.  With ``--trace 1`` the workload runs
a warm-up unit, one unit untraced and one unit traced (see ``spans.py``),
all without the reference kernel, and reports the per-layer metrics; on
``paper-train-step`` the traced unit also runs under tracemalloc.
``--smoke`` shrinks every workload so that a run takes seconds.
``--workload all`` runs each workload in turn in its own child process, since
the peak resident memory is a per-process figure.

Load comes from this one process.  The BLAS pool and ``run.threads`` are
both fixed to one thread, below the core count of any machine.  A failing
check makes ``correct`` false and the exit code 1.
"""

import os
import sys
import time

_START = time.perf_counter()

BLAS_THREADS = 1
RUN_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("slide-infer", "paper-train-step", "needle-train")
SETUP_FIRST = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; runs take seconds")
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _machine(args, table) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(), "run.threads": RUN_THREADS,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "sizes": {name: dataclasses.asdict(w.sizes) for name, w in table.items()},
        "reference_kernel": table[args.workload].reference if not args.trace else None,
    }


def _median_rate(units, seconds) -> float:
    return statistics.median(unit.tokens / s for unit, s in zip(units, seconds))


def run_one(args) -> int:
    if not (SRC / "s4mil" / "__init__.py").is_file():
        print(f"error: no s4mil sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from s4mil import parallel
    import reference
    import spans
    import workloads

    import_s = time.perf_counter() - _START
    parallel.set_threads(RUN_THREADS)
    table = workloads.SMOKE if args.smoke else workloads.FULL
    workload = table[args.workload]
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    # Traced timings must not include the reference kernel's samples.
    clock = reference.Clock(None if args.trace else workload.reference)
    extras = {}

    def set_up():
        gc.collect()  # as in timed_unit: the last unit's tapes must not inflate the peak
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        with clock.phase("setup"):
            workload.setup(work_dir, args.seed)

    def timed_unit():
        # A finished tape stays alive in a reference cycle (its nodes' backward
        # closures hold the tape) until the cyclic collector runs; collect it so
        # that every unit starts from the same heap.
        gc.collect()
        with clock.phase("unit"):
            unit = workload.run_unit()
        return unit

    try:
        set_up()
        if args.trace:
            # A first unit fills caches and pays lazy set-up, so that the
            # untraced unit the tracing overhead is measured against does not.
            warm = timed_unit()
            untraced = timed_unit()
            tracer = spans.Tracer()
            if workload.trace_memory:
                tracemalloc.start()
            with tracer.installed():
                traced = timed_unit()
            if workload.trace_memory:
                tracemalloc.stop()
            units = [warm, untraced, traced]
            _, untraced_s, traced_s = clock.wall["unit"]
            values = tracer.metrics(traced_s, untraced_s)
            result = {name: (values[name], unit) for name, unit, _ in spans.PER_LAYER}
        else:
            for _ in range(SETUP_FIRST - 1):
                set_up()
            units = []
            while sum(clock.wall["unit"]) < args.seconds:
                if units:
                    set_up()
                units.append(timed_unit())
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            # Import ran before the clock existed; it takes the scale of the
            # set-ups that ran right after it.
            first = slice(0, SETUP_FIRST)
            import_ref_s = (import_s * sum(clock.scaled["setup"][first])
                            / sum(clock.wall["setup"][first]))
            result = {
                "setup_s": (import_ref_s + statistics.median(clock.scaled["setup"]), "s"),
                "tokens_per_s": (_median_rate(units, clock.scaled["unit"]), "tokens/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            speeds = clock.speeds()
            extras = {
                "setup_s.wall": (import_s + statistics.median(clock.wall["setup"]), "s"),
                "tokens_per_s.wall": (_median_rate(units, clock.wall["unit"]), "tokens/s"),
                "core_speed.median": (statistics.median(speeds), "1"),
                "core_speed.p10": (statistics.quantiles(speeds, n=10)[0], "1"),
                "core_speed.p90": (statistics.quantiles(speeds, n=10)[-1], "1"),
            }
        problems = workload.check(units)
        extras.update(workload.report(units))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # only once no other run uses it
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    correct = not problems and failed == 0
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in {**result, **extras}.items():
        print(f"{args.workload} {name}: {value!r} {unit}")
    print(f"{args.workload} attempted: {attempted}, failed: {failed}, units: {len(units)}, "
          f"set-ups: {len(clock.wall['setup'])}")
    print("machine: " + json.dumps(_machine(args, table)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=1800)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
