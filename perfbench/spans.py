"""Span tracing of the s4mil layers, installed from outside the package.

A ``Tracer`` replaces each traced function at every name its callers
resolve: the defining module's global, any package module that imported it
by name (``train`` imports ``build_tape``, ``forward_mil`` and
``auroc_binary``), or the class attribute of a method.  ``ssm.fft_causal_corr``
calls ``fft_causal_conv`` through the ``ssm`` global, so the patched global
sees those calls too.  Leaving ``Tracer.installed`` puts every original back.

Each call records a span.  A span's self time is its duration minus the
durations of the spans it directly encloses; time inside outermost spans is
the traced time the named spans cover.  Counters are derived from call
arguments and results only, so they repeat exactly for a fixed workload.

The tracer keeps one span stack, so traced functions must run on a single
thread (the benchmark fixes ``run.threads`` to 1).
"""

import contextlib
import functools
import importlib
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np


def _bytes_read(counts, args, kwargs, result):
    counts["bytes_read"] += os.stat(args[0] if args else kwargs["path"]).st_size


def _chunks(counts, args, kwargs, result):
    total, chunk = args[0], args[1]
    counts["chunks"] += math.ceil(total / chunk)


def _tape_nodes(counts, args, kwargs, result):
    counts["tapes"] += 1
    counts["nodes"] += len(result.tape.nodes)


def _transform_points(counts, args, kwargs, result, forward):
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    n = result.shape[axis] if not forward else kwargs.get("n", args[1] if len(args) > 1 else None)
    signal = np.shape(args[0])[axis]
    n = signal if n is None else n
    rows = result.size // result.shape[axis]
    counts["fft_points"] += rows * n
    if forward:
        counts["fft_useful"] += rows * min(signal, n)
        counts["fft_forward"] += rows * n


# (module, attribute, observer): every function the per-layer metrics cover.
SPANS = [
    ("data_io", "load_manifest", None),
    ("data_io", "read_sequence_file", _bytes_read),
    ("checkpoint", "load_checkpoint", None),
    ("checkpoint", "save_checkpoint", None),
    ("model", "build_tape", _tape_nodes),
    ("model", "forward_mil", None),
    ("autograd", "Tape.leaf", None),
    ("autograd", "Tape.matvec", None),
    ("autograd", "Tape.add", None),
    ("autograd", "Tape.mul", None),
    ("autograd", "Tape.sigmoid", None),
    ("autograd", "Tape.layernorm", None),
    ("autograd", "Tape.ssm_conv", None),
    ("autograd", "Tape.max_pool_sequence", None),
    ("autograd", "Tape.softmax_log_loss", None),
    ("autograd", "Tape.scale", None),
    ("autograd", "Tape.backward", None),
    ("autograd", "grad_ssm_conv", None),
    ("ssm", "kernel_bank", None),
    ("ssm", "fft_causal_conv", None),
    ("ssm", "fft_causal_corr", None),
    ("ssm", "power_weighted_sum", None),
    ("parallel", "run_chunked", _chunks),
    ("train", "fit", None),
    ("train", "AdamLookahead.step", None),
    ("train", "evaluate_model", None),
    ("metrics", "auroc_binary", None),
]

# numpy transforms the ssm layer resolves through ``np.fft``; counted, not timed.
TRANSFORMS = [("rfft", True), ("fft", True), ("irfft", False), ("ifft", False)]

# Spans whose tracemalloc peak is reported; they must not nest in one another.
MEMORY_SPANS = ("autograd.Tape.ssm_conv", "autograd.Tape.backward")

SPAN_NAMES = [f"{module}.{attr}" for module, attr, _ in SPANS]

# (metric, unit, better) for every per-layer metric, in output order.
PER_LAYER = [
    (f"{name}.{field}", unit, "lower")
    for name in SPAN_NAMES
    for field, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))
] + [
    ("ssm.fft_points", "count", "lower"),
    ("ssm.fft_pad_efficiency", "1", "higher"),
    ("autograd.nodes_per_tape", "count", "lower"),
    ("data_io.bytes_read", "count", "lower"),
    ("parallel.run_chunked.chunks", "count", "lower"),
    *((f"{name}.peak_mb", "MB", "lower") for name in MEMORY_SPANS),
    ("trace.overhead_s", "s", "lower"),
    ("trace.span_coverage", "1", "higher"),
]


class Tracer:
    """In-memory span and counter aggregates for one traced stretch of work."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.peak_bytes = defaultdict(int)
        self.counts = defaultdict(int)
        self.covered_s = 0.0
        self._stack: list[float] = []  # child time of each open span
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name, fn, observe):
        stack = self._stack
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            base = None
            if memory and tracemalloc.is_tracing():
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed
                if base is not None:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.peak_bytes[name] = max(self.peak_bytes[name], peak)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def _counted(self, fn, forward):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            _transform_points(self.counts, args, kwargs, result, forward)
            return result

        return counted

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self):
        for module_name, _, _ in SPANS:
            importlib.import_module(f"s4mil.{module_name}")
        package = [mod for key, mod in list(sys.modules.items())
                   if key == "s4mil" or key.startswith("s4mil.")]
        for module_name, attr, observe in SPANS:
            module = sys.modules[f"s4mil.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, method, self._span(name, cls.__dict__[method], observe))
                continue
            original = getattr(module, attr)
            wrapper = self._span(name, original, observe)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for attr, forward in TRANSFORMS:
            self._set(np.fft, attr, self._counted(getattr(np.fft, attr), forward))

    @contextlib.contextmanager
    def installed(self):
        """Trace the s4mil layers inside the block; originals return on exit."""
        try:
            self._install()
            yield self
        finally:
            while self._restore:
                owner, attr, original = self._restore.pop()
                setattr(owner, attr, original)

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Every per-layer metric, for a traced stretch of ``traced_s`` seconds
        whose untraced twin took ``untraced_s``."""
        counts = self.counts
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.total_s"] = self.total_s[name]
        out["ssm.fft_points"] = counts["fft_points"]
        out["ssm.fft_pad_efficiency"] = (
            counts["fft_useful"] / counts["fft_forward"] if counts["fft_forward"] else 0.0)
        out["autograd.nodes_per_tape"] = counts["nodes"] / counts["tapes"] if counts["tapes"] else 0.0
        out["data_io.bytes_read"] = counts["bytes_read"]
        out["parallel.run_chunked.chunks"] = counts["chunks"]
        for name in MEMORY_SPANS:
            out[f"{name}.peak_mb"] = self.peak_bytes[name] / 1e6
        out["trace.overhead_s"] = traced_s - untraced_s
        out["trace.span_coverage"] = self.covered_s / traced_s
        return out
