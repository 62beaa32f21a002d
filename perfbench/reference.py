"""Timing in reference seconds: wall time corrected for the speed of a
shared core, measured by a fixed kernel that runs all through the phase.

On a shared host the speed of one core drifts by tens of percent within
seconds and between minutes, as neighbours load the core's sibling
thread, its caches and the memory bus.  While a phase runs, an interval
timer interrupts it every few tens of milliseconds and runs a short reference kernel,
fixed work that does not call s4mil, on the same thread.  The phase is
reported in reference seconds: its wall time, less the kernel's own time,
times the kernel's time on the reference machine (``REFERENCE_S``) over its
mean time during the phase.  A change to s4mil moves the phase's wall time
and leaves the kernel's alone, so it moves the reported time by the same
share; a slower or faster core moves both, and cancels.

Each workload names the kernel that loads the core the way it does:

* ``interpreter``: tiny and small numpy operations and an integer loop,
  as the autograd tape runs on small bags.  Bytecode dispatch and per-call
  overhead dominate.
* ``bulk``: a real FFT, a matrix product and element-wise passes over
  arrays of a hundred kilobytes, as paper-scale bags run in chunks.
  Vector units and cache bandwidth dominate.

On a 2-core shared VM, needle training in 1 s pieces varied by 19%
(coefficient of variation over 479 pieces in 6 minutes); its time over the
interpreter kernel's, sampled this way, varied by 6%.
"""

import contextlib
import signal
import statistics
import time
from collections import defaultdict

import numpy as np

_TINY = np.linspace(-1.0, 1.0, 8 * 32, dtype=np.float32).reshape(8, 32)
_SMALL = np.linspace(-1.0, 1.0, 256 * 32, dtype=np.float32).reshape(256, 32)
_W = np.full((32, 32), 1.0 / 32, dtype=np.float32)


def _interpreter() -> None:
    for x, steps in ((_TINY, 10), (_SMALL, 4)):
        h = x
        for _ in range(steps):
            h = np.tanh(h @ _W + x * np.float32(0.5))
    v = 1
    for _ in range(1500):
        v = (v * 1103515245 + 12345) & 0xFFFFFFF


_SIGNAL = np.linspace(-1.0, 1.0, 2 * 8192, dtype=np.float32).reshape(2, 8192)
_A = np.linspace(-1.0, 1.0, 96 * 192, dtype=np.float32).reshape(96, 192)


def _bulk() -> None:
    y = np.fft.irfft(np.fft.rfft(_SIGNAL, n=16384, axis=1), n=16384, axis=1)[:, :8192]
    z = 1.0 / (1.0 + np.exp(-(_SIGNAL * y)))
    _A @ _A.T @ _A
    z.sum()


KERNELS = {"interpreter": _interpreter, "bulk": _bulk}

# About the time of one kernel call during a phase on the machine the
# reference figures come from (a shared 2-core Xeon VM, numpy 2.4, OpenBLAS
# 0.3.31 on one thread), so that reference seconds read close to its wall
# seconds.  They set the scale only; changing them rescales every result.
REFERENCE_S = {"interpreter": 0.0004, "bulk": 0.0011}
# Seconds between samples: about 40 times the kernel, so sampling costs 2-3%.
INTERVAL_S = {"interpreter": 0.02, "bulk": 0.05}


class Clock:
    """Times named phases in wall seconds and in reference seconds.

    With ``kernel=None`` it samples nothing and both times are wall times,
    for runs whose timings must not include the kernel, such as traced ones.
    """

    def __init__(self, kernel: str | None):
        self._kernel = KERNELS[kernel] if kernel else None
        self._reference_s = REFERENCE_S[kernel] if kernel else None
        self._interval_s = INTERVAL_S[kernel] if kernel else None
        if self._kernel:
            self._kernel()  # first-call costs (page faults, FFT plans) stay out of the samples
        self.wall = defaultdict(list)
        self.scaled = defaultdict(list)
        self.samples = []

    def _sample(self, samples: list) -> None:
        start = time.perf_counter()
        self._kernel()
        samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def phase(self, name: str):
        if not self._kernel:
            start = time.perf_counter()
            yield
            self.wall[name].append(time.perf_counter() - start)
            self.scaled[name].append(self.wall[name][-1])
            return
        samples = []
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._sample(samples))
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self._interval_s, self._interval_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall_s = time.perf_counter() - start - sum(samples)
            signal.signal(signal.SIGALRM, previous)
        if not samples:  # a phase shorter than the interval
            self._sample(samples)
        self.samples += samples
        self.wall[name].append(wall_s)
        self.scaled[name].append(wall_s * self._reference_s / statistics.fmean(samples))

    def speeds(self) -> list[float]:
        """Reference time over each sample: above 1 while the core is fast."""
        return [self._reference_s / sample for sample in self.samples]
