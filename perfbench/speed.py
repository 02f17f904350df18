"""Machine-speed probe that puts timings taken at different moments on one scale.

On the shared 2-core box the benchmark was tuned on, the CPU switches between
a fast and a slow state about 1.4x apart, for seconds to minutes at a time,
and CPU time moves with wall time. Raw medians of two runs of the same code
then differ by up to 30 %. A small fixed kernel of numpy and pure-Python work
follows that state. It runs between operations (mark) and, inside an
operation, every INTERVAL_S from a timer signal (sampling), so the state is
followed through operations that last seconds. An operation's time is its
wall time minus the kernel runs inside it, multiplied by REFERENCE_MS over
the mean kernel time around and inside it. The kernel runs no dpadapt code,
so a change to the library moves only the operation's time.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

# Kernel time on the reference machine; on the tuning box it reads about
# 0.6 ms in the fast state and 0.85 ms in the slow one.
REFERENCE_MS = 0.7
INTERVAL_S = 0.05
_NEIGHBOURS = 3


def kernel_ms() -> float:
    start = time.perf_counter()
    x = np.linspace(1.0, 2.0, 4096)
    for _ in range(10):
        x = np.sqrt(x * x + 1.0)
    total = 0
    for i in range(5_000):
        total += i * i
    return 1e3 * (time.perf_counter() - start)


class SpeedProbe:
    def __init__(self):
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._kernel_ms: list[float] = []
        self.mark()

    def _record(self, *_signal_args):
        start = time.perf_counter()
        k = kernel_ms()
        self._starts.append(start)
        self._ends.append(time.perf_counter())
        self._kernel_ms.append(k)

    def mark(self):
        """Sample the kernel between operations."""
        for _ in range(_NEIGHBOURS):
            self._record()

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel every INTERVAL_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._record)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(ms, scaled ms) of the perf_counter interval [start, end].

        Call it after the mark that follows the interval, so that samples
        on both sides exist.
        """
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._ends, end)
        probe_s = sum(self._ends[i] - self._starts[i] for i in range(lo, hi))
        ms = 1e3 * (end - start - probe_s)
        # Work done is speed integrated over time, so average the speeds 1/k:
        # the harmonic mean, which also keeps a rare slow sample from dominating.
        around = self._kernel_ms[max(lo - _NEIGHBOURS, 0):hi + _NEIGHBOURS]
        return ms, ms * REFERENCE_MS / statistics.harmonic_mean(around)
