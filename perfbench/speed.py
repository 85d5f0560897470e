"""CPU-speed sampling, so that timings are steady on a shared host.

On a shared host the core a run gets changes speed under it: the same
work takes up to ~1.7x longer for stretches of 0.1 s to tens of seconds,
independently on each core, with the process's CPU time rising as much as
its wall time. A median over repetitions does not remove that; measuring
the core's speed at the same moment does.

`SpeedSampler` times a small fixed kernel (tiny numpy calls and Python
bookkeeping, the same mix as a training step) every PERIOD_S from a
SIGALRM handler, so each sample runs on the core the workload is on, at
the moment it runs. `reference_seconds(start, end)` converts a wall
interval into seconds at the speed where the kernel takes
REFERENCE_KERNEL_S: the wall time minus the sampler's own time, times the
mean of REFERENCE_KERNEL_S / kernel time over the samples in the
interval (or the nearest one, for short intervals). The sampler costs
~0.5% of the run and its time is subtracted. It changes no result of the
program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# About this kernel's time on a 2-core Xeon VM in its usual (slower) state,
# so reference seconds read close to wall seconds there.
REFERENCE_KERNEL_S = 3e-4

_MATRIX = np.random.default_rng(0).normal(0.0, 0.1, (4, 4))


def _kernel() -> list:
    m, out = _MATRIX, []
    for i in range(60):
        m = np.tanh(m @ _MATRIX + _MATRIX)
        out.append((i, float(m[0, 0])))
    return out


class SpeedSampler:
    """Context manager: samples the core's speed while the block runs."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        _kernel()
        self.times.append(start)
        self.kernel_s.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        busy = sum(self.kernel_s[lo:hi])
        if hi == lo:
            # No sample inside: use the one nearest the interval.
            nearest = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                          key=lambda i: abs(self.times[i] - start))
            lo, hi = nearest, nearest + 1
        factor = statistics.fmean(REFERENCE_KERNEL_S / k for k in self.kernel_s[lo:hi])
        return (end - start - busy) * factor

    def mean_factor(self) -> float:
        return statistics.fmean(REFERENCE_KERNEL_S / k for k in self.kernel_s)
