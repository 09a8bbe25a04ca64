"""Machine-speed probe used to report times in reference seconds.

The benchmark runs on shared hosts whose speed drifts by up to about 1.6x
over tens of seconds (measured on a 2-vCPU Xeon VM: a fixed pure-Python loop
took 24 to 39 ms within two minutes, with CPU steal near zero, so the cores
themselves slowed).  Medians within one run cannot remove drift that lasts
longer than the run, so every timed interval is also scaled by the speed of
a fixed reference kernel sampled during it:

    reference seconds = measured seconds * REF_KERNEL_S / mean kernel CPU time

A SIGALRM handler runs the kernel (about 2.5 ms) every PERIOD_S seconds of
wall time, which adds about 1% to every interval on both sides of a
comparison.  The kernel is timed in CPU seconds of the thread that runs it,
so time spent waiting for a core does not count: when the program's own
threads or worker processes hold every core, the kernel is delayed but its
reading is not.  The kernel does not touch smartps, so a change to the
program moves the reported time as it moves the measured time.

Readings taken only between timed intervals, in a tight loop, were tried
and do not track the program's speed: on five 30-s suite runs they gave an
interquartile spread of 41% of the median, against 19% for raw seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
# About the median in-run kernel time on the machine described above, so that
# reference seconds read close to measured seconds there.
REF_KERNEL_S = 0.0022

_LANES = np.arange(64, dtype=float)


def kernel() -> float:
    """Fixed mix of interpreter work and small numpy calls."""
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(3000):
        k = i & 255
        counts[k] = counts.get(k, 0) + 1
        acc += (i * 0.5) % 3.0
    for i in range(500):
        acc += int(np.count_nonzero(_LANES <= (i & 63)))
    return acc


class SpeedProbe:
    """Samples the kernel's CPU time periodically while active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (perf_counter, kernel CPU s)

    def sample(self, *_signal_args) -> None:
        t, c = time.perf_counter(), time.thread_time()
        kernel()
        self.samples.append((t, time.thread_time() - c))

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, t0: float, t1: float) -> float:
        """REF_KERNEL_S over the mean kernel time sampled around [t0, t1]."""
        near = [k for t, k in self.samples if t0 - PERIOD_S <= t <= t1 + PERIOD_S]
        return REF_KERNEL_S / statistics.mean(near or [k for _, k in self.samples])
