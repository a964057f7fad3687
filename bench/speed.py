"""Machine-speed reference for the benchmark's timings.

On a shared virtual machine the speed of one core drifts by tens of percent
over seconds to minutes, with the program unchanged: the same operation,
repeated in one process, reads 0.34 s in one stretch and 0.59 s in the next.
A median over one run cannot average out a drift that slow, so each timing
is divided by the machine's speed measured next to it.

The reference is ``kernel``: a fixed piece of float parsing, small-array
numpy work and Philox keying, the mix the program spends its time on, run
twice so that the timed second run finds its caches refilled.  ``Sampler``
runs it from a SIGALRM handler every ``INTERVAL`` seconds, in the thread
that runs the operations, so it sees the core as the operations see it.  An
operation's time is its wall time minus the handler time that fell inside
it, divided by the median kernel time of the samples around it, and
multiplied by ``KERNEL_S``.  The result reads in seconds of a machine that
runs the kernel in ``KERNEL_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from numpy.random import Philox

#: Median kernel time on the reference machine (2 vCPUs, Python 3.11.7,
#: numpy 2.4.6); a normalised time reads in seconds of that machine.
KERNEL_S = 0.0008
#: Seconds between two samples.
INTERVAL = 0.1
#: Samples this long before an operation's start or after its end still
#: count towards its speed.
MARGIN = 1.0

_TEXT = [repr(1.0 / (i + 3)) for i in range(600)]


def _work() -> None:
    a = np.asarray([float(s) for s in _TEXT])
    for _ in range(12):
        a = np.where(np.abs(a) < 1e-300, 1e-300, a) * 1.0000001
    for key in range(1, 13):
        raw = Philox(key=key).random_raw(40)
        a[key] = np.log((raw >> np.uint64(11)).astype(np.float64) + 0.5).mean()


def kernel() -> float:
    """Run the reference work twice; returns the wall time of the second run.

    The untimed first run refills the caches the interrupted operation
    evicted, so the timed run sees the core's speed, not what the program
    left in its caches.
    """
    _work()
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def factor(durations: list[float]) -> float:
    """Speed factor: > 1 when the machine runs slower than the reference."""
    return statistics.median(durations) / KERNEL_S


class Sampler:
    """Samples the kernel from a SIGALRM handler while operations run."""

    def __init__(self) -> None:
        self.entered: list[float] = []
        self.left: list[float] = []
        self.durations: list[float] = []

    def _handle(self, signum, frame) -> None:
        entered = time.perf_counter()
        self.durations.append(kernel())
        self.entered.append(entered)
        self.left.append(time.perf_counter())

    def start(self) -> None:
        kernel()  # a handler must never be the first to import or set up anything
        signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, start: float, end: float) -> float:
        """Handler time that fell inside [start, end]."""
        lo = bisect.bisect_left(self.entered, start)
        hi = bisect.bisect_right(self.entered, end)
        return sum(min(self.left[i], end) - self.entered[i] for i in range(lo, hi))

    def around(self, start: float, end: float) -> list[float]:
        """Kernel times sampled within MARGIN of [start, end]."""
        lo = bisect.bisect_left(self.entered, start - MARGIN)
        hi = bisect.bisect_right(self.entered, end + MARGIN)
        return self.durations[lo:hi]
