"""Wall time scaled to the machine's reference speed.

On a shared 2-core VM the speed of one thread changes by up to a factor of
two within seconds, as other tenants load the host; CPU time moves with wall
time, so neither clock repeats.  A small fixed kernel is timed every PERIOD_S
seconds from a SIGALRM handler, and by the worker around each operation.  An
interval of wall time w whose kernel samples have median k counts as
w * REF_S / k reference seconds: a change to lieorb moves w and leaves k
alone, while a slower host moves both.

About a third of the kernel's time is 12 x 12 numpy calls, the rest pure
Python (tuple and dict work).  Over 150 s recordings that mix tracked host
drift best: the spread of 20 s orbit-map rates fell from 0.07 (wall) to
0.014, and the sl(6, R) N0 search varied by 7 % instead of 17 %.  A
pure-numpy kernel over-corrects the Python-heavy N0 search.

The handler runs between bytecodes of the main thread, so a sample waits for
a long native call to return; the samples' own duration is left out of every
interval.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# kernel time on an unloaded core of the reference machine (2-core Xeon VM)
REF_S = 5.0e-4


class RefClock:
    def __init__(self):
        self.times: list[float] = []    # end of each kernel sample
        self.kernels: list[float] = []  # its duration
        self.spent = 0.0                # summed duration of all samples
        self._A = np.linspace(-1.0, 1.0, 144).reshape(12, 12)

    def sample(self) -> None:
        """Time the kernel once."""
        A = self._A
        t0 = time.perf_counter()
        x = A
        for _ in range(40):
            x = np.tanh(x @ A * 0.1)
        acc = 0
        for _ in range(3):
            for p in itertools.permutations(range(6)):
                acc += p[0] * p[5]
            acc += len({(i, i % 7): i for i in range(600)})
        t1 = time.perf_counter()
        self.times.append(t1)
        self.kernels.append(t1 - t0)
        self.spent += t1 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def wall(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        """Wall seconds from mark a to mark b, without the kernel samples."""
        return (b[0] - a[0]) - (b[1] - a[1])

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median kernel time from the last sample before start
        to the first sample after end."""
        lo = max(0, bisect.bisect_left(self.times, start) - 1)
        hi = bisect.bisect_right(self.times, end) + 1
        return REF_S / statistics.median(self.kernels[lo:hi])

    def scaled(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        """Reference seconds from mark a to mark b, once a sample follows b."""
        return self.wall(a, b) * self.factor(a[0], b[0])
