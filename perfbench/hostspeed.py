"""Host-speed sampling, so timings from a shared, drifting host compare.

On a shared machine the speed of a core drifts in regimes that last from
one to tens of seconds (1.6x apart on the reference host, in plain Python
loops as well as in coastsim), longer than one benchmark run. A timer
signal therefore runs a fixed calibration snippet every `INTERVAL` seconds
while the harness measures; its duration tracks the current regime.
`scaled(t0, t1)` turns the wall time of [t0, t1] into seconds at the
nominal host speed: wall time minus the sampler's own time, times NOMINAL /
(mean snippet time over the interval). Samples are evenly spaced in time,
so their mean weights each regime by how long it lasted.

The snippet never calls coastsim, but it runs inside the benchmark process,
interleaved with the simulator, so the cache and heap state coastsim leaves
behind can still move its time; nothing here proves that a change to the
simulator cannot. Each `run` line therefore prints the cycle's
`host_factor` and raw wall time: a comparison whose factors differ between
the two commits on the same host should be read from the wall times.
`calibration_snippet` is also called directly, to pair it with a timed
interval too short for the sampler (run.py's set-ups).
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.025  # [s] between samples
NOMINAL = 200e-6  # [s] about the snippet time on a quiet reference core
MIN_SAMPLES = 9  # an interval with fewer borrows its nearest neighbours


class HostSpeed:
    """Timer-driven sampler of host speed; start() ... stop() brackets it."""

    def __init__(self):
        self.stamps: list[float] = []  # perf_counter at each sample's end
        self.durations: list[float] = []  # snippet time of each sample
        self.spent: list[float] = []  # cumulative handler time
        self._previous = None
        self._a = np.array([0.3, -1.2, 0.7])
        self._b = np.array([1.0, 2.0, 3.0])
        self._out = np.empty(3)

    def calibration_snippet(self) -> float:
        """numpy calls on 3-vectors and interpreter arithmetic, the two costs
        of a step, without allocating. Across speed regimes the log of a
        run's, an emit's or a read's time follows the log of this snippet's
        time with slope 1.0-1.1. A variant that built new arrays ran 3x
        slower inside emit_outputs/read_run than inside a run: it measured
        the heap those phases leave behind rather than the host. A walk over
        cold memory tracked the host worse (correlation 0.6 against 0.9)."""
        for _ in range(60):
            np.multiply(self._a, 0.5, out=self._out)
            np.add(self._out, self._b, out=self._out)
        acc = 0.0
        for i in range(700):
            acc += (i % 7) * 0.25 - acc * 1e-3
        return acc

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.calibration_snippet()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.durations.append(t1 - t0)
        self.spent.append((self.spent[-1] if self.spent else 0.0)
                          + time.perf_counter() - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _spent_before(self, t: float) -> float:
        i = bisect.bisect_right(self.stamps, t)
        return self.spent[i - 1] if i else 0.0

    def factor(self, t0: float, t1: float) -> float:
        """Mean snippet time over [t0, t1] relative to NOMINAL."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.stamps)):
            # widen toward whichever neighbour lies closer in time
            before = t0 - self.stamps[lo - 1] if lo > 0 else math.inf
            after = self.stamps[hi] - t1 if hi < len(self.stamps) else math.inf
            if before <= after:
                lo -= 1
            else:
                hi += 1
        window = sorted(self.durations[lo:hi])
        if not window:
            return 1.0
        trim = len(window) // 10  # drop preempted or interrupted samples
        kept = window[trim:len(window) - trim]
        return statistics.fmean(kept) / NOMINAL

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would have taken at the nominal host speed."""
        own = self._spent_before(t1) - self._spent_before(t0)
        return (t1 - t0 - own) / self.factor(t0, t1)
