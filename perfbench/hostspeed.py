"""Host-speed probe: a fixed numpy kernel timed between the benchmark's operations.

On a shared host, other tenants' use of the caches and memory bus slows the
same work by up to 1.8x, in stretches that last from seconds to minutes.  The
probe's time moves with it, so a timing scaled by the probe times taken on
either side of it is much steadier than the timing alone.  Scaled
timings are seconds at reference speed: raw seconds times ``REFERENCE_S``
over the probe's time.  The probe runs only between operations, never
alongside one, and uses no fsqnet code, so a change to fsqnet moves the scaled
figures exactly as much as the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

ELEMENTS = 262_144  # float64 per array: 2 MiB, past L2, inside a share of L3
PASSES = 8
REPEATS = 3  # a probe is the median of this many timings of PASSES passes
REFERENCE_S = 0.0045  # the probe time called reference speed (about a quiet 2-vCPU Xeon)
INTERVAL_S = 0.25  # the least time between probes taken only when due


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random(ELEMENTS)
        self._b = rng.random(ELEMENTS)
        self._tmp = np.zeros(ELEMENTS)
        self._acc = np.zeros(ELEMENTS)
        self.ends: list[float] = []  # perf_counter at the end of each probe, ascending
        self.seconds: list[float] = []
        self._time()  # warm-up, not recorded

    def _time(self) -> float:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for _ in range(PASSES):
                np.multiply(self._a, self._b, out=self._tmp)
                np.add(self._acc, self._tmp, out=self._acc)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def measure(self) -> None:
        seconds = self._time()
        self.ends.append(time.perf_counter())
        self.seconds.append(seconds)

    def measure_if_due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.measure()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe time around [start, end].

        The probes counted are those that end within one interval's length
        (at least INTERVAL_S) before start or after end, and always the last
        one before start and the first one after end.  No probe runs inside
        the interval, so a long operation is judged by the host's speed over a
        like stretch on either side of it.  Multiply a time taken over
        [start, end] by this, or divide a rate by it.
        """
        reach = max(end - start, INTERVAL_S)
        i = bisect.bisect_right(self.ends, start)
        j = bisect.bisect_left(self.ends, end)
        lo = min(bisect.bisect_left(self.ends, start - reach), max(i - 1, 0))
        hi = max(bisect.bisect_right(self.ends, end + reach), min(j + 1, len(self.ends)))
        around = self.seconds[lo:i] + self.seconds[j:hi]
        if not around:
            raise ValueError("no host-speed probe was taken")
        return REFERENCE_S / statistics.median(around)
