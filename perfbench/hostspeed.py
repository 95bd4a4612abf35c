"""Host speed, measured with a fixed piece of reference work between calls.

On a shared host, neighbours slow every Python call by up to 2x, in
phases of seconds to minutes: a whole run can fall into a slow phase, and
its median or minimum moves with it.  The reference work is timed often
during the run, and each call's latency is scaled by
``REFERENCE_S / (reference time around the call)``.  The result is the
latency the call would have on a host where the reference work takes
``REFERENCE_S`` (the uncontended host the benchmark was written on), and
only a change in the program's own cost moves it.

The reference work is benchmark code, so no change to the package alters
it, and it runs with the garbage collector off, so the package's heap
does not either.
"""

from __future__ import annotations

import bisect
import gc
from time import perf_counter

REFERENCE_S = 0.0008  # reference work, uncontended, 2-core x86_64 Xeon VM, Python 3.11
INTERVAL_S = 0.1  # at most this long between two groups of samples
GROUP = 4  # samples per group; a call is scaled by the groups around it


def _reference_work() -> float:
    table: dict[tuple[str, int], float] = {}
    acc = 0.0
    for i in range(1500):
        key = ("t", i % 61)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key] / (i + 1)
    return acc


def reference_seconds() -> float:
    """Time the reference work now (twice, with the garbage collector off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference_work()
        _reference_work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        for _ in range(GROUP):
            self.times.append(perf_counter())
            self.seconds.append(reference_seconds())

    def sample_if_due(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean reference time of the groups before and after."""
        before = bisect.bisect_right(self.times, start)
        after = bisect.bisect_left(self.times, end)
        around = self.seconds[max(0, before - GROUP) : before] + self.seconds[after : after + GROUP]
        return REFERENCE_S * len(around) / sum(around)
