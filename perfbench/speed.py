"""The host's speed, read from a fixed piece of reference work.

On the shared 2-vCPU host the benchmark was calibrated on, the speed of the
whole machine changes by up to 1.8x in phases that last from seconds to
minutes, and CPU time changes with it.  A run that falls in a slow phase is
slow throughout, so no statistic over one run removes the phase.  What does
remove it is a yardstick timed in the same thread at the same moment: a
fixed piece of pure-Python work, of the kind the planner does (tuples,
dicts, a heap, a sort), that no change to the package can speed up.

Reference timings are taken between operations, at most one every
``EVERY_S``.  An operation's time is then scaled by ``REFERENCE_S`` over the
mean of the reference timings next to it, the one before and the one after.
The scaled figure reads as the operation's seconds on a host on which the
reference takes ``REFERENCE_S``; a change to the program moves it in
proportion, a change of the host's speed does not.

This module imports only ``bisect``, ``heapq`` and ``time``: the import
probe loads it into a fresh interpreter before timing the package import.
"""
from __future__ import annotations

import bisect
import heapq
import time

# Iterations of the reference work: about 2 ms on the calibration host.
REFERENCE_N = 800
# The reference's seconds on the calibration host (Xeon, 2 vCPUs, Python
# 3.11) in its slower phase; it runs them in 1.2-1.4 ms in its faster one.
# Scaled times are seconds of a host that runs the reference in this time.
REFERENCE_S = 0.002
# At most one reference timing per this many seconds of operations.
EVERY_S = 0.025
# Reference timings on each side of an operation that scale it: the one
# just before it and the one just after.
NEAR = 1


def reference_work(n: int = REFERENCE_N) -> int:
    """Fixed interpreter work: tuple keys in a dict, a bounded heap, a
    frozenset and a keyed sort."""
    counts: dict = {}
    heap: list = []
    acc = 0
    for i in range(n):
        k = (i * 7919) % 1009
        key = (k, i & 15, "s%d" % (k & 63))
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (k, i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    acc += len(frozenset(key[0] for key in counts))
    return acc + len(sorted(counts, key=lambda key: (key[1], key[0])))


def reference_seconds() -> float:
    """Seconds of one run of the reference work."""
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


def _median(xs: list[float]) -> float:
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def scale(reference: list[float]) -> float:
    """The factor that turns seconds measured next to these reference
    timings into reference-host seconds."""
    return REFERENCE_S / _median(reference)


class SpeedClock:
    """Reference timings over a run, and the scaling of operation times."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        # Seconds spent in reference work, to leave out of pass wall times.
        self.spent_s = 0.0
        self._next = 0.0

    def tick(self) -> None:
        """Take a reference timing if ``EVERY_S`` has passed since the
        last one."""
        if time.perf_counter() >= self._next:
            self.sample()

    def sample(self) -> None:
        started = time.perf_counter()
        reference_work()
        ended = time.perf_counter()
        self.starts.append(started)
        self.seconds.append(ended - started)
        self.spent_s += ended - started
        self._next = ended + EVERY_S

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` of an operation that began at ``start``, in
        reference-host seconds."""
        i = bisect.bisect_right(self.starts, start)
        near = self.seconds[max(0, i - NEAR):i + NEAR]
        return seconds * scale(near)
