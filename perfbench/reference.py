"""A fixed piece of pure-Python work that gauges how fast the machine runs now.

The benchmark runs on shared virtual machines whose speed swings by up to 2x
for seconds at a time, with no trace in CPU time or steal time.  So while a
run measures, a ``Gauge`` times one reference chunk every INTERVAL_S (on
SIGALRM, between bytecodes of whatever is running), and every timing is
scaled by the chunks timed during it, or by the latest one for an operation
shorter than the interval:

    reported = (measured - time spent in chunks) * REF_MS / reference chunk time

Reported times are therefore milliseconds at a fixed machine speed: the speed
at which one chunk takes REF_MS.  That is about the chunk's uncontended time
on the 2-core 2.1 GHz Xeon virtual machine the benchmark was written on.  The
chunk does the kind of work weyl2uni does (small tuples, sorting, dict
counting, slotted objects) and calls nothing in weyl2uni, so no change to the
library changes it.
"""

from __future__ import annotations

import signal
import time

REF_MS = 0.5
INTERVAL_S = 0.025

_now = time.perf_counter_ns


class _Node:
    __slots__ = ("parts", "counts")

    def __init__(self, parts, counts):
        self.parts = parts
        self.counts = counts


def chunk() -> int:
    acc = 0
    for n in range(150):
        parts = tuple(sorted(((n * 7919 + k * 104729) % 97 for k in range(10)), reverse=True))
        counts: dict[int, int] = {}
        for v in parts:
            counts[v] = counts.get(v, 0) + 1
        node = _Node(parts, counts)
        acc += len(node.counts) + sum(1 for v in node.parts if v % 2)
    return acc


class Gauge:
    """Reference chunk timings, taken every INTERVAL_S between start and stop."""

    def __init__(self) -> None:
        self.count = 0
        self.chunk_ns = 0  # summed over every chunk timed
        self.spent_ns = 0  # summed over every tick, chunk plus bookkeeping
        self.last_ns = 0
        self._previous = None
        self._tick()

    def _tick(self, signum=None, frame=None) -> None:
        t0 = _now()
        chunk()
        t1 = _now()
        self.count += 1
        self.chunk_ns += t1 - t0
        self.last_ns = t1 - t0
        self.spent_ns += _now() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
