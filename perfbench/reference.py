"""Host-speed reference: scales host seconds to a host of nominal speed.

The benchmark shares a few cores of a host with other tenants, whose load
changes the host's speed by 20-40 % in spells of a fraction of a second
to minutes.  Before each timed call (a sweep point, or a group of CCEH
inserts) the workload times one *reference burst*: a fixed, seeded run of
a small pure-Python set-associative cache, written in the benchmark's own
code so that no change to the simulator changes it.  The call's host
seconds are then scaled by ``REFERENCE_SECONDS / burst``, the time the call
would take on a host that runs the burst in :data:`REFERENCE_SECONDS`.
``burst`` is the median of the last :data:`RECENT_BURSTS` bursts, so that
one burst hit by an interrupt does not skew a call.

A reading taken right before the call tracks the host's speed much more
closely than one taken per round or per run (see ``README.md``,
*Steadiness*).  The burst runs with the cyclic garbage collector off, so
the size of the simulator's heap does not change it.
"""

from __future__ import annotations

import gc
import statistics
from collections import deque
from time import perf_counter

#: Host seconds of one burst on the nominal host: the typical time on the
#: shared 2-vCPU Xeon VM (Python 3.11) the benchmark was built on.
REFERENCE_SECONDS = 0.004
#: Cache accesses in one burst.
BURST_ACCESSES = 1500
#: Bursts whose median host time sets a factor (a few tenths of a second).
RECENT_BURSTS = 5

_recent: deque[float] = deque(maxlen=RECENT_BURSTS)


class _Way:
    __slots__ = ("tag", "dirty", "stamp")

    def __init__(self, tag: int, stamp: int, dirty: bool):
        self.tag = tag
        self.dirty = dirty
        self.stamp = stamp


class _Cache:
    """64 sets x 8 ways, LRU, with a bounded write-back log of dirty victims."""

    def __init__(self, sets: int = 64, ways: int = 8):
        self.sets = [{} for _ in range(sets)]
        self.ways = ways
        self.clock = 0
        self.hits = 0
        self.writebacks: dict[int, int] = {}

    def access(self, line: int, write: bool) -> None:
        self.clock += 1
        ways = self.sets[line % len(self.sets)]
        way = ways.get(line)
        if way is not None:
            self.hits += 1
            way.stamp = self.clock
            way.dirty |= write
            return
        if len(ways) >= self.ways:
            victim = min(ways.values(), key=lambda candidate: candidate.stamp)
            del ways[victim.tag]
            if victim.dirty:
                block = victim.tag >> 2
                self.writebacks[block] = self.writebacks.get(block, 0) + 1
                if len(self.writebacks) > 64:
                    self.writebacks.pop(next(iter(self.writebacks)))
        ways[line] = _Way(line, self.clock, write)


def burst() -> int:
    """One reference burst; returns its hit count (always the same)."""
    cache = _Cache()
    state = 12345
    for _ in range(BURST_ACCESSES):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        cache.access(state % 2048, state & 1 == 1)
    return cache.hits


def scale() -> float:
    """Time one burst now; returns the factor from host to nominal seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        burst()
        _recent.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return REFERENCE_SECONDS / statistics.median(_recent)
