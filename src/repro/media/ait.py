"""Address Indirection Table (AIT) cache model.

Optane DIMMs translate DIMM physical addresses to media addresses
through an on-DIMM Address Indirection Table (for wear leveling).  The
hot part of the AIT is cached on-DIMM; prior work (LENS [30]) and the
paper's Section 3.6 observe a sharp read-latency increase once the
working set exceeds roughly 16 MB, attributed to AIT-cache overflow.

We model the AIT cache as an LRU set of 4 KB translation granules with
a fixed coverage.  A miss charges an extra media access to fetch the
translation entry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.units import kib, mib
from repro.stats.counters import TelemetryCounters

#: Extra cycles charged to a media access on an AIT-cache miss.
MISS_PENALTY = 200.0


@dataclass(frozen=True)
class AitConfig:
    """Geometry of the AIT cache."""

    #: Bytes of PM address space whose translations fit in the cache.
    coverage_bytes: int = mib(16)
    #: Translation granule: one cached entry covers this many bytes.
    granule_bytes: int = kib(4)

    def validate(self) -> None:
        """Raise ConfigError on inconsistent AIT geometry."""
        if self.coverage_bytes <= 0 or self.granule_bytes <= 0:
            raise ConfigError("AIT coverage and granule must be positive")
        if self.coverage_bytes % self.granule_bytes:
            raise ConfigError("AIT coverage must be a multiple of the granule")

    @property
    def entries(self) -> int:
        """Number of cached translation entries."""
        return self.coverage_bytes // self.granule_bytes


class AitCache:
    """LRU cache of address-translation granules."""

    def __init__(self, config: AitConfig, counters: TelemetryCounters,
                 name: str = "ait") -> None:
        config.validate()
        self.config = config
        self.name = name
        self._counters = counters
        #: The machine's trace handle, installed by an ambient trace
        #: session (None ⇒ tracing off, see repro.trace.session).
        self.trace = None
        self._entries: OrderedDict[int, None] = OrderedDict()

    def lookup_penalty(self, addr: int, now: float = 0.0) -> float:
        """Charge for translating ``addr``; 0 on a hit, miss penalty otherwise.

        The granule is installed (and LRU-refreshed) as a side effect,
        mirroring a real translation fetch.  ``now`` only timestamps
        the trace instant a miss emits; it never affects the charge.
        """
        granule = addr // self.config.granule_bytes
        if granule in self._entries:
            self._entries.move_to_end(granule)
            self._counters.ait_hits += 1
            return 0.0
        self._counters.ait_misses += 1
        if self.trace is not None:
            self.trace.instant("ait", "miss", now, self.name, granule=granule)
        self._entries[granule] = None
        if len(self._entries) > self.config.entries:
            self._entries.popitem(last=False)
        return MISS_PENALTY

    def covers(self, addr: int) -> bool:
        """True if ``addr``'s translation granule is currently cached.

        A pure peek: unlike :meth:`lookup_penalty` it neither installs
        nor LRU-refreshes the granule.  Fault injection uses it to cost
        an ADR drain without perturbing the cache state it is costing.
        """
        return addr // self.config.granule_bytes in self._entries

    @property
    def resident_granules(self) -> int:
        """How many translation granules are currently cached."""
        return len(self._entries)

    def reset(self) -> None:
        """Drop all cached translations (simulated power cycle)."""
        self._entries.clear()
