"""Three-level inclusive cache hierarchy.

Coordinates L1/L2/L3 :class:`SetAssociativeCache` levels with inclusive
fills, LRU promotion on lower-level hits, dirty write-back cascades and
back-invalidation on LLC evictions.  The hierarchy never talks to
memory itself: demand misses and dirty LLC victims are reported to the
caller (the machine), which routes them to the right device.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.set_assoc import CacheLevelConfig, SetAssociativeCache
from repro.common.errors import ConfigError
from repro.common.units import kib, mib

#: Cycles burned discovering a full miss before memory is engaged.
MISS_OVERHEAD = 10.0


@dataclass(frozen=True)
class CacheHierarchyConfig:
    """Geometries of all three cache levels."""

    l1: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig("L1", kib(32), 8, latency=4.0)
    )
    l2: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig("L2", mib(1), 16, latency=14.0)
    )
    l3: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig("L3", int(mib(27.5)), 11, latency=42.0)
    )

    def validate(self) -> None:
        """Validate all levels and the outward-growth constraint."""
        for level in (self.l1, self.l2, self.l3):
            level.validate()
        if not (self.l1.size_bytes <= self.l2.size_bytes <= self.l3.size_bytes):
            raise ConfigError("cache levels must not shrink outward")

    @staticmethod
    def g1() -> "CacheHierarchyConfig":
        """Xeon Gold 6230-class hierarchy (G1 testbed)."""
        return CacheHierarchyConfig()

    @staticmethod
    def g2() -> "CacheHierarchyConfig":
        """Xeon Gold 5317-class hierarchy (G2 testbed): bigger L2/L3."""
        return CacheHierarchyConfig(
            l1=CacheLevelConfig("L1", kib(48), 12, latency=5.0),
            l2=CacheLevelConfig("L2", int(mib(1.25)), 20, latency=16.0),
            l3=CacheLevelConfig("L3", mib(36), 12, latency=46.0),
        )


@dataclass(frozen=True)
class AccessResult:
    """What one demand access did to the hierarchy.

    Frozen because :class:`CacheHierarchy` hands out one shared
    instance per hit level and one for a miss; only an access that
    pushed out LLC write-backs gets its own.
    """

    #: 1, 2 or 3 for a hit at that level; None for a full miss.
    hit_level: int | None
    #: Lookup latency: hit-level latency, or the full-probe overhead on miss.
    latency: float
    #: Dirty lines pushed out of the LLC that must be written to memory.
    memory_writebacks: tuple[int, ...] = ()


class CacheHierarchy:
    """Inclusive L1/L2/L3 with write-back and write-allocate."""

    def __init__(self, config: CacheHierarchyConfig) -> None:
        config.validate()
        self.config = config
        self.l1 = SetAssociativeCache(config.l1)
        self.l2 = SetAssociativeCache(config.l2)
        self.l3 = SetAssociativeCache(config.l3)
        self._levels = (self.l1, self.l2, self.l3)
        self._l1_hit = AccessResult(1, config.l1.latency)
        self._l2_hit = AccessResult(2, config.l2.latency)
        self._l3_hit = AccessResult(3, config.l3.latency)
        self._miss = AccessResult(None, MISS_OVERHEAD)

    # -- queries -------------------------------------------------------------

    def contains(self, line: int) -> bool:
        """True if any level holds ``line``.  No side effects."""
        return self.l1.probe(line) or self.l2.probe(line) or self.l3.probe(line)

    # -- demand path -----------------------------------------------------------

    def access(self, line: int, is_write: bool) -> AccessResult:
        """One demand load/store.  On a hit the line is promoted to L1.

        On a miss the caller must fetch from memory and then call
        :meth:`fill`.  Stores mark the (promoted) L1 copy dirty —
        write-allocate is the caller's job via the fill path.
        """
        if self.l1.lookup(line):
            if is_write:
                self.l1.set_dirty(line)
            return self._l1_hit
        writebacks: list[int] = []
        if self.l2.lookup(line):
            self._fill_level(1, line, dirty=is_write, writebacks=writebacks)
            if writebacks:
                return AccessResult(2, self._l2_hit.latency, tuple(writebacks))
            return self._l2_hit
        if self.l3.lookup(line):
            self._fill_level(2, line, dirty=False, writebacks=writebacks)
            self._fill_level(1, line, dirty=is_write, writebacks=writebacks)
            if writebacks:
                return AccessResult(3, self._l3_hit.latency, tuple(writebacks))
            return self._l3_hit
        return self._miss

    def fill(self, line: int, dirty: bool = False, into_l1: bool = True) -> tuple[int, ...]:
        """Install a line fetched from memory (inclusive: L3 → L2 [→ L1]).

        Returns dirty lines evicted from the LLC (the caller writes
        them back to memory).  Prefetch fills typically use
        ``into_l1=False`` (L2 prefetchers fill L2/L3 only).
        """
        writebacks: list[int] = []
        self._fill_level(3, line, dirty=False, writebacks=writebacks)
        self._fill_level(2, line, dirty=False, writebacks=writebacks)
        if into_l1:
            self._fill_level(1, line, dirty=dirty, writebacks=writebacks)
        elif dirty:
            self.l2.set_dirty(line)
        return tuple(writebacks)

    # -- flush / invalidate path --------------------------------------------------

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` from all levels; True if any copy was dirty.

        Models clflush/clflushopt and the G1 clwb behaviour.
        """
        _, l1_dirty = self.l1.invalidate(line)
        _, l2_dirty = self.l2.invalidate(line)
        _, l3_dirty = self.l3.invalidate(line)
        return l1_dirty or l2_dirty or l3_dirty

    def clean(self, line: int) -> bool:
        """Clear dirtiness of ``line`` everywhere, keeping it resident.

        Models the G2 clwb behaviour; True if any copy was dirty.
        """
        l1_dirty = self.l1.clean(line)
        l2_dirty = self.l2.clean(line)
        return self.l3.clean(line) or l1_dirty or l2_dirty

    def is_dirty(self, line: int) -> bool:
        """True if any level holds a dirty copy of ``line``."""
        return any(level.is_dirty(line) for level in self._levels)

    def dirty_lines(self) -> set[int]:
        """Union of dirty lines across all levels (crash analysis)."""
        dirty: set[int] = set()
        for level in self._levels:
            dirty.update(level.dirty_lines())
        return dirty

    def clear(self) -> None:
        """Empty all levels."""
        for level in self._levels:
            level.clear()

    # -- internals --------------------------------------------------------------

    def _fill_level(self, number: int, line: int, dirty: bool, writebacks: list[int]) -> None:
        level = self._levels[number - 1]
        eviction = level.fill(line, dirty=dirty)
        if eviction is None:
            return
        if number == 1:
            # Write-back into L2; inclusive, so normally present there.
            if eviction.dirty and not self.l2.set_dirty(eviction.line):
                self._fill_level(2, eviction.line, dirty=True, writebacks=writebacks)
        elif number == 2:
            if eviction.dirty and not self.l3.set_dirty(eviction.line):
                self._fill_level(3, eviction.line, dirty=True, writebacks=writebacks)
        else:
            # LLC eviction: back-invalidate inner levels (inclusivity).
            _, l1_dirty = self.l1.invalidate(eviction.line)
            _, l2_dirty = self.l2.invalidate(eviction.line)
            if eviction.dirty or l1_dirty or l2_dirty:
                writebacks.append(eviction.line)
