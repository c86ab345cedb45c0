"""Three-level inclusive cache hierarchy.

Implements, over the sets of three :class:`SetAssociativeCache` levels,
inclusive fills, LRU promotion on lower-level hits, dirty write-back
cascades and back-invalidation on LLC evictions.  The hierarchy never
talks to memory itself: demand misses and dirty LLC victims are
reported to the caller (the machine), which routes them to the right
device.
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
    """Inclusive L1/L2/L3 with write-back and write-allocate.

    The one home of the replacement and dirty policy: every demand
    access, fill, flush and eviction cascade works on the levels'
    ``sets`` here, with no per-level call on the no-eviction path.
    """

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
        for level in self._levels:
            if line in level.sets.get(line % level.n_sets, ()):
                return True
        return False

    # -- demand path -----------------------------------------------------------

    def access(self, line: int, is_write: bool) -> AccessResult:
        """One demand load/store.  On a hit the line is promoted to L1.

        On a miss the caller must fetch from memory and then call
        :meth:`fill`.  Stores mark the (promoted) L1 copy dirty —
        write-allocate is the caller's job via the fill path.
        """
        l1, l2, l3 = self._levels
        held1 = l1.sets[line % l1.n_sets]
        if line in held1:
            held1.move_to_end(line)
            if is_write:
                held1[line] = True
            return self._l1_hit
        writebacks: list[int] = []
        held2 = l2.sets[line % l2.n_sets]
        if line in held2:
            held2.move_to_end(line)
            hit = self._l2_hit
        else:
            held3 = l3.sets[line % l3.n_sets]
            if line not in held3:
                return self._miss
            held3.move_to_end(line)
            hit = self._l3_hit
            held2[line] = False
            if len(held2) > l2.ways:
                self._spill(2, held2, writebacks)
        held1[line] = is_write
        if len(held1) > l1.ways:
            self._spill(1, held1, writebacks)
        if writebacks:
            return AccessResult(hit.hit_level, hit.latency, tuple(writebacks))
        return hit

    def fill(self, line: int, dirty: bool = False, into_l1: bool = True) -> tuple[int, ...]:
        """Install a line fetched from memory (inclusive: L3 → L2 [→ L1]).

        Returns dirty lines evicted from the LLC (the caller writes
        them back to memory).  Prefetch fills typically use
        ``into_l1=False`` (L2 prefetchers fill L2/L3 only).  Filling a
        resident line refreshes its LRU position and ORs in ``dirty``.
        """
        writebacks: list[int] = []
        l1, l2, l3 = self._levels
        held = l3.sets[line % l3.n_sets]
        if line in held:
            held.move_to_end(line)
        else:
            held[line] = False
            if len(held) > l3.ways:
                self._spill(3, held, writebacks)
        held = l2.sets[line % l2.n_sets]
        if line in held:
            held.move_to_end(line)
        else:
            held[line] = False
            if len(held) > l2.ways:
                self._spill(2, held, writebacks)
        if into_l1:
            held = l1.sets[line % l1.n_sets]
            if line in held:
                if dirty:
                    held[line] = True
                held.move_to_end(line)
            else:
                held[line] = dirty
                if len(held) > l1.ways:
                    self._spill(1, held, writebacks)
        elif dirty and line in held:
            held[line] = True
        return tuple(writebacks)

    # -- flush / invalidate path --------------------------------------------------

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` from all levels; True if any copy was dirty.

        Models clflush/clflushopt and the G1 clwb behaviour.
        """
        dirty = False
        for level in self._levels:
            held = level.sets.get(line % level.n_sets)
            if held and held.pop(line, False):
                dirty = True
        return dirty

    def clean(self, line: int) -> bool:
        """Clear dirtiness of ``line`` everywhere, keeping it resident.

        Models the G2 clwb behaviour; True if any copy was dirty.
        """
        dirty = False
        for level in self._levels:
            held = level.sets.get(line % level.n_sets)
            if held and held.get(line):
                held[line] = False
                dirty = True
        return dirty

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

    def _spill(self, number: int, held, writebacks: list[int]) -> None:
        """Evict the LRU line of ``held``, a set of level ``number`` one over capacity.

        A dirty L1 or L2 victim is written back into the next level
        (marking its copy dirty in place, since the hierarchy is
        inclusive, or installing one, which may cascade).  An LLC
        victim is back-invalidated from L1 and L2 and appended to
        ``writebacks`` if any copy was dirty.
        """
        victim, dirty = held.popitem(last=False)
        if number == 3:
            for level in (self.l1, self.l2):
                inner = level.sets.get(victim % level.n_sets)
                if inner and inner.pop(victim, False):
                    dirty = True
            if dirty:
                writebacks.append(victim)
        elif dirty:
            outer = self._levels[number]
            held = outer.sets[victim % outer.n_sets]
            held[victim] = True
            if len(held) > outer.ways:
                self._spill(number + 1, held, writebacks)
