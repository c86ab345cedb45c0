"""Generic set-associative, write-back cache level (tag-only).

The simulator tracks presence and dirtiness of 64-byte lines, not
data: every experiment in the paper is about *where* accesses are
served from and *what traffic* they generate, never about values.

Each set is an :class:`collections.OrderedDict` mapping line index to
dirty flag; insertion order doubles as LRU order (``move_to_end`` on
touch, ``popitem(last=False)`` to evict), which keeps the hot path in
C-implemented dict operations.

Sets are created on first touch (a ``defaultdict`` keyed by set
index, indexed only by ``lookup`` and ``fill``; every read-only or
removing query uses ``dict.get``), so building a cache costs nothing
per set and the whole-cache walks (``resident_lines``,
``dirty_lines``, ``clear``) cost only the sets an experiment touched.
``dirty_lines`` reports lines in ascending set-index order, then LRU
order within a set.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass

from repro.common.constants import CACHELINE_SIZE
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class CacheLevelConfig:
    """Geometry and access latency of one cache level."""

    name: str
    size_bytes: int
    ways: int
    latency: float

    def validate(self) -> None:
        """Raise ConfigError on inconsistent geometry."""
        if self.size_bytes <= 0 or self.ways <= 0:
            raise ConfigError(f"{self.name}: geometry values must be positive")
        if self.size_bytes % (self.ways * CACHELINE_SIZE):
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{CACHELINE_SIZE})"
            )
        if self.latency < 0:
            raise ConfigError(f"{self.name}: latency cannot be negative")

    @property
    def n_sets(self) -> int:
        """Number of sets (size / (ways * line))."""
        return self.size_bytes // (self.ways * CACHELINE_SIZE)

    @property
    def n_lines(self) -> int:
        """Total line capacity."""
        return self.size_bytes // CACHELINE_SIZE


@dataclass(slots=True)
class Eviction:
    """A line pushed out of a level by a fill."""

    line: int
    dirty: bool


class SetAssociativeCache:
    """One LRU, write-back cache level."""

    def __init__(self, config: CacheLevelConfig) -> None:
        config.validate()
        self.config = config
        self._n_sets = config.n_sets
        self._ways = config.ways
        self._sets: defaultdict[int, OrderedDict[int, bool]] = defaultdict(OrderedDict)
        self.hits = 0
        self.misses = 0

    def lookup(self, line: int) -> bool:
        """Demand lookup: refreshes LRU and counts hit/miss."""
        cache_set = self._sets[line % self._n_sets]
        if line in cache_set:
            cache_set.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def probe(self, line: int) -> bool:
        """Presence check with no LRU or statistics side effects."""
        return line in self._sets.get(line % self._n_sets, ())

    def fill(self, line: int, dirty: bool = False) -> Eviction | None:
        """Install ``line``; returns the victim if the set overflowed.

        Filling a line that is already present refreshes LRU and ORs
        in the dirty flag.
        """
        cache_set = self._sets[line % self._n_sets]
        if line in cache_set:
            cache_set[line] = cache_set[line] or dirty
            cache_set.move_to_end(line)
            return None
        cache_set[line] = dirty
        if len(cache_set) > self._ways:
            victim_line, victim_dirty = cache_set.popitem(last=False)
            return Eviction(victim_line, victim_dirty)
        return None

    def invalidate(self, line: int) -> tuple[bool, bool]:
        """Remove ``line``; returns (was_present, was_dirty)."""
        cache_set = self._sets.get(line % self._n_sets)
        if cache_set is None:
            return (False, False)
        dirty = cache_set.pop(line, None)
        if dirty is None:
            return (False, False)
        return (True, dirty)

    def clean(self, line: int) -> bool:
        """Clear the dirty flag, keeping the line resident (G2 clwb).

        Returns whether the line was dirty.
        """
        cache_set = self._sets.get(line % self._n_sets)
        if cache_set is not None and line in cache_set:
            was_dirty = cache_set[line]
            cache_set[line] = False
            return was_dirty
        return False

    def set_dirty(self, line: int) -> bool:
        """Mark a resident line dirty; returns False if absent."""
        cache_set = self._sets.get(line % self._n_sets)
        if cache_set is not None and line in cache_set:
            cache_set[line] = True
            return True
        return False

    def is_dirty(self, line: int) -> bool:
        """True if the line is resident and dirty."""
        cache_set = self._sets.get(line % self._n_sets)
        return cache_set is not None and cache_set.get(line, False)

    @property
    def resident_lines(self) -> int:
        """Total lines currently cached across all sets."""
        return sum(len(s) for s in self._sets.values())

    def dirty_lines(self) -> list[int]:
        """All resident dirty line indexes (crash-analysis support).

        Ascending set index, then LRU order within a set.
        """
        return [
            line
            for _, cache_set in sorted(self._sets.items())
            for line, dirty in cache_set.items()
            if dirty
        ]

    def clear(self) -> None:
        """Empty the cache (statistics retained)."""
        self._sets.clear()
