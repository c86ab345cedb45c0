"""Storage of one set-associative, write-back cache level (tag-only).

The simulator tracks presence and dirtiness of 64-byte lines, not
data: every experiment in the paper is about *where* accesses are
served from and *what traffic* they generate, never about values.

Each set is an :class:`collections.OrderedDict` mapping line index to
dirty flag; insertion order doubles as LRU order (``move_to_end`` on
touch, ``popitem(last=False)`` to evict), which keeps the hot path in
C-implemented dict operations.  The replacement and dirty-cascade
policy lives in one place, :class:`~repro.cache.hierarchy.CacheHierarchy`,
which works on the public ``sets`` of its three levels directly; this
class holds the geometry and the read-only queries.

Sets are created on first touch (a ``defaultdict`` keyed by set
index, which the hierarchy indexes only to touch or fill a line; every
read-only or removing query uses ``dict.get``), so building a cache
costs nothing per set and the whole-cache walks (``resident_lines``,
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


class SetAssociativeCache:
    """The sets of one LRU, write-back cache level.

    ``sets[line % n_sets]`` is the set ``line`` maps to; no set holds
    more than ``ways`` lines once :class:`CacheHierarchy` has handled
    the fill that overflowed it.
    """

    def __init__(self, config: CacheLevelConfig) -> None:
        config.validate()
        self.config = config
        self.n_sets = config.n_sets
        self.ways = config.ways
        self.sets: defaultdict[int, OrderedDict[int, bool]] = defaultdict(OrderedDict)

    def is_dirty(self, line: int) -> bool:
        """True if the line is resident and dirty."""
        cache_set = self.sets.get(line % self.n_sets)
        return cache_set is not None and cache_set.get(line, False)

    @property
    def resident_lines(self) -> int:
        """Total lines currently cached across all sets."""
        return sum(len(s) for s in self.sets.values())

    def dirty_lines(self) -> list[int]:
        """All resident dirty line indexes (crash-analysis support).

        Ascending set index, then LRU order within a set.
        """
        return [
            line
            for _, cache_set in sorted(self.sets.items())
            for line, dirty in cache_set.items()
            if dirty
        ]

    def clear(self) -> None:
        """Empty the cache."""
        self.sets.clear()
