"""Tests for the set-associative cache and the 3-level hierarchy."""

from collections import OrderedDict

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import CacheHierarchy, CacheHierarchyConfig
from repro.cache.set_assoc import CacheLevelConfig, SetAssociativeCache
from repro.common.errors import ConfigError
from repro.common.units import kib, mib


def small_cache(size=1024, ways=2, latency=4.0):
    return SetAssociativeCache(CacheLevelConfig("t", size, ways, latency))


def holds(level, line):
    """True if ``level`` holds ``line`` (no LRU side effects)."""
    return line in level.sets.get(line % level.n_sets, ())


def one_level_hier(ways=2, sets=1):
    """A hierarchy whose three levels share one geometry: every fill of
    a new line into a full set evicts the same LRU victim everywhere."""
    size = sets * ways * 64
    return CacheHierarchy(
        CacheHierarchyConfig(
            l1=CacheLevelConfig("L1", size, ways, 4.0),
            l2=CacheLevelConfig("L2", size, ways, 14.0),
            l3=CacheLevelConfig("L3", size, ways, 42.0),
        )
    )


class TestSetAssocBasics:
    def test_miss_then_hit(self):
        h = one_level_hier()
        assert h.access(1, is_write=False).hit_level is None
        h.fill(1)
        assert h.access(1, is_write=False).hit_level == 1

    def test_probe_has_no_side_effects(self):
        h = one_level_hier()
        h.fill(0)
        h.fill(1)
        assert holds(h.l1, 0) and h.contains(0)  # no refresh: 0 stays LRU
        h.fill(2)
        assert not h.contains(0)

    def test_geometry(self):
        config = CacheLevelConfig("L1", kib(32), 8, 4.0)
        assert config.n_sets == 64
        assert config.n_lines == 512

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig("bad", 1000, 3, 4.0).validate()


class TestSetAssocEviction:
    def test_lru_eviction(self):
        h = CacheHierarchy(  # L1: one set, two ways, over roomy L2/L3
            CacheHierarchyConfig(
                l1=CacheLevelConfig("L1", 128, 2, 4.0),
                l2=CacheLevelConfig("L2", kib(16), 4, 14.0),
                l3=CacheLevelConfig("L3", kib(64), 8, 42.0),
            )
        )
        h.fill(0)
        h.fill(1)
        h.access(0, is_write=False)  # 0 is now MRU in L1
        h.fill(2)
        assert holds(h.l1, 0) and not holds(h.l1, 1)
        assert holds(h.l2, 1)

    def test_fill_refreshes_lru(self):
        h = one_level_hier()
        h.fill(0)
        h.fill(1)
        h.fill(0)  # refresh
        h.fill(2)
        assert h.contains(0) and not h.contains(1)

    def test_eviction_carries_dirty_flag(self):
        h = one_level_hier()
        h.fill(0, dirty=True)
        h.fill(1)
        assert h.fill(2) == (0,)  # the dirty victim is written back

    def test_clean_eviction_writes_nothing_back(self):
        h = one_level_hier()
        h.fill(0)
        h.fill(1)
        assert h.fill(2) == ()

    def test_different_sets_do_not_conflict(self):
        h = one_level_hier(sets=2)
        for line in range(4):
            assert h.fill(line, dirty=True) == ()
        assert all(h.contains(line) for line in range(4))


class TestSetAssocDirty:
    def test_set_dirty_requires_presence(self):
        h = one_level_hier()
        h.fill(1, dirty=True, into_l1=False)  # marks the resident L2 copy
        assert h.l2.is_dirty(1)
        assert h.access(2, is_write=True).hit_level is None  # a miss marks nothing
        assert not h.contains(2)
        h.fill(3)
        h.access(3, is_write=True)
        assert h.l1.is_dirty(3)

    def test_clean_keeps_line(self):
        h = one_level_hier()
        h.fill(1, dirty=True)
        assert h.clean(1)
        assert holds(h.l1, 1)
        assert not h.is_dirty(1)
        assert not h.clean(1)

    def test_invalidate_reports_dirty(self):
        h = one_level_hier()
        h.fill(1, dirty=True)
        assert h.invalidate(1)
        assert not h.contains(1)
        assert not h.invalidate(1)

    def test_fill_merges_dirty(self):
        h = one_level_hier()
        h.fill(1, dirty=True)
        h.fill(1, dirty=False)
        assert h.is_dirty(1)


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 200), st.booleans()), max_size=400))
def test_capacity_never_exceeded(fills):
    h = one_level_hier(ways=2, sets=4)
    for line, into_l1 in fills:
        h.fill(line, into_l1=into_l1)
        for level in (h.l1, h.l2, h.l3):
            assert level.resident_lines <= 8
            assert all(len(s) <= level.ways for s in level.sets.values())


class EagerReferenceCache:
    """Reference level: one OrderedDict per set, all built up front."""

    def __init__(self, n_sets, ways):
        self.sets = [OrderedDict() for _ in range(n_sets)]
        self.ways = ways

    def _set(self, line):
        return self.sets[line % len(self.sets)]

    def lookup(self, line):
        s = self._set(line)
        if line in s:
            s.move_to_end(line)
            return True
        return False

    def fill(self, line, dirty):
        s = self._set(line)
        if line in s:
            s[line] = s[line] or dirty
            s.move_to_end(line)
            return None
        s[line] = dirty
        if len(s) > self.ways:
            return s.popitem(last=False)
        return None

    def invalidate(self, line):
        return bool(self._set(line).pop(line, False))

    def clean(self, line):
        s = self._set(line)
        if line in s:
            was_dirty, s[line] = s[line], False
            return was_dirty
        return False

    def set_dirty(self, line):
        s = self._set(line)
        if line in s:
            s[line] = True
            return True
        return False

    def clear(self):
        for s in self.sets:
            s.clear()


class ReferenceHierarchy:
    """The inclusive hierarchy written level by level: per-level
    lookup/fill/invalidate calls and a recursive fill cascade."""

    def __init__(self, geometry):
        self.levels = [EagerReferenceCache(n_sets, ways) for n_sets, ways in geometry]

    def contains(self, line):
        return any(line in level._set(line) for level in self.levels)

    def access(self, line, is_write):
        l1, l2, l3 = self.levels
        if l1.lookup(line):
            if is_write:
                l1.set_dirty(line)
            return (1, ())
        writebacks = []
        if l2.lookup(line):
            self._fill_level(0, line, is_write, writebacks)
            return (2, tuple(writebacks))
        if l3.lookup(line):
            self._fill_level(1, line, False, writebacks)
            self._fill_level(0, line, is_write, writebacks)
            return (3, tuple(writebacks))
        return (None, ())

    def fill(self, line, dirty, into_l1):
        writebacks = []
        self._fill_level(2, line, False, writebacks)
        self._fill_level(1, line, False, writebacks)
        if into_l1:
            self._fill_level(0, line, dirty, writebacks)
        elif dirty:
            self.levels[1].set_dirty(line)
        return tuple(writebacks)

    def invalidate(self, line):
        dirty = [level.invalidate(line) for level in self.levels]
        return any(dirty)

    def clean(self, line):
        dirty = [level.clean(line) for level in self.levels]
        return any(dirty)

    def clear(self):
        for level in self.levels:
            level.clear()

    def _fill_level(self, index, line, dirty, writebacks):
        eviction = self.levels[index].fill(line, dirty)
        if eviction is None:
            return
        victim, victim_dirty = eviction
        if index < 2:
            if victim_dirty and not self.levels[index + 1].set_dirty(victim):
                self._fill_level(index + 1, victim, True, writebacks)
        else:
            inner_dirty = [level.invalidate(victim) for level in self.levels[:2]]
            if victim_dirty or any(inner_dirty):
                writebacks.append(victim)


def _apply(h, op, line, flag, reference):
    if op == "access":
        result = h.access(line, is_write=flag)
        if reference:
            return result
        return (result.hit_level, result.memory_writebacks)
    if op == "fill":
        return h.fill(line, flag, into_l1=line % 3 != 0)
    if op == "clear":
        return h.clear()
    return getattr(h, op)(line)


def _sets(level):
    """Every set's (line, dirty) pairs in LRU order, by set index."""
    if isinstance(level, EagerReferenceCache):
        return [list(s.items()) for s in level.sets]
    return [list(level.sets.get(index, {}).items()) for index in range(level.n_sets)]


#: (n_sets, ways) of L1, L2, L3; one-way and one-set levels reach every
#: cascade, including an LLC eviction of the line being filled.
GEOMETRIES = (
    ((1, 1), (1, 1), (1, 2)),
    ((2, 1), (2, 2), (4, 2)),
    ((1, 2), (2, 2), (2, 3)),
    ((2, 2), (4, 2), (4, 4)),
)


@settings(max_examples=150, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    ops=st.lists(
        st.tuples(st.sampled_from(("access", "fill", "invalidate", "clean", "contains",
                                   "clear")),
                  st.integers(0, 23), st.booleans()),
        min_size=10,
        max_size=120,
    ),
)
def test_lazy_sets_match_eager_reference(geometry, ops):
    """The one-frame hierarchy makes exactly the per-level policy's moves.

    Its sets are created on first touch, the reference's are built up
    front; results, every set's LRU order and every dirty flag agree
    after each operation.
    """
    levels = [CacheLevelConfig(name, n_sets * ways * 64, ways, 1.0)
              for name, (n_sets, ways) in zip(("L1", "L2", "L3"), geometry)]
    h = CacheHierarchy(CacheHierarchyConfig(*levels))
    reference = ReferenceHierarchy(geometry)
    for op, line, flag in ops:
        assert _apply(h, op, line, flag, False) == _apply(reference, op, line, flag, True)
        for level, ref_level in zip((h.l1, h.l2, h.l3), reference.levels):
            assert _sets(level) == _sets(ref_level)


def test_dirty_lines_in_set_index_order():
    # Sets touched in descending order still report in ascending set order.
    cache = small_cache(size=4 * 2 * 64, ways=2)  # 4 sets
    for line in (7, 3, 6, 2, 5, 1, 4, 0):
        cache.sets[line % cache.n_sets][line] = True
    assert cache.dirty_lines() == [4, 0, 5, 1, 6, 2, 7, 3]


def test_queries_on_untouched_lines_create_no_sets():
    h = one_level_hier(ways=2, sets=4)
    h.fill(0, dirty=True)
    for line in (1, 2, 3):
        assert not h.contains(line)
        assert not h.invalidate(line)
        assert not h.clean(line)
        assert not h.is_dirty(line)
    assert [len(level.sets) for level in (h.l1, h.l2, h.l3)] == [1, 1, 1]


def test_clear_empties():
    h = one_level_hier(ways=2, sets=4)
    for line in range(6):
        h.fill(line, dirty=line % 2 == 0)
    h.clear()
    assert h.l1.resident_lines == h.l3.resident_lines == 0
    assert h.dirty_lines() == set()
    assert not h.contains(0)
    h.fill(0, dirty=True)
    assert h.dirty_lines() == {0}


def hier():
    return CacheHierarchy(
        CacheHierarchyConfig(
            l1=CacheLevelConfig("L1", kib(4), 2, 4.0),
            l2=CacheLevelConfig("L2", kib(16), 4, 14.0),
            l3=CacheLevelConfig("L3", kib(64), 8, 42.0),
        )
    )


def tiny_hier():
    """Shrunken hierarchy for LLC-eviction tests."""
    return CacheHierarchy(
        CacheHierarchyConfig(
            l1=CacheLevelConfig("L1", kib(1), 2, 4.0),
            l2=CacheLevelConfig("L2", kib(2), 4, 14.0),
            l3=CacheLevelConfig("L3", kib(4), 8, 42.0),
        )
    )


class TestHierarchy:
    def test_miss_then_fill_then_l1_hit(self):
        h = hier()
        result = h.access(1, is_write=False)
        assert result.hit_level is None
        h.fill(1)
        result = h.access(1, is_write=False)
        assert result.hit_level == 1
        assert result.latency == 4.0

    def test_fill_is_inclusive(self):
        h = hier()
        h.fill(1)
        assert holds(h.l1, 1) and holds(h.l2, 1) and holds(h.l3, 1)

    def test_fill_skip_l1(self):
        h = hier()
        h.fill(1, into_l1=False)
        assert not holds(h.l1, 1)
        assert holds(h.l2, 1)

    def test_l2_hit_promotes_to_l1(self):
        h = hier()
        h.fill(1, into_l1=False)
        result = h.access(1, is_write=False)
        assert result.hit_level == 2
        assert holds(h.l1, 1)

    def test_write_hit_marks_l1_dirty(self):
        h = hier()
        h.fill(1)
        h.access(1, is_write=True)
        assert h.l1.is_dirty(1)

    def test_invalidate_everywhere(self):
        h = hier()
        h.fill(1, dirty=True)
        assert h.invalidate(1)
        assert not h.contains(1)

    def test_clean_retains_line(self):
        h = hier()
        h.fill(1, dirty=True)
        assert h.clean(1)
        assert h.contains(1)
        assert not h.is_dirty(1)

    def test_llc_eviction_back_invalidates(self):
        h = tiny_hier()  # L3: 8 sets of 8 ways
        h.fill(0)
        # Fill conflicting lines (same L3 set) to force line 0 out.
        for line in range(8, 8 * 30, 8):
            h.fill(line)
        assert not holds(h.l3, 0)
        assert not holds(h.l1, 0)
        assert not holds(h.l2, 0)

    def test_dirty_llc_eviction_reported(self):
        h = tiny_hier()
        h.fill(0, dirty=True)
        writebacks = []
        for line in range(8, 8 * 200, 8):
            writebacks += list(h.fill(line))
            if 0 in writebacks:
                break
        assert 0 in writebacks

    def test_dirty_l1_eviction_propagates_to_l2(self):
        h = hier()
        # L1: 4KB/2-way → 32 sets; lines 0, 32, 64 conflict in L1 set 0.
        h.fill(0, dirty=True)
        h.fill(32)
        h.fill(64)  # evicts line 0 from L1
        assert not holds(h.l1, 0)
        assert h.l2.is_dirty(0)

    def test_shrinking_levels_rejected(self):
        with pytest.raises(ConfigError):
            CacheHierarchyConfig(
                l1=CacheLevelConfig("L1", kib(64), 2, 4.0),
                l2=CacheLevelConfig("L2", kib(16), 4, 14.0),
                l3=CacheLevelConfig("L3", kib(64), 8, 42.0),
            ).validate()

    def test_g1_and_g2_presets(self):
        g1 = CacheHierarchyConfig.g1()
        g2 = CacheHierarchyConfig.g2()
        assert g1.l3.size_bytes == int(mib(27.5))
        assert g2.l3.size_bytes == mib(36)
        assert g2.l2.size_bytes > g1.l2.size_bytes

    def test_clear(self):
        h = hier()
        h.fill(1)
        h.clear()
        assert not h.contains(1)

    def test_hits_without_writebacks_share_one_frozen_result(self):
        h = hier()
        h.fill(1)
        first = h.access(1, is_write=False)
        assert h.access(1, is_write=True) is first
        assert first.memory_writebacks == ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.latency = 0.0

    def test_l3_hit_with_llc_writeback_gets_its_own_result(self):
        # One-line L1/L2 over a one-set, two-way L3.  A dirty line held
        # only by L2 must move to L3 when the L3 hit is promoted,
        # pushing the dirty LRU line out of the LLC.
        h = CacheHierarchy(
            CacheHierarchyConfig(
                l1=CacheLevelConfig("L1", 64, 1, 4.0),
                l2=CacheLevelConfig("L2", 64, 1, 14.0),
                l3=CacheLevelConfig("L3", 128, 2, 42.0),
            )
        )
        h.l3.sets[0].update({1: False, 2: True})
        h.l2.sets[0][3] = True
        result = h.access(1, is_write=False)
        assert (result.hit_level, result.latency) == (3, 42.0)
        assert result.memory_writebacks == (2,)
        shared = h.access(1, is_write=False)
        assert shared.memory_writebacks == ()
        assert result is not shared
