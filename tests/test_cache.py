"""Tests for the set-associative cache and the 3-level hierarchy."""

from collections import OrderedDict

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import CacheHierarchy, CacheHierarchyConfig
from repro.cache.set_assoc import CacheLevelConfig, Eviction, SetAssociativeCache
from repro.common.errors import ConfigError
from repro.common.units import kib, mib


def small_cache(size=1024, ways=2, latency=4.0):
    return SetAssociativeCache(CacheLevelConfig("t", size, ways, latency))


class TestSetAssocBasics:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(1)
        cache.fill(1)
        assert cache.lookup(1)

    def test_hit_miss_counters(self):
        cache = small_cache()
        cache.lookup(1)
        cache.fill(1)
        cache.lookup(1)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_probe_has_no_side_effects(self):
        cache = small_cache()
        cache.fill(1)
        cache.probe(1)
        assert cache.hits == 0

    def test_geometry(self):
        config = CacheLevelConfig("L1", kib(32), 8, 4.0)
        assert config.n_sets == 64
        assert config.n_lines == 512

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig("bad", 1000, 3, 4.0).validate()


class TestSetAssocEviction:
    def test_lru_eviction(self):
        cache = small_cache(size=2 * 64, ways=2)  # one set, two ways
        cache.fill(0)
        cache.fill(1)
        cache.lookup(0)  # 0 is now MRU
        eviction = cache.fill(2)
        assert eviction.line == 1

    def test_fill_refreshes_lru(self):
        cache = small_cache(size=2 * 64, ways=2)
        cache.fill(0)
        cache.fill(1)
        cache.fill(0)  # refresh
        eviction = cache.fill(2)
        assert eviction.line == 1

    def test_eviction_carries_dirty_flag(self):
        cache = small_cache(size=2 * 64, ways=2)
        cache.fill(0, dirty=True)
        cache.fill(1)
        eviction = cache.fill(2)
        assert eviction.line == 0 and eviction.dirty

    def test_different_sets_do_not_conflict(self):
        cache = small_cache(size=4 * 64, ways=2)  # two sets
        assert cache.fill(0) is None
        assert cache.fill(1) is None  # other set
        assert cache.fill(2) is None
        assert cache.fill(3) is None


class TestSetAssocDirty:
    def test_set_dirty_requires_presence(self):
        cache = small_cache()
        assert not cache.set_dirty(1)
        cache.fill(1)
        assert cache.set_dirty(1)
        assert cache.is_dirty(1)

    def test_clean_keeps_line(self):
        cache = small_cache()
        cache.fill(1, dirty=True)
        assert cache.clean(1)
        assert cache.probe(1)
        assert not cache.is_dirty(1)

    def test_invalidate_reports_dirty(self):
        cache = small_cache()
        cache.fill(1, dirty=True)
        present, dirty = cache.invalidate(1)
        assert present and dirty
        assert not cache.probe(1)

    def test_fill_merges_dirty(self):
        cache = small_cache()
        cache.fill(1, dirty=True)
        cache.fill(1, dirty=False)
        assert cache.is_dirty(1)


@settings(max_examples=40)
@given(st.lists(st.integers(0, 200), max_size=400))
def test_capacity_never_exceeded(lines):
    cache = small_cache(size=8 * 64, ways=2)
    for line in lines:
        cache.fill(line)
        assert cache.resident_lines <= 8


class EagerReferenceCache:
    """Reference model: one OrderedDict per set, all built up front."""

    def __init__(self, n_sets, ways):
        self.sets = [OrderedDict() for _ in range(n_sets)]
        self.ways = ways
        self.hits = 0
        self.misses = 0

    def _set(self, line):
        return self.sets[line % len(self.sets)]

    def lookup(self, line):
        s = self._set(line)
        if line in s:
            s.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def probe(self, line):
        return line in self._set(line)

    def fill(self, line, dirty):
        s = self._set(line)
        if line in s:
            s[line] = s[line] or dirty
            s.move_to_end(line)
            return None
        s[line] = dirty
        if len(s) > self.ways:
            return Eviction(*s.popitem(last=False))
        return None

    def invalidate(self, line):
        dirty = self._set(line).pop(line, None)
        return (False, False) if dirty is None else (True, dirty)

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

    def is_dirty(self, line):
        return bool(self._set(line).get(line, False))

    @property
    def resident_lines(self):
        return sum(len(s) for s in self.sets)

    def dirty_lines(self):
        return [line for s in self.sets for line, dirty in s.items() if dirty]

    def clear(self):
        for s in self.sets:
            s.clear()


CACHE_OPS = ("lookup", "probe", "fill", "invalidate", "clean", "set_dirty", "is_dirty", "clear")


def _apply(cache, op, line, dirty):
    if op == "fill":
        return cache.fill(line, dirty)
    if op == "clear":
        return cache.clear()
    return getattr(cache, op)(line)


def _assert_same_state(cache, reference):
    assert cache.hits == reference.hits
    assert cache.misses == reference.misses
    assert cache.resident_lines == reference.resident_lines
    assert cache.dirty_lines() == reference.dirty_lines()


@settings(max_examples=150, deadline=None)
@given(
    n_sets=st.integers(1, 4),
    ways=st.integers(1, 3),
    ops=st.lists(
        st.tuples(st.sampled_from(CACHE_OPS), st.integers(0, 23), st.booleans()),
        min_size=10,
        max_size=120,
    ),
)
def test_lazy_sets_match_eager_reference(n_sets, ways, ops):
    """Sets created on first touch behave exactly like a pre-built list."""
    cache = SetAssociativeCache(CacheLevelConfig("t", n_sets * ways * 64, ways, 1.0))
    reference = EagerReferenceCache(n_sets, ways)
    for op, line, dirty in ops:
        assert _apply(cache, op, line, dirty) == _apply(reference, op, line, dirty)
        _assert_same_state(cache, reference)


def test_dirty_lines_in_set_index_order():
    # Sets touched in descending order still report in ascending set order.
    cache = small_cache(size=4 * 2 * 64, ways=2)  # 4 sets
    for line in (7, 3, 6, 2, 5, 1, 4, 0):
        cache.fill(line, dirty=True)
    assert cache.dirty_lines() == [4, 0, 5, 1, 6, 2, 7, 3]


def test_queries_on_untouched_lines_create_no_sets():
    cache = small_cache(size=4 * 2 * 64, ways=2)  # 4 sets
    cache.fill(0, dirty=True)
    for line in (1, 2, 3):
        assert not cache.probe(line)
        assert cache.invalidate(line) == (False, False)
        assert not cache.clean(line)
        assert not cache.set_dirty(line)
        assert not cache.is_dirty(line)
    assert len(cache._sets) == 1


def test_clear_empties_and_keeps_statistics():
    cache = small_cache(size=4 * 2 * 64, ways=2)
    for line in range(6):
        cache.fill(line, dirty=line % 2 == 0)
    cache.lookup(0)
    cache.lookup(99)
    cache.clear()
    assert cache.resident_lines == 0
    assert cache.dirty_lines() == []
    assert not cache.probe(0)
    assert (cache.hits, cache.misses) == (1, 1)
    cache.fill(0, dirty=True)
    assert cache.dirty_lines() == [0]


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
        assert h.l1.probe(1) and h.l2.probe(1) and h.l3.probe(1)

    def test_fill_skip_l1(self):
        h = hier()
        h.fill(1, into_l1=False)
        assert not h.l1.probe(1)
        assert h.l2.probe(1)

    def test_l2_hit_promotes_to_l1(self):
        h = hier()
        h.fill(1, into_l1=False)
        result = h.access(1, is_write=False)
        assert result.hit_level == 2
        assert h.l1.probe(1)

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
        assert not h.l3.probe(0)
        assert not h.l1.probe(0)
        assert not h.l2.probe(0)

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
        assert not h.l1.probe(0)
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
        h.l3.fill(1)
        h.l3.fill(2, dirty=True)
        h.l2.fill(3, dirty=True)
        result = h.access(1, is_write=False)
        assert (result.hit_level, result.latency) == (3, 42.0)
        assert result.memory_writebacks == (2,)
        shared = h.access(1, is_write=False)
        assert shared.memory_writebacks == ()
        assert result is not shared
