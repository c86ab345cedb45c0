"""Tests for the CCEH hash table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.prefetch import PrefetcherConfig
from repro.common.errors import DataStoreError, KeyNotFoundError
from repro.core.analysis import InstrumentedCore
from repro.datastores.cceh import (
    BUCKET_SLOTS,
    SEGMENT_BUCKETS,
    SEGMENT_BYTES,
    CcehHashTable,
    Segment,
)
from repro.persist.allocator import PmHeap
from repro.system.presets import g1_machine
from repro.workloads.zipf import fnv1a_64


def make_table(initial_depth=2):
    machine = g1_machine(prefetchers=PrefetcherConfig.none())
    heap = PmHeap(machine)
    return machine, CcehHashTable(heap.pm, initial_depth=initial_depth)


class _LoadRecorder:
    """A cost-free core that records the address of every load."""

    def __init__(self):
        self.now = 0.0
        self.addrs = []

    def load(self, addr, size=8):
        self.addrs.append(addr)
        return 0.0

    def store(self, addr, size=8):
        return 0.0

    def clwb(self, addr, size=64):
        return 0.0

    def fence(self, kind="sfence"):
        return 0.0

    def tick(self, cycles):
        pass


class TestSegment:
    def test_geometry(self):
        assert SEGMENT_BYTES == 64 + SEGMENT_BUCKETS * 64

    def test_bucket_addresses_cacheline_aligned(self):
        # Every load after an insert's directory entry reads a bucket.
        _, table = make_table()
        for key in range(200):
            core = _LoadRecorder()
            table.insert(key, key, core)
            assert len(core.addrs) >= 2
            assert all(addr % 64 == 0 for addr in core.addrs[1:])

    def test_probe_window_wraps(self):
        # Bucket 0 and bucket 255 of one segment full: a key homed at
        # bucket 255 probes 255, then wraps to 0 and 1 in the same segment.
        _, table = make_table()

        def homed_at(bucket, count):
            keys = (key for key in range(1_000_000)
                    if fnv1a_64(key) >> 62 == 0 and (fnv1a_64(key) >> 8) & 0xFF == bucket)
            return [next(keys) for _ in range(count)]

        last = homed_at(SEGMENT_BUCKETS - 1, BUCKET_SLOTS + 1)
        for key in homed_at(0, BUCKET_SLOTS) + last[:-1]:
            table.insert(key, key)
        core = _LoadRecorder()
        table.insert(last[-1], 0, core)
        bucket0 = core.addrs[1] - (SEGMENT_BUCKETS - 1) * 64
        assert core.addrs[1:] == [bucket0 + (SEGMENT_BUCKETS - 1) * 64, bucket0, bucket0 + 64]
        assert table.get(last[-1]) == 0

    def test_load_factor(self):
        segment = Segment(base_addr=0, local_depth=1)
        segment.buckets[0].append((1, 2, fnv1a_64(1)))
        assert segment.pair_count() == 1
        assert 0 < segment.load_factor < 0.01


class TestBasicOperations:
    def test_insert_then_get(self):
        _, table = make_table()
        table.insert(42, 99)
        assert table.get(42) == 99

    def test_missing_key_raises(self):
        _, table = make_table()
        with pytest.raises(KeyNotFoundError):
            table.get(42)

    def test_update_existing_key(self):
        _, table = make_table()
        table.insert(42, 1)
        table.insert(42, 2)
        assert table.get(42) == 2
        assert table.stats.updates == 1
        assert table.stats.inserts == 1

    def test_contains(self):
        _, table = make_table()
        table.insert(1, 1)
        assert table.contains(1)
        assert not table.contains(2)

    def test_remove(self):
        _, table = make_table()
        table.insert(1, 1)
        table.remove(1)
        assert not table.contains(1)

    def test_remove_missing_raises(self):
        _, table = make_table()
        with pytest.raises(KeyNotFoundError):
            table.remove(5)

    def test_len_tracks_live_keys(self):
        _, table = make_table()
        table.insert(1, 1)
        table.insert(2, 2)
        table.remove(1)
        assert len(table) == 1

    def test_bad_initial_depth(self):
        machine = g1_machine(prefetchers=PrefetcherConfig.none())
        with pytest.raises(DataStoreError):
            CcehHashTable(PmHeap(machine).pm, initial_depth=0)


class TestResizing:
    def test_many_inserts_trigger_splits(self):
        _, table = make_table()
        for key in range(30_000):
            table.insert(key, key)
        assert table.stats.segment_splits > 0
        assert table.segment_count > 4

    def test_directory_doubles(self):
        _, table = make_table(initial_depth=1)
        for key in range(30_000):
            table.insert(key, key)
        assert table.stats.directory_doublings > 0
        assert table.directory_size == 2**table.global_depth

    def test_all_keys_survive_splits(self):
        _, table = make_table()
        count = 20_000
        for key in range(count):
            table.insert(key, key * 2)
        for key in range(0, count, 97):
            assert table.get(key) == key * 2

    def test_invariants_after_growth(self):
        _, table = make_table()
        for key in range(25_000):
            table.insert(key, key)
        table.check_invariants()

    def test_footprint_grows(self):
        _, table = make_table()
        initial = table.footprint_bytes
        for key in range(20_000):
            table.insert(key, key)
        assert table.footprint_bytes > initial


class TestMemoryTraffic:
    def test_insert_issues_pm_traffic(self):
        machine, table = make_table()
        core = machine.new_core()
        table.insert(7, 7, core)
        counters = machine.pm_counters()
        assert counters.imc_write_bytes >= 64  # the persisted bucket
        assert core.loads >= 2  # directory + bucket

    def test_insert_uses_the_configured_fence(self):
        machine, table = make_table()
        core = machine.new_core()
        table.insert(7, 7, core)
        assert core.last_fence == "mfence"  # CCEH uses a full memory fence

    def test_get_issues_no_writes(self):
        machine, table = make_table()
        table.insert(7, 7)
        core = machine.new_core()
        table.get(7, core)
        assert machine.pm_counters().imc_write_bytes == 0

    def test_phases_reported(self):
        machine, table = make_table()
        core = InstrumentedCore(machine.new_core())
        table.insert(7, 7, core)
        fractions = core.breakdown.fractions()
        assert "segment" in fractions
        assert "persist" in fractions

    def test_prefetch_trace_is_load_only(self):
        machine, table = make_table()
        table.insert(7, 7)
        core = machine.new_core()
        table.prefetch_trace(core, 7)
        assert core.stores == 0
        assert core.flushes == 0
        assert core.loads == 2

    def test_prefetch_trace_warms_cache_for_insert(self):
        machine, table = make_table()
        helper = machine.new_core("helper")
        worker = machine.new_core("worker")
        table.prefetch_trace(helper, 1234)
        start = worker.now
        table.insert(1234, 1, worker)
        warm_cost = worker.now - start

        machine2, table2 = make_table()
        worker2 = machine2.new_core("worker")
        start = worker2.now
        table2.insert(1234, 1, worker2)
        cold_cost = worker2.now - start
        assert warm_cost < cold_cost


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**60), min_size=1, max_size=400, unique=True))
def test_model_equivalence(keys):
    """CCEH behaves like a dict under inserts/updates."""
    _, table = make_table()
    reference = {}
    for key in keys:
        value = key % 1000
        table.insert(key, value)
        reference[key] = value
    for key, value in reference.items():
        assert table.get(key) == value
    table.check_invariants()
