"""Tests for the persistent lock."""

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.common.errors import DataStoreError
from repro.datastores.pmlock import PersistentLock, measure_handover
from repro.persist.allocator import RegionAllocator
from repro.system.presets import g1_machine, g2_machine


def setup(generation=1, **kwargs):
    maker = g1_machine if generation == 1 else g2_machine
    machine = maker(prefetchers=PrefetcherConfig.none(), **kwargs)
    return machine, RegionAllocator(machine, "pm")


class TestPersistentLock:
    def test_acquire_release_cycle(self):
        machine, allocator = setup()
        lock = PersistentLock(allocator)
        core = machine.new_core("a")
        lock.acquire(core)
        assert lock.owner == "a"
        lock.release(core)
        assert lock.owner is None

    def test_double_acquire_rejected(self):
        machine, allocator = setup()
        lock = PersistentLock(allocator)
        core = machine.new_core("a")
        lock.acquire(core)
        with pytest.raises(DataStoreError):
            lock.acquire(core)

    def test_release_by_non_owner_rejected(self):
        machine, allocator = setup()
        lock = PersistentLock(allocator)
        a, b = machine.new_core("a"), machine.new_core("b")
        lock.acquire(a)
        with pytest.raises(DataStoreError):
            lock.release(b)

    def test_handover_counted(self):
        machine, allocator = setup()
        lock = PersistentLock(allocator)
        cores = [machine.new_core(f"t{i}") for i in range(2)]
        measure_handover(lock, cores, rounds=10)
        assert lock.acquisitions == 10
        assert lock.handovers == 0  # release happens between acquires

    def test_g1_handover_suffers_rap(self):
        machine, allocator = setup(1)
        lock = PersistentLock(allocator)
        cores = [machine.new_core(f"t{i}") for i in range(2)]
        g1_latency = measure_handover(lock, cores, rounds=50)

        machine2, allocator2 = setup(2)
        lock2 = PersistentLock(allocator2)
        cores2 = [machine2.new_core(f"t{i}") for i in range(2)]
        g2_latency = measure_handover(lock2, cores2, rounds=50)
        assert g1_latency > 3 * g2_latency

    def test_remote_handover_worse(self):
        machine = g1_machine(prefetchers=PrefetcherConfig.none(), remote_pm=True)
        local_lock = PersistentLock(RegionAllocator(machine, "pm"))
        remote_lock = PersistentLock(RegionAllocator(machine, "pm_remote"))
        local = measure_handover(
            local_lock, [machine.new_core("a"), machine.new_core("b")], rounds=50
        )
        remote = measure_handover(
            remote_lock, [machine.new_core("c"), machine.new_core("d")], rounds=50
        )
        assert remote > local
