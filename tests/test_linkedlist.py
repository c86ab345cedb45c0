"""Tests for the persistent linked list (§3.6 working set)."""

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import XPLINE_SIZE
from repro.common.errors import DataStoreError
from repro.datastores.linkedlist import PersistentLinkedList
from repro.persist.allocator import PmHeap
from repro.system.presets import g1_machine


def make_list(count=16, sequential=True, seed=7):
    machine = g1_machine(prefetchers=PrefetcherConfig.none())
    heap = PmHeap(machine)
    return machine, PersistentLinkedList(heap.pm, count, sequential=sequential, seed=seed)


class TestConstruction:
    def test_elements_xpline_aligned(self):
        _, lst = make_list()
        for element in lst.elements:
            assert element.addr % XPLINE_SIZE == 0

    def test_sequential_chain(self):
        _, lst = make_list(4, sequential=True)
        assert [e.next_index for e in lst.elements] == [1, 2, 3, 0]

    def test_random_chain_is_cycle(self):
        _, lst = make_list(50, sequential=False)
        lst.verify_cycle()

    def test_pointer_and_pad_in_different_cachelines(self):
        _, lst = make_list()
        element = lst.elements[0]
        assert element.pad_addr(1) - element.pointer_addr == 64
        with pytest.raises(DataStoreError):
            element.pad_addr(0)

    def test_empty_rejected(self):
        machine = g1_machine(prefetchers=PrefetcherConfig.none())
        with pytest.raises(DataStoreError):
            PersistentLinkedList(PmHeap(machine).pm, 0)


class TestTraversal:
    def test_full_cycle_returns_to_start(self):
        machine, lst = make_list(16)
        core = machine.new_core()
        assert lst.traverse(core) == 0
        assert core.loads == 16

    def test_partial_traverse(self):
        machine, lst = make_list(16)
        assert lst.traverse(machine.new_core(), steps=3) == 3

    def test_update_pass_persists_each_element(self):
        machine, lst = make_list(8)
        core = machine.new_core()
        lst.update_pass(core)
        assert core.flushes == 8
        assert core.fences == 8

    def test_relaxed_pass_single_fence(self):
        machine, lst = make_list(8)
        core = machine.new_core()
        lst.update_pass(core, persist=False)
        assert core.fences == 1

    def test_updates_do_not_invalidate_pointers(self):
        machine, lst = make_list(8)
        core = machine.new_core()
        lst.traverse(core)  # pointers now cached
        lst.update_pass(core)
        from repro.common.constants import cacheline_index

        assert machine.caches.contains(cacheline_index(lst.elements[0].pointer_addr))
