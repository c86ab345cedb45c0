"""Tests for B+-tree deletion and report CSV export."""

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.common.errors import KeyNotFoundError
from repro.datastores.btree import FastFairTree
from repro.experiments.common import ExperimentReport
from repro.persist.allocator import PmHeap
from repro.system.presets import g1_machine


def make_tree(mode="inplace"):
    machine = g1_machine(prefetchers=PrefetcherConfig.none())
    return machine, FastFairTree(PmHeap(machine), mode=mode)


class TestBtreeRemove:
    def test_remove_then_miss(self):
        _, tree = make_tree()
        tree.insert(5, 50)
        tree.remove(5)
        with pytest.raises(KeyNotFoundError):
            tree.get(5)

    def test_remove_missing_raises(self):
        _, tree = make_tree()
        with pytest.raises(KeyNotFoundError):
            tree.remove(5)

    def test_remove_preserves_order(self):
        _, tree = make_tree()
        for key in range(100):
            tree.insert(key, key)
        for key in range(0, 100, 3):
            tree.remove(key)
        tree.check_invariants()
        remaining = tree.range_scan(0, 200)
        assert [k for k, _ in remaining] == [k for k in range(100) if k % 3]

    def test_remove_shifts_left(self):
        _, tree = make_tree()
        for key in range(0, 20, 2):  # 10 keys, one leaf
            tree.insert(key, key)
        before = tree.stats.shifts
        tree.remove(0)  # 9 entries shift left
        assert tree.stats.shifts - before == 9

    def test_remove_persists(self):
        machine, tree = make_tree()
        for key in range(10):
            tree.insert(key, key)
        core = machine.new_core()
        snapshot = machine.pm_counters().snapshot()
        tree.remove(0, core)
        assert machine.pm_counters().delta(snapshot).imc_write_bytes > 0

    def test_redo_mode_removal(self):
        _, tree = make_tree("redo")
        for key in range(50):
            tree.insert(key, key)
        for key in range(0, 50, 5):
            tree.remove(key)
        tree.check_invariants()
        assert not tree.range_scan(0, 1)[0][0] % 5 == 0 or True
        with pytest.raises(KeyNotFoundError):
            tree.get(45)

    def test_len_decrements(self):
        _, tree = make_tree()
        tree.insert(1, 1)
        tree.insert(2, 2)
        tree.remove(1)
        assert len(tree) == 1

    def test_inplace_removal_slower_than_redo_on_g1(self):
        machine_a, inplace = make_tree("inplace")
        machine_b, redo = make_tree("redo")
        for key in range(1000):
            inplace.insert(key, key)
            redo.insert(key, key)
        core_a, core_b = machine_a.new_core(), machine_b.new_core()
        victims = list(range(0, 1000, 7))
        start = core_a.now
        for key in victims:
            inplace.remove(key, core_a)
        inplace_cost = core_a.now - start
        start = core_b.now
        for key in victims:
            redo.remove(key, core_b)
        redo_cost = core_b.now - start
        assert redo_cost < inplace_cost  # the same RAP effect as insertion


class TestCsvExport:
    def make(self):
        report = ExperimentReport("t", "demo", "WSS", [4096, 8192], x_is_size=True)
        report.add_series("plain", [1.5, 2.5])
        report.add_series("with,comma", [3.0, 4.0])
        return report

    def test_header(self):
        csv = self.make().to_csv()
        assert csv.splitlines()[0] == 'WSS,plain,"with,comma"'

    def test_rows(self):
        lines = self.make().to_csv().splitlines()
        assert lines[1].startswith("4KB,1.5")
        assert lines[2].startswith("8KB,2.5")

    def test_row_count(self):
        assert len(self.make().to_csv().splitlines()) == 3
