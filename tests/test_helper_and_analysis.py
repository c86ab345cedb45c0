"""Tests for the helper-thread framework and the instrumented core."""

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.core.analysis import InstrumentedCore, read_write_summary
from repro.core import helper as helper_module
from repro.core.helper import HelperThread
from repro.persist.allocator import PmHeap
from repro.system.presets import g1_machine


def setup():
    machine = g1_machine(prefetchers=PrefetcherConfig.none())
    return machine, PmHeap(machine)


class TestInstrumentedCore:
    def test_buckets_by_operation_kind(self):
        machine, heap = setup()
        core = InstrumentedCore(machine.new_core())
        addr = heap.pm.alloc(64)
        core.load(addr, 8)
        core.store(addr, 8)
        core.clwb(addr)
        core.sfence()
        core.tick(100)
        fractions = core.breakdown.fractions()
        assert set(fractions) >= {"load", "store", "flush", "fence", "compute"}

    def test_phase_overrides_bucket(self):
        machine, heap = setup()
        core = InstrumentedCore(machine.new_core())
        addr = heap.pm.alloc(64)
        with core.phase("indexing"):
            core.load(addr, 8)
        assert core.breakdown.cycles("indexing") > 0
        assert core.breakdown.cycles("load") == 0

    def test_nested_phases_restore(self):
        machine, heap = setup()
        core = InstrumentedCore(machine.new_core())
        addr = heap.pm.alloc(128)
        with core.phase("outer"):
            with core.phase("inner"):
                core.load(addr, 8)
            core.load(addr + 64, 8)
        assert core.breakdown.cycles("inner") > 0
        assert core.breakdown.cycles("outer") > 0

    def test_charges_match_core_time(self):
        machine, heap = setup()
        core = InstrumentedCore(machine.new_core())
        addr = heap.pm.alloc(256)
        core.load(addr, 8)
        core.store(addr, 8)
        core.persist(addr)
        core.nt_store(addr + 64, 64)
        core.mfence()
        assert core.breakdown.total == pytest.approx(core.now)

    def test_read_write_summary(self):
        machine, heap = setup()
        core = InstrumentedCore(machine.new_core())
        addr = heap.pm.alloc(64)
        core.load(addr, 8)
        core.store(addr, 8)
        core.clwb(addr)
        core.sfence()
        summary = read_write_summary(core.breakdown)
        assert summary["read"] > 0
        assert summary["order"] > 0
        assert sum(summary.values()) == pytest.approx(1.0)


class _Trace:
    """Load-only trace touching one address per item."""

    def __init__(self, addrs):
        self.addrs = addrs

    def __call__(self, core, item):
        core.load(self.addrs[item], 8)


@pytest.fixture
def tune(monkeypatch):
    """Set the helper's run-ahead depth and SMT tax: ``tune(depth, smt_overhead)``."""

    def set_tuning(depth, smt_overhead=0.0):
        monkeypatch.setattr(helper_module, "RUN_AHEAD_DEPTH", depth)
        monkeypatch.setattr(helper_module, "SMT_OVERHEAD", smt_overhead)

    return set_tuning


class TestHelperThread:
    def test_runs_ahead_by_depth(self, tune):
        tune(4)
        machine, heap = setup()
        addrs = [heap.pm.alloc(256, align=256) for _ in range(20)]
        helper = HelperThread(machine, _Trace(addrs))
        worker = machine.new_core("worker")
        helper.sync_before(worker, list(range(20)), 0)
        assert helper.items_prefetched == 4

    def test_prefetch_warms_cache(self, tune):
        tune(2)
        machine, heap = setup()
        addrs = [heap.pm.alloc(256, align=256) for _ in range(10)]
        helper = HelperThread(machine, _Trace(addrs))
        worker = machine.new_core("worker")
        helper.sync_before(worker, list(range(10)), 0)
        cost = worker.load(addrs[0], 8)
        assert cost < 100  # served from cache, not media

    def test_smt_overhead_charged_to_worker(self, tune):
        tune(5, smt_overhead=100)
        machine, heap = setup()
        addrs = [heap.pm.alloc(256, align=256) for _ in range(10)]
        helper = HelperThread(machine, _Trace(addrs))
        worker = machine.new_core("worker")
        helper.sync_before(worker, list(range(10)), 0)
        assert worker.now == pytest.approx(500)

    def test_depth_bounded_no_overrun(self, tune):
        tune(3)
        machine, heap = setup()
        addrs = [heap.pm.alloc(256, align=256) for _ in range(6)]
        helper = HelperThread(machine, _Trace(addrs))
        worker = machine.new_core("worker")
        items = list(range(6))
        helper.sync_before(worker, items, 0)
        assert helper.items_prefetched == 3
        helper.sync_before(worker, items, 5)
        assert helper.items_prefetched == 6  # capped at len(items)

    def test_helper_clock_tracks_worker(self, tune):
        tune(1)
        machine, heap = setup()
        addrs = [heap.pm.alloc(256, align=256) for _ in range(10)]
        helper = HelperThread(machine, _Trace(addrs))
        worker = machine.new_core("worker")
        worker.tick(10_000)
        helper.sync_before(worker, list(range(10)), 0)
        assert helper.core.now >= 10_000

    def test_reset(self, tune):
        tune(4)
        machine, heap = setup()
        addrs = [heap.pm.alloc(256, align=256) for _ in range(4)]
        helper = HelperThread(machine, _Trace(addrs))
        worker = machine.new_core("worker")
        helper.sync_before(worker, list(range(4)), 0)
        helper.reset()
        assert helper.items_prefetched == 0
