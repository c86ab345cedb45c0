"""Tests for the eADR extension (§6 discussion): with eADR the CPU caches
are in the persistence domain, so unflushed PM stores survive a crash."""

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import cacheline_index
from repro.persist import CrashSimulator, PmHeap
from repro.system.presets import g2_machine


class TestEadr:
    def test_dirty_pm_lines_survive_crash(self):
        machine = g2_machine(prefetchers=PrefetcherConfig.none(), eadr=True)
        core = machine.new_core()
        heap = PmHeap(machine)
        addr = heap.pm.alloc(64)
        core.store(addr, 8)  # no flush at all
        report = CrashSimulator(machine).power_failure(core.now)
        assert cacheline_index(addr) not in report.lost_pm_lines

    def test_without_eadr_same_store_is_lost(self):
        machine = g2_machine(prefetchers=PrefetcherConfig.none(), eadr=False)
        core = machine.new_core()
        heap = PmHeap(machine)
        addr = heap.pm.alloc(64)
        core.store(addr, 8)
        report = CrashSimulator(machine).power_failure(core.now)
        assert cacheline_index(addr) in report.lost_pm_lines

    def test_eadr_flush_reaches_dimm(self):
        machine = g2_machine(prefetchers=PrefetcherConfig.none(), eadr=True)
        core = machine.new_core()
        heap = PmHeap(machine)
        addr = heap.pm.alloc(64)
        core.store(addr, 8)
        before = machine.pm_counters().imc_write_bytes
        CrashSimulator(machine).power_failure(core.now)
        assert machine.pm_counters().imc_write_bytes > before
