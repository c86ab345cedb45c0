"""Tests for power-failure simulation and crash-consistency checks."""

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import cacheline_index
from repro.common.errors import ConfigError, RecoveryError
from repro.datastores.cceh import CcehHashTable
from repro.persist import CrashSimulator, DurabilityChecker, FaultMode, PmHeap
from repro.system.machine import INTERLEAVE_BYTES
from repro.system.presets import g1_machine
from repro.workloads import insert_only_stream


def setup():
    machine = g1_machine(prefetchers=PrefetcherConfig.none())
    return machine, machine.new_core(), PmHeap(machine)


class TestCrashSimulator:
    def test_unflushed_dirty_pm_line_is_lost(self):
        machine, core, heap = setup()
        addr = heap.pm.alloc(64)
        core.store(addr, 8)  # dirty in cache, never flushed
        report = CrashSimulator(machine).power_failure(core.now)
        assert cacheline_index(addr) in report.lost_pm_lines

    def test_flushed_line_is_not_lost(self):
        machine, core, heap = setup()
        addr = heap.pm.alloc(64)
        core.store(addr, 8)
        core.persist(addr)
        report = CrashSimulator(machine).power_failure(core.now)
        assert cacheline_index(addr) not in report.lost_pm_lines

    def test_nt_store_is_adr_safe(self):
        machine, core, heap = setup()
        addr = heap.pm.alloc(64)
        core.nt_store(addr, 64)
        report = CrashSimulator(machine).power_failure(core.now)
        assert cacheline_index(addr) not in report.lost_pm_lines

    def test_write_buffer_drained_to_media(self):
        machine, core, heap = setup()
        addr = heap.pm.alloc(64)
        core.nt_store(addr, 64)  # sits in the write buffer
        before = machine.pm_counters().media_write_bytes
        report = CrashSimulator(machine).power_failure(core.now)
        assert report.drained_xplines >= 1
        assert machine.pm_counters().media_write_bytes > before

    def test_caches_empty_after_crash(self):
        machine, core, heap = setup()
        addr = heap.pm.alloc(64)
        core.load(addr, 8)
        CrashSimulator(machine).power_failure(core.now)
        assert not machine.caches.contains(cacheline_index(addr))

    def test_dram_losses_reported_separately(self):
        machine, core, heap = setup()
        addr = heap.dram.alloc(64)
        core.store(addr, 8)
        report = CrashSimulator(machine).power_failure(core.now)
        assert cacheline_index(addr) in report.lost_dram_lines
        assert cacheline_index(addr) not in report.lost_pm_lines

    def test_lost_addresses_helper(self):
        machine, core, heap = setup()
        addr = heap.pm.alloc(64)
        core.store(addr, 8)
        report = CrashSimulator(machine).power_failure(core.now)
        assert addr in report.lost_addresses()


class TestDurabilityChecker:
    def test_committed_and_persisted_passes(self):
        machine, core, heap = setup()
        checker = DurabilityChecker()
        addr = heap.pm.alloc(64)
        core.store(addr, 8)
        core.persist(addr)
        checker.commit(addr, 8)
        report = CrashSimulator(machine).power_failure(core.now)
        checker.verify_against(report)  # no exception

    def test_committed_but_unpersisted_fails(self):
        machine, core, heap = setup()
        checker = DurabilityChecker()
        addr = heap.pm.alloc(64)
        core.store(addr, 8)  # missing barrier!
        checker.commit(addr, 8)
        report = CrashSimulator(machine).power_failure(core.now)
        with pytest.raises(RecoveryError):
            checker.verify_against(report)

    def test_commit_covers_multi_line_ranges(self):
        checker = DurabilityChecker()
        checker.commit(0, 256)
        assert checker.committed_count == 4


class TestCcehCrashConsistency:
    def test_cceh_inserts_are_durable(self):
        """CCEH persists every bucket update before returning — no
        committed key may reside only in the CPU caches."""
        machine, core, heap = setup()
        table = CcehHashTable(heap.pm)
        checker = DurabilityChecker()
        for key in insert_only_stream(2_000, seed=3):
            table.insert(key, key, core)
        # Commit claims for all bucket lines CCEH persisted: every
        # insert ended with clwb+fence, so nothing dirty may remain in
        # the caches for the segment address range.
        report = CrashSimulator(machine).power_failure(core.now)
        segment_lines = {
            line
            for line in report.lost_pm_lines
        }
        # Directory updates during splits are persisted too; the only
        # acceptable dirty lines would be none at all.
        assert not segment_lines, f"lost {len(segment_lines)} supposedly persisted lines"


class TestCrashReportDetails:
    def test_drained_by_dimm_reports_each_device(self):
        machine = g1_machine(pm_dimms=2, prefetchers=PrefetcherConfig.none())
        core = machine.new_core()
        heap = PmHeap(machine)
        spec = machine.region_spec("pm")
        # One nt_store per channel: interleaving maps consecutive
        # interleave-granule chunks to alternating DIMMs.
        for chunk in range(2):
            core.nt_store(spec.base + chunk * INTERLEAVE_BYTES, 64)
        report = CrashSimulator(machine).power_failure(core.now)
        drained = dict(report.drained_by_dimm)
        assert set(drained) == {"pm0", "pm1"}
        assert all(count >= 1 for count in drained.values())
        assert report.drained_xplines == sum(drained.values())

    def test_wpq_and_inflight_cleared_after_crash(self):
        machine, core, heap = setup()
        addr = heap.pm.alloc(256)
        for offset in range(0, 256, 64):
            core.store(addr + offset, 8)
            core.clwb(addr + offset, 64)
        core.sfence()
        CrashSimulator(machine).power_failure(core.now)
        for region in machine.regions:
            for channel in region.channels:
                assert channel.wpq_occupancy(0.0) == 0
                assert channel.inflight.completion_for(cacheline_index(addr), 0.0) is None

    def test_eadr_flushes_dirty_cache_lines(self):
        machine = g1_machine(prefetchers=PrefetcherConfig.none(), eadr=True)
        core = machine.new_core()
        heap = PmHeap(machine)
        checker = DurabilityChecker()
        addr = heap.pm.alloc(64)
        core.store(addr, 8)  # no flush: the eADR domain must cover this
        checker.commit(addr, 8)
        report = CrashSimulator(machine).power_failure(core.now)
        assert report.eadr_flushed_lines >= 1
        assert cacheline_index(addr) not in report.lost_pm_lines
        checker.verify_against(report)  # no exception

    def test_fault_mode_parse_round_trip_and_errors(self):
        assert FaultMode.parse("power-loss") is FaultMode.CLEAN
        assert FaultMode.parse("torn-xpline") is FaultMode.TORN_XPLINE
        assert FaultMode.parse("ait-miss") is FaultMode.AIT_MISS
        with pytest.raises(ConfigError):
            FaultMode.parse("meteor-strike")


class TestDurabilityCheckerEdgeCases:
    def test_commit_straddling_cacheline_boundary_claims_both_lines(self):
        machine, core, heap = setup()
        checker = DurabilityChecker()
        addr = heap.pm.alloc(128)
        straddle = addr + 60  # 8 bytes crossing into the next line
        core.store(straddle, 8)
        core.persist(straddle)  # flushes only the first touched line
        core.persist(straddle + 8)
        checker.commit(straddle, 8)
        assert checker.committed_count == 2
        report = CrashSimulator(machine).power_failure(core.now)
        checker.verify_against(report)  # both lines were persisted

    def test_commit_straddling_boundary_with_half_flush_fails(self):
        machine, core, heap = setup()
        checker = DurabilityChecker()
        addr = heap.pm.alloc(128)
        straddle = addr + 60
        core.store(straddle, 8)  # dirties line 0 AND line 1
        core.clwb(straddle, 4)  # flushes line 0 only — line 1 still dirty
        core.sfence()
        checker.commit(straddle, 8)
        report = CrashSimulator(machine).power_failure(core.now)
        with pytest.raises(RecoveryError):
            checker.verify_against(report)

    def test_retract_withdraws_a_claim(self):
        machine, core, heap = setup()
        checker = DurabilityChecker()
        addr = heap.pm.alloc(64)
        core.store(addr, 8)  # never flushed
        checker.commit(addr, 8)
        checker.retract(addr, 8)
        assert checker.committed_count == 0
        report = CrashSimulator(machine).power_failure(core.now)
        checker.verify_against(report)  # retracted claim is not checked

    def test_commit_after_crash_is_not_a_violation(self):
        machine, core, heap = setup()
        checker = DurabilityChecker()
        addr = heap.pm.alloc(64)
        report = CrashSimulator(machine).power_failure(core.now)
        # Recovery code legitimately commits new data post-crash; the
        # ledger is only compared against the crash-time report.
        checker.commit(addr, 8)
        assert not checker.violations_against(report)
        checker.verify_against(report)

    def test_violations_against_returns_the_lost_lines(self):
        machine, core, heap = setup()
        checker = DurabilityChecker()
        addr = heap.pm.alloc(64)
        core.store(addr, 8)
        checker.commit(addr, 8)
        report = CrashSimulator(machine).power_failure(core.now)
        assert checker.violations_against(report) == frozenset({cacheline_index(addr)})
