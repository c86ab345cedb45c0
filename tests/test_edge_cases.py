"""Edge-case tests: boundary sizes, range operations, misc paths."""

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import CACHELINE_SIZE, XPLINE_SIZE
from repro.core.analysis import InstrumentedCore, read_write_summary
from repro.persist import CrashSimulator, PmHeap
from repro.stats.latency import TimeBreakdown
from repro.system.presets import g1_machine, g2_machine


def quiet(generation=1, **kwargs):
    maker = g1_machine if generation == 1 else g2_machine
    kwargs.setdefault("prefetchers", PrefetcherConfig.none())
    return maker(**kwargs)


#: Core op -> (the core counter it bumps per line, the DIMM traffic one
#: line of it makes, whether the line must be dirty first).
STRADDLE_OPS = {
    "load": ("loads", "imc_read_bytes", False),
    "store": ("stores", "imc_read_bytes", False),  # the write-allocate read
    "nt_store": ("stores", "imc_write_bytes", False),
    "clwb": ("flushes", "imc_write_bytes", True),
    "clflushopt": ("flushes", "imc_write_bytes", True),
}


class TestRangeOperations:
    @pytest.mark.parametrize("offset, lines", [(56, 1), (60, 2)])
    @pytest.mark.parametrize("op", list(STRADDLE_OPS))
    def test_op_spanning_two_lines(self, op, offset, lines):
        """8 B at line offset 56 is one line's op; at offset 60 it is two."""
        counter, traffic, dirty_first = STRADDLE_OPS[op]
        machine = quiet()
        core = machine.new_core()
        addr = machine.region_spec("pm").base + offset
        if dirty_first:
            core.store(addr, 8)
        before = getattr(core, counter)
        with machine.measure("pm") as delta:
            getattr(core, op)(addr, 8)
        assert getattr(core, counter) - before == lines
        assert getattr(delta, traffic) == lines * CACHELINE_SIZE

    def test_load_spanning_xpline_boundary(self):
        machine = quiet()
        core = machine.new_core()
        base = machine.region_spec("pm").base
        core.load(base + XPLINE_SIZE - 8, 16)
        assert core.loads == 2
        # Two different XPLines were fetched from the media.
        assert machine.pm_counters().media_read_bytes == 2 * XPLINE_SIZE

    def test_zero_size_load_touches_one_line(self):
        machine = quiet()
        core = machine.new_core()
        core.load(machine.region_spec("pm").base, 0)
        assert core.loads == 1

    def test_clwb_range_flushes_each_line(self):
        machine = quiet()
        core = machine.new_core()
        base = machine.region_spec("pm").base
        core.store(base, XPLINE_SIZE)
        core.clwb(base, XPLINE_SIZE)
        assert core.flushes == 4
        assert machine.pm_counters().imc_write_bytes == XPLINE_SIZE

    def test_nt_store_multi_xpline(self):
        machine = quiet()
        core = machine.new_core()
        base = machine.region_spec("pm").base
        core.nt_store(base, 2 * XPLINE_SIZE)
        assert machine.pm_counters().imc_write_bytes == 2 * XPLINE_SIZE


class TestReadWriteSummary:
    def test_other_bucket_collects_custom_phases(self):
        breakdown = TimeBreakdown()
        breakdown.charge("load", 50)
        breakdown.charge("custom-phase", 50)
        summary = read_write_summary(breakdown)
        assert summary["other"] == pytest.approx(0.5)

    def test_empty_breakdown(self):
        summary = read_write_summary(TimeBreakdown())
        assert sum(summary.values()) == 0.0


class TestCrashEdges:
    def test_crash_counter(self):
        machine = quiet()
        simulator = CrashSimulator(machine)
        simulator.power_failure()
        simulator.power_failure()
        assert simulator.crashes == 2

    def test_crash_on_pristine_machine(self):
        report = CrashSimulator(quiet()).power_failure()
        assert not report.lost_pm_lines
        assert report.drained_xplines == 0

    def test_clean_cached_pm_lines_are_not_lost(self):
        machine = quiet()
        core = machine.new_core()
        addr = machine.region_spec("pm").base
        core.load(addr, 8)  # clean resident copy
        report = CrashSimulator(machine).power_failure(core.now)
        assert not report.lost_pm_lines


class TestInstrumentedCoreParity:
    def test_proxy_now_tracks_core(self):
        machine = quiet()
        raw = machine.new_core()
        instrumented = InstrumentedCore(raw)
        instrumented.tick(100)
        assert instrumented.now == raw.now == 100

    def test_all_operations_proxied(self):
        machine = quiet()
        heap = PmHeap(machine)
        core = InstrumentedCore(machine.new_core())
        addr = heap.pm.alloc(XPLINE_SIZE, align=XPLINE_SIZE)
        core.load(addr, 8)
        core.store(addr, 8)
        core.clwb(addr)
        core.clflush(addr)
        core.clflushopt(addr)
        core.nt_store(addr, 64)
        core.stream_load(addr, 64)
        core.sfence()
        core.mfence()
        core.fence("sfence")
        core.persist(addr)
        assert core.breakdown.total == pytest.approx(core.now)


class TestRegionBoundaries:
    def test_first_and_last_line_of_region(self):
        machine = quiet()
        spec = machine.region_spec("pm")
        core = machine.new_core()
        core.load(spec.base, 8)
        core.load(spec.end - CACHELINE_SIZE, 8)
        assert core.loads == 2

    def test_interleave_boundary_addresses(self):
        machine = quiet(pm_dimms=6)
        spec = machine.region_spec("pm")
        # Consecutive 4 KB pages hit consecutive DIMMs; within a page,
        # all lines hit the same DIMM.
        first = machine.region_of(spec.base).channel_for(spec.base)
        same_page = machine.region_of(spec.base).channel_for(spec.base + 4095)
        next_page = machine.region_of(spec.base).channel_for(spec.base + 4096)
        assert first is same_page
        assert first is not next_page
