"""Tests for the Optane and DRAM DIMM front-ends."""

import pytest

from repro.buffers.read_buffer import ReadBuffer
from repro.buffers.write_buffer import WRITEBACK_PERIOD, WriteBuffer
from repro.common.rng import DeterministicRng
from repro.common.units import kib
from repro.dimm.config import DramDimmConfig, OptaneDimmConfig
from repro.dimm.dram import DramDimm
from repro.dimm.optane import OptaneDimm
from repro.stats.counters import TelemetryCounters


def make_optane(generation=1, **overrides):
    base = OptaneDimmConfig.g1() if generation == 1 else OptaneDimmConfig.g2()
    if overrides:
        import dataclasses

        base = dataclasses.replace(base, **overrides)
    counters = TelemetryCounters()
    return OptaneDimm(base, counters, DeterministicRng(3)), counters


class TestOptaneConfig:
    def test_g1_preset(self):
        config = OptaneDimmConfig.g1()
        assert config.read_buffer_bytes == kib(16)
        assert config.write_buffer_bytes == kib(12)
        assert config.periodic_writeback

    def test_g2_preset(self):
        config = OptaneDimmConfig.g2()
        assert config.read_buffer_bytes == kib(22)
        assert config.write_buffer_bytes == kib(16)
        assert not config.periodic_writeback

    def test_g2_buffer_latency_higher(self):
        assert OptaneDimmConfig.g2().buffer_read_latency > OptaneDimmConfig.g1().buffer_read_latency

    def test_overrides(self):
        config = OptaneDimmConfig.g1(read_buffer_bytes=kib(32))
        assert config.read_buffer_bytes == kib(32)

    def test_validation(self):
        import dataclasses
        from repro.common.errors import ConfigError

        bad = dataclasses.replace(OptaneDimmConfig.g1(), read_buffer_bytes=0)
        with pytest.raises(ConfigError):
            bad.validate()


class TestOptaneReadPath:
    def test_cold_read_goes_to_media(self):
        dimm, counters = make_optane()
        _, source = dimm.read_line(0.0, 0)
        assert source == "media"
        assert counters.media_read_bytes == 256
        assert counters.imc_read_bytes == 64

    def test_sibling_cacheline_hits_read_buffer(self):
        dimm, counters = make_optane()
        dimm.read_line(0.0, 0)
        _, source = dimm.read_line(1000.0, 64)
        assert source == "read-buffer"
        assert counters.media_read_bytes == 256  # no second media read

    def test_exclusivity_same_line_rereads_media(self):
        dimm, counters = make_optane()
        dimm.read_line(0.0, 0)
        _, source = dimm.read_line(1000.0, 0)
        assert source == "media"
        assert counters.media_read_bytes == 512

    def test_buffer_hit_faster_than_media(self):
        dimm, _ = make_optane()
        cold, _ = dimm.read_line(0.0, 0)
        warm, _ = dimm.read_line(cold, 64)
        assert warm - cold < cold

    def test_read_served_from_write_buffer(self):
        dimm, counters = make_optane()
        dimm.ingest_write(0.0, 0)
        _, source = dimm.read_line(1000.0, 0)
        assert source == "write-buffer"

    def test_unwritten_slot_triggers_rmw_fill(self):
        dimm, counters = make_optane()
        dimm.ingest_write(0.0, 0)  # slot 0 dirty
        _, source = dimm.read_line(1000.0, 64)  # slot 1: not held yet
        assert source == "write-buffer-fill"
        assert counters.media_read_bytes == 256
        # After the fill, every slot of the XPLine is servable cheaply.
        assert dimm.read_line(2000.0, 128)[1] == "write-buffer"
        assert counters.media_read_bytes == 256  # no second media read

    def test_demand_flag_controls_demand_counter(self):
        dimm, counters = make_optane()
        dimm.read_line(0.0, 0, demand=False)
        assert counters.demand_read_bytes == 0
        dimm.read_line(0.0, 64, demand=True)
        assert counters.demand_read_bytes == 64


class TestOptaneReadGuards:
    """A read enters a buffer only when that buffer has work for it."""

    def test_read_buffer_asked_only_for_resident_xpline(self, count_calls):
        dimm, counters = make_optane()
        delivers = count_calls(ReadBuffer, "deliver")
        assert dimm.read_line(0.0, 0)[1] == "media"
        assert delivers == []  # XPLine 0 was not resident
        assert dimm.read_line(1000.0, 64)[1] == "read-buffer"
        assert delivers == [(0, 1)]
        assert counters.read_buffer_hits == 1
        # Slot 0 was consumed by the fetch: asked, missed, refetched.
        assert dimm.read_line(2000.0, 0)[1] == "media"
        assert delivers == [(0, 1), (0, 0)]

    def test_write_buffer_polled_only_once_due(self, count_calls):
        dimm, counters = make_optane(1)
        for slot in range(4):
            dimm.ingest_write(0.0, slot * 64)
        assert dimm.write_buffer.due_bound == WRITEBACK_PERIOD
        polls = count_calls(WriteBuffer, "poll")
        dimm.read_line(WRITEBACK_PERIOD - 1, 4096)
        assert polls == [] and counters.periodic_writebacks == 0
        dimm.read_line(WRITEBACK_PERIOD, 8192)
        assert polls == [(WRITEBACK_PERIOD,)]
        assert counters.periodic_writebacks == 1


class TestOptaneWritePath:
    def test_write_counts_imc_bytes(self):
        dimm, counters = make_optane()
        dimm.ingest_write(0.0, 0)
        assert counters.imc_write_bytes == 64

    def test_small_writes_absorbed_no_media_write(self):
        dimm, counters = make_optane()
        for xpline in range(8):
            dimm.ingest_write(0.0, xpline * 256)
        assert counters.media_write_bytes == 0

    def test_capacity_eviction_writes_media(self):
        dimm, counters = make_optane()
        lines = dimm.write_buffer.capacity_lines
        for xpline in range(lines + 4):
            dimm.ingest_write(float(xpline), xpline * 256)
        assert counters.media_write_bytes > 0
        assert counters.write_buffer_evictions > 0

    def test_persist_completion_after_ingest(self):
        dimm, _ = make_optane()
        ingest_finish, persist_completion = dimm.ingest_write(0.0, 0)
        assert persist_completion > ingest_finish

    def test_write_hit_on_same_xpline(self):
        dimm, counters = make_optane()
        dimm.ingest_write(0.0, 0)
        dimm.ingest_write(1.0, 64)
        assert counters.write_buffer_hits == 1

    def test_transition_from_read_buffer(self):
        dimm, counters = make_optane()
        dimm.read_line(0.0, 0)
        dimm.ingest_write(1000.0, 64)
        assert counters.rmw_avoided == 1
        assert 0 not in dimm.read_buffer.entries
        assert 0 in dimm.write_buffer.entries
        # The adopted line can now serve reads for any slot.
        assert dimm.read_line(2000.0, 128)[1] == "write-buffer"

    def test_g1_periodic_writeback_of_full_lines(self):
        dimm, counters = make_optane(1)
        for slot in range(4):
            dimm.ingest_write(0.0, slot * 64)
        # A later read of another XPLine polls the buffer: the full
        # line has been due since WRITEBACK_PERIOD and drains now.
        dimm.read_line(100_000.0, 4096)
        assert counters.periodic_writebacks == 1
        assert counters.media_write_bytes == 256

    def test_g2_no_periodic_writeback(self):
        dimm, counters = make_optane(2)
        for slot in range(4):
            dimm.ingest_write(0.0, slot * 64)
        dimm.read_line(100_000.0, 4096)
        assert counters.periodic_writebacks == 0
        assert counters.media_write_bytes == 0

    def test_power_failure_drain(self):
        dimm, counters = make_optane()
        dimm.ingest_write(0.0, 0)
        dimm.ingest_write(0.0, 256)
        drained = dimm.drain_for_power_failure(1.0)
        assert drained == 2
        assert counters.media_write_bytes == 512
        assert len(dimm.write_buffer) == 0


class TestDramDimm:
    def make(self):
        counters = TelemetryCounters()
        return DramDimm(DramDimmConfig(), counters), counters

    def test_read(self):
        dimm, counters = self.make()
        finish, source = dimm.read_line(0.0, 0)
        assert counters.imc_read_bytes == 64
        assert counters.media_read_bytes == 64
        assert finish > 0
        assert source == "media"

    def test_write_persist_completion_fast_relative_to_optane(self):
        dram, _ = self.make()
        optane, _ = make_optane()
        _, dram_completion = dram.ingest_write(0.0, 0)
        _, optane_completion = optane.ingest_write(0.0, 0)
        assert dram_completion < optane_completion

    def test_no_amplification(self):
        dimm, counters = self.make()
        dimm.read_line(0.0, 0)
        assert counters.media_read_bytes == counters.imc_read_bytes
