"""Tests for ipmwatch-equivalent telemetry counters."""

import pytest

from repro.stats.counters import TelemetryCounters, TelemetryRegistry


class TestCounters:
    def test_start_at_zero(self):
        counters = TelemetryCounters()
        assert counters.imc_read_bytes == 0
        assert counters.media_write_bytes == 0

    def test_snapshot_is_independent_copy(self):
        counters = TelemetryCounters()
        snap = counters.snapshot()
        counters.imc_read_bytes += 64
        assert snap.imc_read_bytes == 0

    def test_reset(self):
        counters = TelemetryCounters(imc_read_bytes=10, media_read_bytes=20)
        counters.reset()
        assert counters.imc_read_bytes == 0
        assert counters.media_read_bytes == 0


class TestDelta:
    def _delta(self, **after):
        counters = TelemetryCounters()
        snap = counters.snapshot()
        for name, value in after.items():
            setattr(counters, name, value)
        return counters.delta(snap)

    def test_read_amplification(self):
        delta = self._delta(imc_read_bytes=64, media_read_bytes=256)
        assert delta.read_amplification == 4.0

    def test_write_amplification(self):
        delta = self._delta(imc_write_bytes=128, media_write_bytes=256)
        assert delta.write_amplification == 2.0

    def test_zero_denominator_is_zero(self):
        delta = self._delta(media_read_bytes=256)
        assert delta.read_amplification == 0.0
        assert delta.pm_read_ratio == 0.0

    def test_pm_and_imc_read_ratios(self):
        delta = self._delta(demand_read_bytes=256, imc_read_bytes=320, media_read_bytes=512)
        assert delta.imc_read_ratio == 1.25
        assert delta.pm_read_ratio == 2.0

    def test_write_buffer_hit_ratio(self):
        delta = self._delta(write_buffer_hits=3, write_buffer_misses=1)
        assert delta.write_buffer_hit_ratio == 0.75

    def test_read_buffer_hit_ratio_empty(self):
        assert self._delta().read_buffer_hit_ratio == 0.0

    def test_delta_measures_region_between_snapshots(self):
        counters = TelemetryCounters()
        counters.imc_read_bytes = 100
        snap = counters.snapshot()
        counters.imc_read_bytes = 164
        assert counters.delta(snap).imc_read_bytes == 64


class TestRegistry:
    def test_register_returns_same_object(self):
        registry = TelemetryRegistry()
        first = registry.register("pm0")
        second = registry.register("pm0")
        assert first is second

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            TelemetryRegistry().get("nope")

    def test_names_sorted(self):
        registry = TelemetryRegistry()
        registry.register("pm1")
        registry.register("dram0")
        registry.register("pm0")
        assert registry.names() == ["dram0", "pm0", "pm1"]

    def test_aggregate_by_prefix(self):
        registry = TelemetryRegistry()
        registry.register("pm0").imc_read_bytes = 10
        registry.register("pm1").imc_read_bytes = 20
        registry.register("dram0").imc_read_bytes = 40
        assert registry.aggregate("pm").imc_read_bytes == 30
        assert registry.aggregate("").imc_read_bytes == 70

    def test_reset_all(self):
        registry = TelemetryRegistry()
        registry.register("pm0").imc_read_bytes = 10
        registry.reset()
        assert registry.get("pm0").imc_read_bytes == 0


class TestMeasure:
    def test_counters_measure_captures_region(self):
        registry = TelemetryRegistry()
        counters = registry.register("pm0")
        counters.imc_read_bytes = 100
        with registry.measure("pm0") as delta:
            counters.imc_read_bytes += 64
            counters.media_read_bytes += 256
        assert delta.imc_read_bytes == 64
        assert delta.media_read_bytes == 256
        assert delta.read_amplification == 4.0

    def test_delta_filled_only_at_exit(self):
        registry = TelemetryRegistry()
        counters = registry.register("pm0")
        with registry.measure("pm0") as delta:
            counters.imc_write_bytes += 64
            assert delta.imc_write_bytes == 0  # not yet finalized
        assert delta.imc_write_bytes == 64

    def test_measure_filled_even_on_exception(self):
        registry = TelemetryRegistry()
        counters = registry.register("pm0")
        with pytest.raises(RuntimeError):
            with registry.measure("pm0") as delta:
                counters.imc_write_bytes += 64
                raise RuntimeError("boom")
        assert delta.imc_write_bytes == 64

    def test_registry_measure_spans_devices(self):
        registry = TelemetryRegistry()
        pm0 = registry.register("pm0")
        pm1 = registry.register("pm1")
        registry.register("dram0").imc_read_bytes = 999
        with registry.measure("pm") as delta:
            pm0.imc_read_bytes += 10
            pm1.imc_read_bytes += 20
        assert delta.imc_read_bytes == 30

    def test_registry_measure_sees_devices_mutated_in_place(self):
        # aggregate() returns a detached sum, so measuring *it* would
        # observe nothing; registry.measure re-aggregates at exit.
        registry = TelemetryRegistry()
        device = registry.register("pm0")
        with registry.measure() as delta:
            device.imc_read_bytes += 64
        assert delta.imc_read_bytes == 64

    def test_machine_measure_delegates_to_registry(self):
        from repro.persist import PmHeap
        from repro.system import g1_machine

        machine = g1_machine()
        heap = PmHeap(machine)
        core = machine.new_core()
        addr = heap.pm.alloc_xpline()
        with machine.measure("pm") as delta:
            core.nt_store(addr, 64)
            core.sfence()
        assert delta.imc_write_bytes == 64
