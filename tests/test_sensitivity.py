"""Sensitivity tests: signatures track the configured parameters.

These validate that the paper-visible quantities are *causally* driven
by the mechanisms we claim drive them: move a configuration knob, and
the corresponding measurement moves with it (and nothing else breaks).
"""

import dataclasses

import pytest

from repro.buffers import write_buffer
from repro.cache.prefetch import PrefetcherConfig
from repro.common.units import kib
from repro.core.microbench.rap import run_rap_iterations
from repro.core.microbench.strided_read import run_strided_read
from repro.core.microbench.write_amp import run_write_amplification
from repro.dimm.config import OptaneDimmConfig
from repro.persist.persistency import FenceKind, FlushKind
from repro.system.presets import g1_machine


def machine_with(**optane_overrides):
    return g1_machine(
        prefetchers=PrefetcherConfig.none(),
        optane=OptaneDimmConfig.g1(**optane_overrides),
    )


class TestReadBufferSizeSensitivity:
    @pytest.mark.parametrize("capacity_kib", [8, 16, 32])
    def test_ra_step_tracks_capacity(self, capacity_kib):
        capacity = kib(capacity_kib)
        below = run_strided_read(
            machine_with(read_buffer_bytes=capacity), capacity - kib(2), 4
        )
        above = run_strided_read(
            machine_with(read_buffer_bytes=capacity), capacity + kib(2), 4
        )
        assert below.read_amplification == pytest.approx(1.0, rel=0.05)
        assert above.read_amplification == pytest.approx(4.0, rel=0.05)


class TestWriteBufferSizeSensitivity:
    @pytest.mark.parametrize("capacity_kib", [8, 16, 24])
    def test_wa_departure_tracks_capacity(self, capacity_kib):
        capacity = kib(capacity_kib)
        below = run_write_amplification(
            machine_with(write_buffer_bytes=capacity), capacity - kib(2), 1
        )
        above = run_write_amplification(
            machine_with(write_buffer_bytes=capacity), capacity + kib(8), 1, passes=10
        )
        assert below.write_amplification == 0.0
        assert above.write_amplification > 1.0


class TestPersistDrainSensitivity:
    def test_rap_peak_tracks_drain_latency(self):
        short = machine_with(persist_drain_latency=800.0)
        long = machine_with(persist_drain_latency=3200.0)
        peak_short = run_rap_iterations(
            short, "pm", FlushKind.CLWB, FenceKind.MFENCE, 0, passes=12
        )
        peak_long = run_rap_iterations(
            long, "pm", FlushKind.CLWB, FenceKind.MFENCE, 0, passes=12
        )
        assert peak_long > peak_short + 2000
        # The settled level is drain-independent.
        settled_short = run_rap_iterations(
            machine_with(persist_drain_latency=800.0),
            "pm", FlushKind.CLWB, FenceKind.MFENCE, 32, passes=12,
        )
        settled_long = run_rap_iterations(
            machine_with(persist_drain_latency=3200.0),
            "pm", FlushKind.CLWB, FenceKind.MFENCE, 32, passes=12,
        )
        assert settled_long == pytest.approx(settled_short, rel=0.25)


class TestBufferLatencySensitivity:
    def test_buffer_hit_latency_moves_settled_rap(self):
        fast = machine_with(buffer_read_latency=60.0)
        slow = machine_with(buffer_read_latency=360.0)
        settled_fast = run_rap_iterations(
            fast, "pm", FlushKind.CLWB, FenceKind.MFENCE, 8, passes=12
        )
        settled_slow = run_rap_iterations(
            slow, "pm", FlushKind.CLWB, FenceKind.MFENCE, 8, passes=12
        )
        assert settled_slow > settled_fast + 150


class TestWritebackPeriodSensitivity:
    def test_longer_period_coalesces_more(self, monkeypatch):
        # With a very long period, a short full-write run finishes
        # before any timer fires: only rewrites drain lines.
        monkeypatch.setattr(write_buffer, "WRITEBACK_PERIOD", 500.0)
        quick = run_write_amplification(machine_with(), kib(4), 4, passes=4)
        monkeypatch.setattr(write_buffer, "WRITEBACK_PERIOD", 5_000_000.0)
        lazy = run_write_amplification(machine_with(), kib(4), 4, passes=4)
        assert lazy.write_amplification <= quick.write_amplification
