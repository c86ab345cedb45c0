"""Tests for the iMC channel: WPQ semantics and back-pressure."""

import pytest

from repro.common.rng import DeterministicRng
from repro.dimm.config import OptaneDimmConfig
from repro.dimm.optane import OptaneDimm, WriteResponse
from repro.stats.counters import TelemetryCounters
from repro.system.imc import IMCChannel


@pytest.fixture
def wpq(monkeypatch):
    """Shrink the WPQ for one test: ``wpq(slots)``; acceptance takes 60 cycles."""

    def shrink(slots=4):
        monkeypatch.setattr(IMCChannel, "WPQ_SLOTS", slots)
        monkeypatch.setattr(IMCChannel, "ACCEPT_LATENCY", 60.0)

    shrink()
    return shrink


def make_channel():
    dimm = OptaneDimm(OptaneDimmConfig.g1(), TelemetryCounters(), DeterministicRng(2))
    return IMCChannel(dimm)


@pytest.mark.usefixtures("wpq")
class TestWpqBasics:
    def test_acceptance_after_accept_latency(self):
        channel = make_channel()
        grant = channel.write(0.0, 0)
        assert grant.acceptance == 60.0
        assert grant.issue_ready == 0.0

    def test_persist_completion_far_after_acceptance(self):
        channel = make_channel()
        grant = channel.write(0.0, 0)
        assert grant.persist_completion > grant.acceptance + 1000

    def test_occupancy(self):
        channel = make_channel()
        channel.write(0.0, 0)
        assert channel.wpq_occupancy(0.0) == 1
        assert channel.wpq_occupancy(1e9) == 0


class FixedIngestDevice:
    """Device stub whose ingest takes a scripted time per write."""

    def __init__(self, ingest_times):
        self._ingest_times = iter(ingest_times)

    def ingest_write(self, now, addr):
        finish = now + next(self._ingest_times)
        return WriteResponse(ingest_finish=finish, persist_completion=finish + 1000.0)


class TestWpqSlotPick:
    def test_equal_now_fills_slots_in_index_order(self, wpq):
        # Which of several equally free slots is taken does not show in
        # the grant times, so the WPQ busy-until list is checked directly.
        wpq(3)
        ingest = [100.0, 100.0, 100.0, 50.0, 70.0, 10.0, 5.0, 5.0]
        channel = IMCChannel(FixedIngestDevice(ingest))
        expected = [
            # (issue_ready, WPQ busy-until after the write)
            (0.0, [160.0, 0.0, 0.0]),
            (0.0, [160.0, 160.0, 0.0]),
            (0.0, [160.0, 160.0, 160.0]),
            (160.0, [270.0, 160.0, 160.0]),
            (160.0, [270.0, 290.0, 160.0]),
            (160.0, [270.0, 290.0, 230.0]),
            (230.0, [270.0, 290.0, 295.0]),
            (270.0, [335.0, 290.0, 295.0]),
        ]
        for index, (issue_ready, busy) in enumerate(expected):
            grant = channel.write(0.0, index * 4096)
            assert grant.issue_ready == issue_ready
            assert grant.acceptance == issue_ready + 60.0
            assert channel._wpq_busy == busy


class TestBackPressure:
    def test_wpq_fills_under_eviction_storm(self, wpq):
        # Distinct XPLines overflow the write buffer; each ingest then
        # waits on a media write, keeping WPQ slots busy and delaying
        # issue_ready for subsequent stores.
        wpq(2)
        channel = make_channel()
        issue_delays = []
        now = 0.0
        for index in range(200):
            grant = channel.write(now, index * 256)
            issue_delays.append(grant.issue_ready - now)
            now += 10.0  # offered load far above the drain rate
        assert issue_delays[0] == 0.0
        assert max(issue_delays[-20:]) > 100.0  # saturated steady state

    def test_absorbed_writes_do_not_back_pressure(self, wpq):
        wpq(2)
        channel = make_channel()
        # Hammer a handful of XPLines that fit the write buffer.
        now = 0.0
        delays = []
        for index in range(100):
            grant = channel.write(now, (index % 4) * 256 + 64)
            delays.append(grant.issue_ready - now)
            now = grant.acceptance
        assert max(delays) < 100.0


@pytest.mark.usefixtures("wpq")
class TestSameLineHazard:
    def test_reflush_of_inflight_line_delays_acceptance(self):
        channel = make_channel()
        first = channel.write(0.0, 0)
        again = channel.write(first.acceptance + 10, 0)
        baseline = channel.write(first.acceptance + 10, 4096)
        assert again.acceptance - baseline.acceptance >= IMCChannel.SAME_LINE_HAZARD_CAP * 0.9

    def test_no_hazard_after_completion(self):
        channel = make_channel()
        first = channel.write(0.0, 0)
        later = channel.write(first.persist_completion + 10, 0)
        assert later.acceptance - later.issue_ready == pytest.approx(channel.ACCEPT_LATENCY)


@pytest.mark.usefixtures("wpq")
class TestReadSide:
    def test_read_delegates_to_device(self):
        channel = make_channel()
        response = channel.read(0.0, 0)
        assert response.finish > 0
        assert channel.device.counters.imc_read_bytes / 64 == 1

    def test_persist_stall_visibility(self):
        channel = make_channel()
        grant = channel.write(0.0, 0)
        assert channel.persist_stall(grant.acceptance, 0) == grant.persist_completion
        assert channel.persist_stall(grant.persist_completion + 1, 0) is None

    def test_reset(self):
        channel = make_channel()
        channel.write(0.0, 0)
        assert channel.device.counters.imc_write_bytes / 64 == 1
        channel.reset()
        assert channel.wpq_occupancy(0.0) == 0
        assert channel.persist_stall(0.0, 0) is None
