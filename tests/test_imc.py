"""Tests for the iMC channel: WPQ semantics and back-pressure."""

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import CACHELINE_SIZE
from repro.common.rng import DeterministicRng
from repro.dimm.config import OptaneDimmConfig
from repro.dimm.optane import OptaneDimm
from repro.sim.inflight import InflightPersists
from repro.stats.counters import TelemetryCounters
from repro.system.imc import IMCChannel
from repro.system.presets import machine_for


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
        return finish, finish + 1000.0


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
        finish, source = channel.read(0.0, 0)
        assert finish > 0
        assert source == "media"
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


class TestTrackerGuards:
    """The in-flight tracker is asked about a line only if it holds it.

    Skipping the lookup for any other line is exact: it would return
    None and prune nothing.  A stale key (its persist already complete)
    is still looked up, so the lookup prunes it as it always has.
    """

    def machine_with_tracked_line(self):
        machine = machine_for(1, seed=1, prefetchers=PrefetcherConfig.none())
        core = machine.new_core()
        tracked = machine.region_spec("pm").base
        core.store(tracked, 8)
        core.clwb(tracked)
        core.mfence()
        channel = machine.channels()["pm0"]
        assert list(channel.inflight.completion_by_line) == [tracked // CACHELINE_SIZE]
        return machine, core, channel, tracked

    def test_load_of_untracked_line_asks_no_stall(self, count_calls):
        machine, core, channel, tracked = self.machine_with_tracked_line()
        stalls = count_calls(IMCChannel, "persist_stall")
        other = tracked + 8 * 4096  # same channel, not tracked
        assert machine.region_of(other).channel_for(other) is channel
        core.load(other, 8)
        core.stream_load(other + CACHELINE_SIZE)
        assert stalls == []
        assert core.load(tracked, 8) > 800  # the tracked line still stalls
        assert len(stalls) == 1

    def test_write_of_untracked_line_skips_lookup(self, count_calls):
        channel = make_channel()
        channel.write(0.0, 0)
        lookups = count_calls(InflightPersists, "completion_for")
        grant = channel.write(10.0, 4096)
        assert lookups == [] and not grant.reflush
        assert channel.write(20.0, 0).reflush
        assert lookups == [(0, 20.0)]

    def test_stale_entry_pruned_by_write_and_readded(self, count_calls):
        channel = make_channel()
        first = channel.write(0.0, 0)
        lookups = count_calls(InflightPersists, "completion_for")
        late = first.persist_completion + 10
        again = channel.write(late, 0)
        assert lookups == [(0, late)]
        assert not again.reflush
        assert again.acceptance == late + channel.ACCEPT_LATENCY  # no hazard
        assert channel.inflight.completion_by_line == {0: again.persist_completion}

    def test_stale_entry_pruned_by_load(self):
        # A load from a core whose clock has passed the completion drops
        # the entry, so a core with a skewed (earlier) clock then sees no
        # persist in flight: its load does not stall, and its write pays
        # no hazard and leaves only its own completion behind.
        machine, core, channel, tracked = self.machine_with_tracked_line()
        line = tracked // CACHELINE_SIZE
        completion = channel.inflight.completion_by_line[line]
        core.tick(completion - core.now + 10)
        core.load(tracked, 8)
        assert line not in channel.inflight.completion_by_line
        skewed = machine.new_core("cpu1")
        assert skewed.stream_load(tracked) < 800  # no stall: nothing in flight
        grant = channel.write(skewed.now, tracked)
        assert not grant.reflush
        assert channel.inflight.completion_by_line == {line: grant.persist_completion}
