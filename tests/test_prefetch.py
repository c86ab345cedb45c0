"""Tests for the CPU prefetcher models."""

import pytest

from repro.cache import prefetch
from repro.cache.prefetch import (
    LINES_PER_PAGE,
    AdjacentLinePrefetcher,
    DcuPrefetcher,
    PrefetchEngine,
    PrefetcherConfig,
    StreamPrefetcher,
)
from repro.common.rng import DeterministicRng


@pytest.fixture
def small_tables(monkeypatch):
    """Four-page prefetcher tables; a trained stream always locks on."""
    monkeypatch.setattr(prefetch, "TABLE_ENTRIES", 4)
    monkeypatch.setattr(prefetch, "STREAMER_FIRE_PROBABILITY", 1.0)


class TestPrefetcherConfig:
    def test_none_disables_all(self):
        config = PrefetcherConfig.none()
        assert not (config.dcu or config.adjacent or config.streamer)

    def test_only_selects_one(self):
        config = PrefetcherConfig.only("dcu")
        assert config.dcu and not config.adjacent and not config.streamer

    def test_only_rejects_unknown(self):
        with pytest.raises(ValueError):
            PrefetcherConfig.only("magic")


@pytest.mark.usefixtures("small_tables")
class TestDcu:
    def test_fires_on_ascending_pair(self):
        dcu = DcuPrefetcher()
        assert dcu.observe(10, None) == []
        assert dcu.observe(11, None) == [12]

    def test_no_fire_on_random_jump(self):
        dcu = DcuPrefetcher()
        dcu.observe(10, None)
        assert dcu.observe(50, None) == []

    def test_no_fire_on_descending(self):
        dcu = DcuPrefetcher()
        dcu.observe(10, None)
        assert dcu.observe(9, None) == []

    def test_page_boundary_respected(self):
        dcu = DcuPrefetcher()
        last = LINES_PER_PAGE - 1
        dcu.observe(last - 1, None)
        assert dcu.observe(last, None) == []  # line+1 is in the next page

    def test_per_page_tracking(self):
        dcu = DcuPrefetcher()
        dcu.observe(10, None)
        dcu.observe(LINES_PER_PAGE + 20, None)  # other page
        assert dcu.observe(11, None) == [12]  # page-0 stream unbroken


class TestAdjacent:
    def test_fires_two_lines_on_miss(self):
        adj = AdjacentLinePrefetcher()
        assert adj.observe(10, None) == [11, 12]

    def test_invisible_to_l1_hits(self):
        adj = AdjacentLinePrefetcher()
        assert adj.observe(10, 1) == []

    def test_fires_on_l2_or_l3_hits(self):
        adj = AdjacentLinePrefetcher()
        assert adj.observe(10, 2) == [11, 12]

    def test_page_boundary_truncates(self):
        adj = AdjacentLinePrefetcher()
        last = LINES_PER_PAGE - 1
        assert adj.observe(last, None) == []
        assert adj.observe(last - 1, None) == [last]


@pytest.mark.usefixtures("small_tables")
class TestStreamer:
    def make(self):
        return StreamPrefetcher(DeterministicRng(1))

    def test_untrained_stream_is_silent(self):
        streamer = self.make()
        assert streamer.observe(0, None) == []
        assert streamer.observe(1, None) == []  # confidence 1 < threshold

    def test_trained_stream_fires_ahead(self):
        streamer = self.make()
        streamer.observe(0, None)
        streamer.observe(1, None)
        fired = streamer.observe(2, None)
        assert fired  # trained now
        assert fired[0] == 3
        assert max(fired) <= 2 + 4

    def test_strided_stream_trains(self):
        streamer = self.make()
        assert prefetch.STREAMER_WINDOW >= 4
        streamer.observe(0, None)
        streamer.observe(4, None)
        fired = streamer.observe(8, None)
        assert fired  # stride-4 element walks must lock on

    def test_random_pattern_never_fires(self):
        streamer = self.make()
        rng = DeterministicRng(9)
        fired = []
        for _ in range(200):
            line = rng.choice_index(10_000) * 11
            fired += streamer.observe(line, None)
        assert fired == []

    def test_descending_resets(self):
        streamer = self.make()
        streamer.observe(10, None)
        streamer.observe(11, None)
        streamer.observe(12, None)
        assert streamer.observe(5, None) == []
        assert streamer.observe(6, None) == []  # retraining from scratch

    def test_frontier_advances_without_duplicates(self):
        streamer = self.make()
        issued = []
        for line in range(20):
            issued += streamer.observe(line, None)
        assert len(issued) == len(set(issued))

    def test_l1_hits_invisible(self):
        streamer = self.make()
        streamer.observe(0, None)
        streamer.observe(1, None)
        assert streamer.observe(2, 1) == []

    def test_fire_probability_gates_activation(self, monkeypatch):
        monkeypatch.setattr(prefetch, "STREAMER_FIRE_PROBABILITY", 0.0)
        streamer = self.make()
        streamer.observe(0, None)
        streamer.observe(1, None)
        assert streamer.observe(2, None) == []

    def test_page_bounded(self):
        streamer = self.make()
        base = LINES_PER_PAGE - 3
        streamer.observe(base, None)
        streamer.observe(base + 1, None)
        fired = streamer.observe(base + 2, None)
        assert all(candidate < LINES_PER_PAGE for candidate in fired)


class TestEngine:
    def test_disabled_engine(self):
        engine = PrefetchEngine(PrefetcherConfig.none(), DeterministicRng(1))
        assert not engine.enabled
        assert engine.observe(1, None) == []

    def test_deduplicates_across_units(self):
        engine = PrefetchEngine(
            PrefetcherConfig(dcu=True, adjacent=True, streamer=False), DeterministicRng(1)
        )
        engine.observe(10, None)
        candidates = engine.observe(11, None)
        assert len(candidates) == len(set(candidates))
        assert 11 not in candidates

    def test_reset(self):
        engine = PrefetchEngine(PrefetcherConfig.only("dcu"), DeterministicRng(1))
        engine.observe(10, None)
        engine.reset()
        assert engine.observe(11, None) == []  # history forgotten
