"""Tests for the CPU prefetcher models."""

import random
from collections import OrderedDict

import pytest

from repro.cache import prefetch
from repro.cache.prefetch import LINES_PER_PAGE, PrefetchEngine, PrefetcherConfig
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


def only(which):
    """An engine with one prefetcher enabled."""
    return PrefetchEngine(PrefetcherConfig.only(which), DeterministicRng(1))


@pytest.mark.usefixtures("small_tables")
class TestDcu:
    def test_fires_on_ascending_pair(self):
        dcu = only("dcu")
        assert dcu.observe(10, None) == []
        assert dcu.observe(11, None) == [12]

    def test_no_fire_on_random_jump(self):
        dcu = only("dcu")
        dcu.observe(10, None)
        assert dcu.observe(50, None) == []

    def test_no_fire_on_descending(self):
        dcu = only("dcu")
        dcu.observe(10, None)
        assert dcu.observe(9, None) == []

    def test_page_boundary_respected(self):
        dcu = only("dcu")
        last = LINES_PER_PAGE - 1
        dcu.observe(last - 1, None)
        assert dcu.observe(last, None) == []  # line+1 is in the next page

    def test_per_page_tracking(self):
        dcu = only("dcu")
        dcu.observe(10, None)
        dcu.observe(LINES_PER_PAGE + 20, None)  # other page
        assert dcu.observe(11, None) == [12]  # page-0 stream unbroken


class TestAdjacent:
    def test_fires_two_lines_on_miss(self):
        adj = only("adjacent")
        assert adj.observe(10, None) == [11, 12]

    def test_invisible_to_l1_hits(self):
        adj = only("adjacent")
        assert adj.observe(10, 1) == []

    def test_fires_on_l2_or_l3_hits(self):
        adj = only("adjacent")
        assert adj.observe(10, 2) == [11, 12]

    def test_page_boundary_truncates(self):
        adj = only("adjacent")
        last = LINES_PER_PAGE - 1
        assert adj.observe(last, None) == []
        assert adj.observe(last - 1, None) == [last]


@pytest.mark.usefixtures("small_tables")
class TestStreamer:
    def make(self):
        return only("streamer")

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


# -- reference composition ------------------------------------------------------
#
# The three prefetchers as separate units, combined the way the engine
# promises: DCU, then adjacent line, then streamer, each candidate once.
# The engine writes them out in one frame; this keeps the plain form to
# compare against.


def _page_end(line):
    return (line // LINES_PER_PAGE + 1) * LINES_PER_PAGE - 1


class _RefDcu:
    def __init__(self):
        self.last_line = OrderedDict()

    def observe(self, line, hit_level):
        page = line // LINES_PER_PAGE
        previous = self.last_line.get(page)
        self.last_line[page] = line
        self.last_line.move_to_end(page)
        if len(self.last_line) > prefetch.TABLE_ENTRIES:
            self.last_line.popitem(last=False)
        if previous is not None and line == previous + 1 and line + 1 <= _page_end(line):
            return [line + 1]
        return []


class _RefAdjacent:
    def observe(self, line, hit_level):
        if hit_level == 1:
            return []
        return [candidate for candidate in (line + 1, line + 2) if candidate <= _page_end(line)]


class _RefStreamer:
    def __init__(self, rng):
        self.rng = rng
        self.streams = OrderedDict()

    def observe(self, line, hit_level):
        if hit_level == 1:
            return []
        page = line // LINES_PER_PAGE
        entry = self.streams.get(page)
        if entry is None:
            self.streams[page] = {"last": line, "confidence": 0, "active": False, "frontier": -1}
            if len(self.streams) > prefetch.TABLE_ENTRIES:
                self.streams.popitem(last=False)
            return []
        self.streams.move_to_end(page)
        delta = line - entry["last"]
        entry["last"] = line
        if 0 < delta <= prefetch.STREAMER_WINDOW:
            entry["confidence"] += 1
        elif delta != 0:
            entry.update(confidence=0, active=False, frontier=-1)
            return []
        else:
            return []
        if not entry["active"]:
            if entry["confidence"] < prefetch.STREAMER_TRAIN_THRESHOLD:
                return []
            if self.rng.random() >= prefetch.STREAMER_FIRE_PROBABILITY:
                return []
            entry.update(active=True, frontier=line)
        desired = min(line + prefetch.STREAMER_DISTANCE, _page_end(line))
        start = max(entry["frontier"], line) + 1
        stop = min(desired, start + prefetch.STREAMER_DEGREE - 1)
        if start > stop:
            return []
        entry["frontier"] = stop
        return list(range(start, stop + 1))


def _reference(config, rng):
    units = []
    if config.dcu:
        units.append(_RefDcu())
    if config.adjacent:
        units.append(_RefAdjacent())
    if config.streamer:
        units.append(_RefStreamer(rng))

    def observe(line, hit_level):
        candidates = []
        for unit in units:
            for candidate in unit.observe(line, hit_level):
                if candidate != line and candidate not in candidates:
                    candidates.append(candidate)
        return candidates

    return observe


def _stream(kind, seed, length=3000):
    """Seeded (line, hit level) accesses: sequential, strided or random lines."""
    rng = random.Random(seed)
    base = rng.randrange(1 << 20)
    lines = []
    while len(lines) < length:
        if kind == "sequential":
            start = base + rng.randrange(1 << 16)
            lines += range(start, start + rng.randrange(1, 200))
        elif kind == "strided":
            start, stride = base + rng.randrange(1 << 16), rng.randrange(1, 9)
            lines += range(start, start + stride * rng.randrange(1, 60), stride)
        else:
            # Over 4, 8 or 24 pages: within and past the tables' reach.
            lines.append(base + rng.randrange((4, 8, 24)[seed % 3] * LINES_PER_PAGE))
    # Mostly misses; some L1, L2 and L3 hits, and a few repeated lines.
    levels = (None, None, None, 1, 2, 3)
    return [(line, rng.choice(levels)) for line in lines[:length]]


CONFIGS = {
    "dcu": PrefetcherConfig.only("dcu"),
    "adjacent": PrefetcherConfig.only("adjacent"),
    "streamer": PrefetcherConfig.only("streamer"),
    "default": PrefetcherConfig(),
}


@pytest.mark.parametrize("tables", ["default_tables", "small_tables"])
@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("kind", ["sequential", "strided", "random"])
def test_engine_matches_unit_composition(kind, config, tables, request):
    if tables == "small_tables":
        request.getfixturevalue("small_tables")
    fired = 0
    for seed in (1, 2, 3):
        engine = PrefetchEngine(CONFIGS[config], DeterministicRng(seed))
        reference = _reference(CONFIGS[config], DeterministicRng(seed))
        accesses = _stream(kind, seed)
        got = [engine.observe(line, level) for line, level in accesses]
        assert got == [reference(line, level) for line, level in accesses]
        fired += sum(map(len, got))
    assert fired > 0
