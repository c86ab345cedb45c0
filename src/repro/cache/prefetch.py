"""CPU cache prefetchers (paper Section 3.4).

Three prefetchers of the Intel scalable processors are modeled, each
individually toggleable, mirroring the paper's BIOS switches:

* **DCU streamer** (L1 next-line): on an ascending access pair within
  a 4 KB page, fetch the next line.  Cheap per trigger (one line) but
  fires constantly — its cross-XPLine overshoots are what push the PM
  read ratio toward 2 in Figure 6 (d).
* **Adjacent-line / spatial prefetcher** (L2): on a demand miss, fetch
  the following two lines.
* **Hardware streamer** (L2): trains on ascending accesses within a
  page; once trained it keeps a prefetch frontier
  :data:`STREAMER_DISTANCE` lines ahead, issuing up to
  :data:`STREAMER_DEGREE` lines per trigger.  Training is probabilistic
  (:data:`STREAMER_FIRE_PROBABILITY`) to model the detector's
  sensitivity to interleaved access streams — with random 256 B blocks
  it only sometimes locks on, which is why Figure 6 (b) shows the
  smallest ratios.

Prefetchers emit *candidate* line indexes; the machine filters out
lines already cached or in flight and issues the remainder as
non-demand fills.  No prefetcher crosses a 4 KB page boundary.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.rng import DeterministicRng

#: Hardware prefetchers do not cross 4 KB page boundaries.
PAGE_BYTES = 4096
LINES_PER_PAGE = PAGE_BYTES // 64

#: Max pages tracked concurrently by each page-local prefetcher.
TABLE_ENTRIES = 16
#: Ascending accesses the streamer sees in a page before it may lock on.
STREAMER_TRAIN_THRESHOLD = 2
#: How far ahead (in lines) the streamer keeps its prefetch frontier.
STREAMER_DISTANCE = 4
#: Most lines the streamer issues per trigger.
STREAMER_DEGREE = 4
#: Largest ascending jump still considered part of the same stream;
#: lets the streamer lock onto strided element walks, not just +1.
STREAMER_WINDOW = 6
#: Chance that a trained stream locks on (detector sensitivity).
STREAMER_FIRE_PROBABILITY = 0.3


@dataclass(frozen=True)
class PrefetcherConfig:
    """Which prefetchers are enabled."""

    dcu: bool = True
    adjacent: bool = True
    streamer: bool = True

    @staticmethod
    def none() -> "PrefetcherConfig":
        """All prefetchers disabled (the Figure 6 (a)/(e) configuration)."""
        return PrefetcherConfig(dcu=False, adjacent=False, streamer=False)

    @staticmethod
    def only(which: str) -> "PrefetcherConfig":
        """Enable a single prefetcher: "dcu", "adjacent" or "streamer"."""
        if which not in ("dcu", "adjacent", "streamer"):
            raise ValueError(f"unknown prefetcher {which!r}")
        return PrefetcherConfig(
            dcu=which == "dcu",
            adjacent=which == "adjacent",
            streamer=which == "streamer",
        )


def _page_of(line: int) -> int:
    return line // LINES_PER_PAGE


def _page_end(line: int) -> int:
    """Last line index (inclusive) of the page containing ``line``."""
    return (_page_of(line) + 1) * LINES_PER_PAGE - 1


class DcuPrefetcher:
    """L1 next-line prefetcher: ascending pair → fetch line+1."""

    def __init__(self) -> None:
        self._last_line: OrderedDict[int, int] = OrderedDict()

    def observe(self, line: int, hit_level: int | None) -> list[int]:
        """Feed one access; returns prefetch candidates (DCU next-line)."""
        page = _page_of(line)
        previous = self._last_line.get(page)
        self._last_line[page] = line
        self._last_line.move_to_end(page)
        if len(self._last_line) > TABLE_ENTRIES:
            self._last_line.popitem(last=False)
        if previous is not None and line == previous + 1 and line + 1 <= _page_end(line):
            return [line + 1]
        return []

    def reset(self) -> None:
        """Forget all page-local history."""
        self._last_line.clear()


class AdjacentLinePrefetcher:
    """L2 spatial prefetcher: demand miss → fetch the next two lines."""

    def observe(self, line: int, hit_level: int | None) -> list[int]:
        """Feed one access; L2-visible misses fetch the next two lines."""
        if hit_level == 1:
            return []  # invisible to L2
        end = _page_end(line)
        return [candidate for candidate in (line + 1, line + 2) if candidate <= end]

    def reset(self) -> None:
        """Stateless."""


@dataclass
class _StreamEntry:
    last_line: int
    confidence: int = 0
    active: bool = False
    frontier: int = -1


class StreamPrefetcher:
    """L2 hardware streamer with training, frontier and page locality."""

    def __init__(self, rng: DeterministicRng) -> None:
        self._rng = rng
        self._streams: OrderedDict[int, _StreamEntry] = OrderedDict()

    def observe(self, line: int, hit_level: int | None) -> list[int]:
        """Feed one access; trained streams prefetch up to the frontier."""
        if hit_level == 1:
            return []  # L1 hits are invisible to the L2 streamer
        page = _page_of(line)
        entry = self._streams.get(page)
        if entry is None:
            entry = _StreamEntry(last_line=line)
            self._streams[page] = entry
            self._streams.move_to_end(page)
            if len(self._streams) > TABLE_ENTRIES:
                self._streams.popitem(last=False)
            return []
        self._streams.move_to_end(page)

        delta = line - entry.last_line
        ascending = 0 < delta <= STREAMER_WINDOW
        entry.last_line = line
        if ascending:
            entry.confidence += 1
        elif delta != 0:
            entry.confidence = 0
            entry.active = False
            entry.frontier = -1
            return []
        else:
            return []

        if not entry.active:
            if entry.confidence < STREAMER_TRAIN_THRESHOLD:
                return []
            # Trained; lock on probabilistically (detector sensitivity).
            if self._rng.random() >= STREAMER_FIRE_PROBABILITY:
                return []
            entry.active = True
            entry.frontier = line

        desired = min(line + STREAMER_DISTANCE, _page_end(line))
        start = max(entry.frontier, line) + 1
        stop = min(desired, start + STREAMER_DEGREE - 1)
        if start > stop:
            return []
        entry.frontier = stop
        return list(range(start, stop + 1))

    def reset(self) -> None:
        """Forget all stream training state."""
        self._streams.clear()


class PrefetchEngine:
    """Aggregates the enabled prefetchers behind one observe() call."""

    def __init__(self, config: PrefetcherConfig, rng: DeterministicRng) -> None:
        self.config = config
        self._units: list = []
        if config.dcu:
            self._units.append(DcuPrefetcher())
        if config.adjacent:
            self._units.append(AdjacentLinePrefetcher())
        if config.streamer:
            self._units.append(StreamPrefetcher(rng))
        #: True if at least one prefetcher is active.
        self.enabled = bool(self._units)

    def observe(self, line: int, hit_level: int | None) -> list[int]:
        """Feed one demand access; returns deduplicated candidates.

        At most a handful of candidates come back per access, so the
        dedup is a scan of the short result list.
        """
        candidates: list[int] = []
        for unit in self._units:
            for candidate in unit.observe(line, hit_level):
                if candidate != line and candidate not in candidates:
                    candidates.append(candidate)
        return candidates

    def reset(self) -> None:
        """Forget all training state."""
        for unit in self._units:
            unit.reset()
