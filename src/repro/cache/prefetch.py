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


class PrefetchEngine:
    """The enabled prefetchers behind one :meth:`observe` call.

    The three units are written out in one frame (an access runs on
    every demand load and store with prefetchers on): the DCU's
    per-page last line, the adjacent-line flag and the streamer's
    per-page entries are tables of this object.  The table sizes and
    streamer constants are read from the module at call time.
    """

    def __init__(self, config: PrefetcherConfig, rng: DeterministicRng) -> None:
        self.config = config
        self._rng = rng
        #: DCU: page -> last line seen in it, in LRU order (None: off).
        self._dcu_pages: OrderedDict[int, int] | None = OrderedDict() if config.dcu else None
        self._adjacent = config.adjacent
        #: Streamer: page -> [last line, confidence, active, frontier],
        #: in LRU order (None: off).
        self._streams: OrderedDict[int, list] | None = (
            OrderedDict() if config.streamer else None
        )
        #: True if at least one prefetcher is active.
        self.enabled = config.dcu or config.adjacent or config.streamer

    def observe(self, line: int, hit_level: int | None) -> list[int]:
        """Feed one demand access; returns the deduplicated candidates.

        Candidates come in unit order (DCU, adjacent line, streamer),
        each line once, none past the end of ``line``'s page.  L1 hits
        train the DCU only: they are invisible to the L2 units.
        """
        page = line // LINES_PER_PAGE
        end = page * LINES_PER_PAGE + LINES_PER_PAGE - 1
        candidates: list[int] = []
        pages = self._dcu_pages
        if pages is not None:
            # Next-line on an ascending pair within the page.
            previous = pages.pop(page, None)
            pages[page] = line
            if len(pages) > TABLE_ENTRIES:
                pages.popitem(last=False)
            if previous is not None and line == previous + 1 and line < end:
                candidates.append(line + 1)
        if hit_level == 1:
            return candidates
        if self._adjacent and line < end:
            # Demand miss at L2: the next two lines.
            if not candidates:
                candidates.append(line + 1)
            if line + 1 < end:
                candidates.append(line + 2)
        streams = self._streams
        if streams is None:
            return candidates
        entry = streams.get(page)
        if entry is None:
            streams[page] = [line, 0, False, -1]
            if len(streams) > TABLE_ENTRIES:
                streams.popitem(last=False)
            return candidates
        streams.move_to_end(page)
        delta = line - entry[0]
        entry[0] = line
        if 0 < delta <= STREAMER_WINDOW:
            entry[1] += 1
        elif delta:
            # A jump back or past the window breaks the stream.
            entry[1] = 0
            entry[2] = False
            entry[3] = -1
            return candidates
        else:
            return candidates
        if not entry[2]:
            if entry[1] < STREAMER_TRAIN_THRESHOLD:
                return candidates
            # Trained; lock on probabilistically (detector sensitivity).
            if self._rng.random() >= STREAMER_FIRE_PROBABILITY:
                return candidates
            entry[2] = True
            entry[3] = line
        # Advance the frontier toward STREAMER_DISTANCE lines ahead.
        start = (entry[3] if entry[3] > line else line) + 1
        stop = line + STREAMER_DISTANCE
        if stop > end:
            stop = end
        if stop > start + STREAMER_DEGREE - 1:
            stop = start + STREAMER_DEGREE - 1
        if start > stop:
            return candidates
        entry[3] = stop
        for candidate in range(start, stop + 1):
            if candidate not in candidates:
                candidates.append(candidate)
        return candidates

    def reset(self) -> None:
        """Forget all training state."""
        if self._dcu_pages is not None:
            self._dcu_pages.clear()
        if self._streams is not None:
            self._streams.clear()
