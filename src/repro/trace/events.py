"""Hierarchical trace events — the simulator's ETW/ftrace equivalent.

A :class:`Tracer` collects timestamped events emitted by the machine's
components while a simulation runs.  Each component holds one
*nullable* handle, the machine's
:class:`~repro.trace.session.MachineTrace` (``self.trace`` is ``None``
unless a trace session is attached), so the disabled path costs one
attribute test per instrumentation point and allocates nothing.

Three event shapes, mirroring the Chrome ``trace_event`` phases the
exporter (:mod:`repro.trace.emit`) targets:

* **span** — an interval with a start and an end (a media read, a
  persist draining from WPQ acceptance to completion, a RAP stall);
* **instant** — a point event (a buffer hit/miss, an AIT-cache miss,
  a fence retiring);
* **counter** — a sampled value over time (WPQ occupancy, buffer
  fill), rendered by Perfetto as a step chart.

Every event carries a *category* from :data:`CATEGORIES` (which layer
of the hierarchy emitted it) and a *track* (which component instance —
exported as the Chrome thread, so each DIMM/core gets its own swim
lane).  Timestamps are simulated cycles, the repo-wide currency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.sim.clock import Cycles

#: The event categories, one per layer of the memory hierarchy:
#: CPU caches/prefetchers, on-DIMM read buffer, on-DIMM write-combining
#: buffer, iMC queues (WPQ), 3D-XPoint media, AIT translation cache,
#: and the persistence primitives (flushes, fences, RAP stalls).
CATEGORIES = ("cache", "rbuf", "wbuf", "imc", "media", "ait", "persist")


@dataclass(frozen=True)
class TraceEvent:
    """One trace record.

    ``phase`` is the Chrome ``trace_event`` phase: ``"X"`` (complete
    span with ``dur``), ``"i"`` (instant) or ``"C"`` (counter, value
    in ``args``).  ``ts``/``dur`` are simulated cycles; ``track``
    names the emitting component instance.
    """

    phase: str
    category: str
    name: str
    ts: Cycles
    track: str
    dur: Cycles = 0.0
    args: dict | None = None


class Tracer:
    """Low-overhead event sink with category filtering and a hard cap.

    ``categories=None`` records everything; otherwise only the listed
    categories are kept (emissions for filtered-out categories cost
    the ``wants()`` set test and nothing else).  ``max_events`` bounds
    memory: once reached, the *first* ``max_events`` events are kept,
    later emissions are counted in :attr:`dropped` — the exporter and
    the CLI surface that count, so truncation is never silent.
    """

    def __init__(self, categories=None, max_events: int = 200_000) -> None:
        """Create a tracer keeping ``categories`` (None = all)."""
        if max_events <= 0:
            raise ConfigError("max_events must be positive")
        if categories is not None:
            unknown = set(categories) - set(CATEGORIES)
            if unknown:
                raise ConfigError(
                    f"unknown trace categories {sorted(unknown)}; "
                    f"known: {', '.join(CATEGORIES)}"
                )
        self._categories = frozenset(categories) if categories is not None else None
        self._max_events = max_events
        self.events: list[TraceEvent] = []
        #: Events discarded after the cap was reached.
        self.dropped = 0

    def wants(self, category: str) -> bool:
        """True if events of ``category`` are being recorded."""
        return self._categories is None or category in self._categories

    # -- emission ----------------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        if len(self.events) < self._max_events:
            self.events.append(event)
        else:
            self.dropped += 1

    def instant(self, category: str, name: str, ts: Cycles, track: str,
                **args) -> None:
        """Record a point event at ``ts`` on ``track``."""
        if not self.wants(category):
            return
        self._emit(TraceEvent("i", category, name, ts, track,
                              args=args or None))

    def span(self, category: str, name: str, start: Cycles, end: Cycles,
             track: str, **args) -> None:
        """Record an interval event covering [start, end] on ``track``."""
        if not self.wants(category):
            return
        self._emit(TraceEvent("X", category, name, start, track,
                              dur=max(end - start, 0.0), args=args or None))

    def counter(self, category: str, name: str, ts: Cycles, value: float,
                track: str) -> None:
        """Record one sample of the counter ``name`` on ``track``."""
        if not self.wants(category):
            return
        self._emit(TraceEvent("C", category, name, ts, track,
                              args={"value": value}))

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        """Number of events recorded (excludes dropped)."""
        return len(self.events)

    def by_category(self) -> dict[str, int]:
        """Event counts per category (only categories actually seen)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.category] = counts.get(event.category, 0) + 1
        return counts

    def tracks(self) -> list[str]:
        """All track names seen, sorted."""
        return sorted({event.track for event in self.events})
