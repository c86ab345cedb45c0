"""Integrated memory controller channel: WPQ, RPQ and the ADR domain.

One :class:`IMCChannel` fronts one DIMM.  The write pending queue
(WPQ) is the heart of the DDR-T asynchrony the paper studies:

* a store/flush is *accepted* once it occupies a WPQ slot — from that
  moment it is inside the ADR domain and will survive power failure,
  and this is all a fence waits for;
* the slot is released when the DIMM ingests the line, so when the
  DIMM's write buffer is evicting to the slow media, the WPQ fills up
  and acceptance itself stalls — the mechanism that caps sustained
  write bandwidth at the media drain rate (paper Section 3.6);
* the *persist completion* (when the flush is actually done on the
  DIMM) happens long after acceptance; loads that cannot be served
  from the CPU caches must wait for it — the read-after-persist
  anomaly of Section 3.5, tracked here in :class:`InflightPersists`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.constants import CACHELINE_SIZE
from repro.sim.clock import Cycles
from repro.sim.inflight import InflightPersists


@dataclass(slots=True)
class WpqGrant:
    """Timing of one cacheline write pushed through the WPQ."""

    #: When a WPQ slot was available — the issuing instruction can not
    #: retire before this (pipeline back-pressure under saturation).
    issue_ready: Cycles
    #: When the line is in the ADR domain; fences wait for this.
    acceptance: Cycles
    #: When the flush is complete on the DIMM (RAP gate).
    persist_completion: Cycles
    #: True if an earlier persist of the same line was still in flight.
    reflush: bool


class IMCChannel:
    """WPQ/RPQ front of one DIMM (Optane or DRAM)."""

    #: Depth of the write pending queue.
    WPQ_SLOTS = 16
    #: Cycles for a flush/nt-store to become globally visible (what a
    #: fence waits for): the DDR-T transfer + WPQ insertion.  Real
    #: persist barriers on Optane cost a few hundred cycles even with
    #: an idle queue.
    ACCEPT_LATENCY = 200.0

    def __init__(self, device, name: str = "ch0") -> None:
        self.device = device
        self.name = name
        #: The machine's trace handle, installed by an ambient trace
        #: session (None ⇒ tracing off, see repro.trace.session).
        self.trace = None
        self._wpq_busy: list[Cycles] = [0.0] * self.WPQ_SLOTS
        self.inflight = InflightPersists()

    # -- read side ---------------------------------------------------------

    def read(self, now: Cycles, addr: int, demand: bool = True) -> tuple[Cycles, str]:
        """Synchronous cacheline read from the DIMM: ``(finish, source)``."""
        return self.device.read_line(now, addr, demand)

    def persist_stall(self, now: Cycles, addr: int) -> Cycles | None:
        """Completion time of an in-flight persist covering ``addr``.

        Returns None when no persist is outstanding — the read can
        proceed immediately.  The machine's loads call it only for a
        line that is a key of ``inflight.completion_by_line``: for any
        other line it returns None and prunes nothing.
        """
        return self.inflight.completion_for(addr // CACHELINE_SIZE, now)

    # -- write side -----------------------------------------------------------

    #: Extra acceptance delay when re-flushing a line whose previous
    #: persist is still draining (the WPQ holds one entry per address;
    #: a second flush must wait for / merge with the first).
    SAME_LINE_HAZARD_CAP = 150.0

    def write(self, now: Cycles, addr: int) -> WpqGrant:
        """Push one cacheline write (flush, nt-store, or cache write-back).

        Reserves the earliest-free WPQ slot; the slot stays busy until
        the DIMM ingests the line.  Registers the persist completion in
        the in-flight tracker.
        """
        busy = self._wpq_busy
        index = busy.index(min(busy))
        ready = max(now, busy[index])
        acceptance = ready + self.ACCEPT_LATENCY
        line = addr // CACHELINE_SIZE
        inflight = self.inflight
        # A line that is not a key has nothing in flight and nothing to
        # prune; a key is looked up even if stale, so the lookup prunes it.
        if line in inflight.completion_by_line:
            prior = inflight.completion_for(line, now)
            if prior is not None:
                acceptance += min(prior - now, self.SAME_LINE_HAZARD_CAP)
        else:
            prior = None
        ingest_finish, persist_completion = self.device.ingest_write(acceptance, addr)
        busy[index] = ingest_finish
        inflight.add(line, persist_completion)
        trace = self.trace
        if trace is not None:
            trace.counter("imc", "wpq", now, self.wpq_occupancy(now), self.name)
            if ready > now:
                trace.span("imc", "wpq-full", now, ready, self.name, addr=addr)
        return WpqGrant(ready, acceptance, persist_completion, prior is not None)

    # -- maintenance ------------------------------------------------------------

    def wpq_occupancy(self, now: Cycles) -> int:
        """Number of WPQ slots still busy at ``now``."""
        return sum(1 for busy in self._wpq_busy if busy > now)

    def power_cycle(self) -> None:
        """Clear pending WPQ occupancy and in-flight persists only.

        Models the queue state after a power failure: whatever the ADR
        drain accepted has been pushed to the device by the crash
        simulator, so no slot is busy and no persist is outstanding.
        Unlike :meth:`reset`, the device (buffers, media, counters) is
        left untouched — the crash simulator drains it explicitly and
        in the correct ADR order first.
        """
        self._wpq_busy = [0.0] * len(self._wpq_busy)
        self.inflight.clear()

    def reset(self) -> None:
        """Clear queue state and in-flight persists."""
        self._wpq_busy = [0.0] * len(self._wpq_busy)
        self.inflight.clear()
        self.device.reset()
