"""Optane DIMM front-end: buffers + AIT + media behind a DDR-T interface.

This is the component the iMC talks to.  It owns the read buffer, the
write-combining buffer, and the 3D-XPoint media, and implements the
paper's inferred behaviours:

* reads probe the write buffer, then the read buffer, then the media
  (installing the fetched XPLine into the read buffer);
* writes merge into the write buffer; a write that hits a read-buffer
  XPLine *adopts* it into the write buffer, skipping the
  read-modify-write (§3.3);
* capacity evictions apply back-pressure to the WPQ (this is what
  limits write bandwidth), while periodic write-backs drain
  asynchronously;
* every interaction is counted in the DIMM's telemetry.
"""

from __future__ import annotations

from repro.common.constants import CACHELINE_SIZE, FULL_XPLINE_MASK, XPLINE_SIZE
from repro.common.rng import DeterministicRng
from repro.buffers.read_buffer import ReadBuffer
from repro.buffers.write_buffer import WriteBuffer, Writeback
from repro.dimm.config import OptaneDimmConfig
from repro.media.xpoint import XPointMedia
from repro.sim.clock import Cycles
from repro.stats.counters import TelemetryCounters

#: Latency for the write buffer to accept one cacheline.
INGEST_LATENCY = 40.0
#: DDR-T burst transfer to the iMC after the media read completes.
TRANSFER_LATENCY = 30.0


class OptaneDimm:
    """One simulated Optane DCPMM module."""

    def __init__(
        self,
        config: OptaneDimmConfig,
        counters: TelemetryCounters,
        rng: DeterministicRng,
        name: str = "pm0",
    ) -> None:
        config.validate()
        self.config = config
        self.name = name
        self.counters = counters
        #: The machine's trace handle, installed by an ambient trace
        #: session (None ⇒ tracing off, see repro.trace.session).
        self.trace = None
        self.media = XPointMedia(config.ait, counters, name=f"{name}.media")
        self.read_buffer = ReadBuffer(config.read_buffer_bytes, name=f"{name}.rbuf")
        self.write_buffer = WriteBuffer(
            config.write_buffer_bytes,
            rng=rng,
            periodic_writeback=config.periodic_writeback,
            name=f"{name}.wbuf",
            eviction=config.write_buffer_eviction,
        )

    # -- read path ---------------------------------------------------------

    def read_line(self, now: Cycles, addr: int, demand: bool = True) -> tuple[Cycles, str]:
        """Serve one cacheline read arriving at the DIMM at ``now``.

        Returns ``(finish, source)``: when the data is back at the iMC
        and where it came from ("write-buffer", "write-buffer-fill",
        "read-buffer" or "media").
        """
        counters = self.counters
        counters.imc_read_bytes += CACHELINE_SIZE
        if demand:
            counters.demand_read_bytes += CACHELINE_SIZE
        write_buffer = self.write_buffer
        # poll returns nothing below the bound, so it is called only at it.
        if now >= write_buffer.due_bound:
            for writeback in write_buffer.poll(now):
                self._schedule_writeback(now, writeback)

        xpline = addr // XPLINE_SIZE
        slot = addr % XPLINE_SIZE // CACHELINE_SIZE
        trace = self.trace

        entry = write_buffer.entries.get(xpline)
        if entry is not None and entry.present_mask & (1 << slot):
            counters.read_buffer_hits += 1
            if trace is not None:
                trace.instant("wbuf", "read-hit", now, self.name, addr=addr)
            return now + self.config.buffer_read_latency, "write-buffer"

        if entry is not None:
            # The XPLine is buffered but this slot's data is not held:
            # one media read completes the entry (read-side RMW fill),
            # after which every slot is servable from the write buffer
            # — how reads "directly load data from the write buffer"
            # (§3.3) — and a later eviction needs no underfill.
            counters.read_buffer_misses += 1
            counters.underfill_reads += 1
            grant = self.media.read_xpline(now, addr)
            entry.present_mask = FULL_XPLINE_MASK
            if trace is not None:
                trace.instant("wbuf", "underfill-fill", now, self.name, addr=addr)
                trace.span("media", "read-xpline", now, grant.finish, self.name, addr=addr)
            return grant.finish + TRANSFER_LATENCY, "write-buffer-fill"

        # deliver misses without a change for an XPLine it does not hold.
        read_buffer = self.read_buffer
        if xpline in read_buffer.entries and read_buffer.deliver(xpline, slot):
            counters.read_buffer_hits += 1
            if trace is not None:
                trace.instant("rbuf", "hit", now, self.name, addr=addr)
            return now + self.config.buffer_read_latency, "read-buffer"

        counters.read_buffer_misses += 1
        grant = self.media.read_xpline(now, addr)
        read_buffer.install(xpline, (slot,))
        if trace is not None:
            trace.instant("rbuf", "miss", now, self.name, addr=addr)
            trace.span("media", "read-xpline", now, grant.finish, self.name, addr=addr)
        return grant.finish + TRANSFER_LATENCY, "media"

    # -- write path ----------------------------------------------------------

    def ingest_write(self, now: Cycles, addr: int) -> tuple[Cycles, Cycles]:
        """Ingest one cacheline write drained from the WPQ at ``now``.

        Returns ``(ingest_finish, persist_completion)``: when the DIMM
        accepted the line (its WPQ slot frees) and when the flush is
        complete on the DIMM (the read-after-persist gate).
        """
        counters = self.counters
        counters.imc_write_bytes += CACHELINE_SIZE
        xpline = addr // XPLINE_SIZE
        slot = addr % XPLINE_SIZE // CACHELINE_SIZE
        write_buffer = self.write_buffer
        if xpline in write_buffer.entries:
            writebacks = write_buffer.write(now, xpline, slot)
            counters.write_buffer_hits += 1
            event = "hit"
        elif self.config.enable_transition and xpline in self.read_buffer.entries:
            # §3.3: the XPLine transitions from the read buffer to the
            # write buffer; its media contents come along, so no
            # read-modify-write will be needed at eviction time.
            self.read_buffer.take(xpline)
            writebacks = write_buffer.adopt_from_read_buffer(now, xpline, slot)
            counters.write_buffer_misses += 1
            counters.rmw_avoided += 1
            event = "transition"
        else:
            writebacks = write_buffer.write(now, xpline, slot)
            counters.write_buffer_misses += 1
            event = "miss"
        if self.trace is not None:
            self.trace.instant("wbuf", event, now, self.name, addr=addr)

        ingest_finish = now + INGEST_LATENCY
        for writeback in writebacks:
            write_start = self._schedule_writeback(now, writeback)
            # Buffer space is not actually free until the write-back has
            # been issued to the media: when the write port is backlogged
            # the ingest waits — the back-pressure that bounds sustained
            # write bandwidth (of any pattern) to the media drain rate.
            ingest_finish = max(ingest_finish, write_start + INGEST_LATENCY)

        return ingest_finish, ingest_finish + self.config.persist_drain_latency

    def drain_for_power_failure(self, now: Cycles) -> int:
        """ADR drain: flush the whole write buffer to the media.

        Returns the number of XPLines written.  Used by crash-recovery
        tests to model the ADR guarantee that data accepted by the
        write buffer is durable.
        """
        writebacks = self.write_buffer.drain_all()
        for writeback in writebacks:
            self._schedule_writeback(now, writeback)
        return len(writebacks)

    # -- internals -------------------------------------------------------------

    def _schedule_writeback(self, now: Cycles, writeback: Writeback) -> Cycles:
        """Issue the media work for one write-back; returns write start time."""
        addr = writeback.xpline * XPLINE_SIZE
        if writeback.needs_underfill_read:
            self.counters.underfill_reads += 1
        grant = self.media.write_xpline(now, addr, rmw=writeback.needs_underfill_read)
        if writeback.reason in ("periodic", "rewrite"):
            self.counters.periodic_writebacks += 1
        else:
            self.counters.write_buffer_evictions += 1
        if self.trace is not None:
            self.trace.span("media", "write-xpline", grant.start, grant.finish, self.name,
                            reason=writeback.reason, rmw=writeback.needs_underfill_read)
        return grant.start

    def reset(self) -> None:
        """Clear all buffering and media state (counters untouched)."""
        self.read_buffer.clear()
        self.write_buffer.clear()
        self.media.reset()
