"""Telemetry counters — the simulator's equivalent of VTune ``ipmwatch``.

The paper's two primary metrics (Section 2.4) are defined over two
observation points:

* the **iMC boundary** — bytes the integrated memory controller
  requested from / issued to a DIMM (64-byte granularity), and
* the **media boundary** — bytes the DIMM actually moved to / from the
  3D-XPoint media (256-byte XPLine granularity).

``write amplification  = media_write_bytes / imc_write_bytes``
``read amplification   = media_read_bytes  / imc_read_bytes``

For the prefetching experiments (Figures 6 and 13) the paper also uses
*read ratios* against the program's demanded bytes, so we track demand
bytes separately from iMC traffic (the difference is CPU prefetches
and cache-hit absorption).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass
class TelemetryCounters:
    """Byte and event counters for one device (DIMM or DRAM channel).

    All counters are cumulative; use :meth:`snapshot` + :meth:`delta`
    (or :meth:`TelemetryRegistry.measure`) to measure a region of
    interest, exactly like sampling ``ipmwatch`` before/after a
    benchmark loop.
    """

    #: Bytes of read requests the iMC issued to this device.
    imc_read_bytes: int = 0
    #: Bytes of write requests the iMC issued to this device.
    imc_write_bytes: int = 0
    #: Bytes physically read from the storage media.
    media_read_bytes: int = 0
    #: Bytes physically written to the storage media.
    media_write_bytes: int = 0
    #: Bytes the *program* demanded via loads that reached this device's
    #: address range (cache hits excluded — this is demand that missed).
    demand_read_bytes: int = 0
    #: Bytes the program demanded via stores destined for this device.
    demand_write_bytes: int = 0

    # Event counters used by the buffer-behaviour experiments.
    read_buffer_hits: int = 0
    read_buffer_misses: int = 0
    write_buffer_hits: int = 0
    write_buffer_misses: int = 0
    write_buffer_evictions: int = 0
    periodic_writebacks: int = 0
    ait_hits: int = 0
    ait_misses: int = 0
    rmw_avoided: int = 0  # read-modify-writes skipped via buffer transition
    underfill_reads: int = 0  # media reads needed to fill partial evictions

    def snapshot(self) -> "TelemetryCounters":
        """Return a copy of the current counter values."""
        return TelemetryCounters(**vars(self))

    def delta(self, earlier: "TelemetryCounters") -> "TelemetryDelta":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return TelemetryDelta(
            **{name: getattr(self, name) - getattr(earlier, name) for name in vars(self)}
        )

    def reset(self) -> None:
        """Zero every counter in place."""
        for name in vars(self):
            setattr(self, name, 0)


@dataclass
class TelemetryDelta(TelemetryCounters):
    """Difference between two :class:`TelemetryCounters` snapshots.

    Carries the same counter fields (declared once, on
    :class:`TelemetryCounters`) and adds the paper's derived metrics.
    Ratios over a zero denominator return 0.0 rather than raising: a
    benchmark region that issued no reads simply has no read
    amplification to speak of.
    """

    @staticmethod
    def _ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    @property
    def read_amplification(self) -> float:
        """media reads / iMC reads (paper Section 2.4)."""
        return self._ratio(self.media_read_bytes, self.imc_read_bytes)

    @property
    def write_amplification(self) -> float:
        """media writes / iMC writes (paper Section 2.4)."""
        return self._ratio(self.media_write_bytes, self.imc_write_bytes)

    @property
    def pm_read_ratio(self) -> float:
        """media reads / program-demanded reads (Figures 6 and 13)."""
        return self._ratio(self.media_read_bytes, self.demand_read_bytes)

    @property
    def imc_read_ratio(self) -> float:
        """iMC reads / program-demanded reads (Figures 6 and 13)."""
        return self._ratio(self.imc_read_bytes, self.demand_read_bytes)

    @property
    def write_buffer_hit_ratio(self) -> float:
        """Fraction of iMC writes absorbed by the write buffer (Figure 4)."""
        total = self.write_buffer_hits + self.write_buffer_misses
        return self._ratio(self.write_buffer_hits, total)

    @property
    def read_buffer_hit_ratio(self) -> float:
        """Fraction of DIMM reads served from the on-DIMM read buffer."""
        total = self.read_buffer_hits + self.read_buffer_misses
        return self._ratio(self.read_buffer_hits, total)


class TelemetryRegistry:
    """Named collection of counters for every device in a machine.

    The machine builds one registry; experiments fetch counters by
    device name (e.g. ``"pm0"``, ``"dram"``) and also get an aggregate
    view across a group of interleaved DIMMs.
    """

    def __init__(self) -> None:
        self._counters: dict[str, TelemetryCounters] = {}

    def register(self, name: str) -> TelemetryCounters:
        """Create (or return the existing) counters for ``name``."""
        if name not in self._counters:
            self._counters[name] = TelemetryCounters()
        return self._counters[name]

    def get(self, name: str) -> TelemetryCounters:
        """Return the counters for ``name`` (KeyError if unknown)."""
        return self._counters[name]

    def names(self) -> list[str]:
        """All registered device names, sorted."""
        return sorted(self._counters)

    def aggregate(self, prefix: str = "") -> TelemetryCounters:
        """Sum counters over all devices whose name starts with ``prefix``."""
        total = TelemetryCounters()
        for name, counters in self._counters.items():
            if name.startswith(prefix):
                for attr in vars(total):
                    setattr(total, attr, getattr(total, attr) + getattr(counters, attr))
        return total

    def reset(self) -> None:
        """Zero every registered counter."""
        for counters in self._counters.values():
            counters.reset()

    @contextmanager
    def measure(self, prefix: str = "") -> "Iterator[TelemetryDelta]":
        """Measure counters accumulated across a ``with`` body.

        Yields a :class:`TelemetryDelta` over the aggregate of every
        device whose name starts with ``prefix``; its fields are zero
        inside the body and are filled in when it exits (even on an
        exception) — the snapshot/delta idiom as one construct::

            with machine.registry.measure("pm0") as delta:
                run_benchmark(core)
            print(delta.write_amplification)

        The aggregate is recomputed at exit, because :meth:`aggregate`
        returns a detached sum that does not follow later updates.
        """
        before = self.aggregate(prefix)
        delta = TelemetryDelta()
        try:
            yield delta
        finally:
            result = self.aggregate(prefix).delta(before)
            for name in vars(result):
                setattr(delta, name, getattr(result, name))
