"""DRAM DIMM: the baseline device the paper compares against.

DRAM differs from the Optane media in every way that matters here:
64-byte access granularity (no amplification), symmetric and much
lower latency, ample concurrency and no on-DIMM buffering.  Persists
to DRAM (the paper's Figure 7 DRAM curves) complete quickly because
there is no slow media behind the write pending queue.  The device
exists so the iMC can treat both device types uniformly and so the
DRAM-baseline experiments (Figure 7 b/d/f/h, Figure 10 c/d) run
through the same code path.
"""

from __future__ import annotations

from repro.common.constants import CACHELINE_SIZE
from repro.dimm.config import DramDimmConfig
from repro.sim.clock import Cycles
from repro.sim.ports import ServicePorts
from repro.stats.counters import TelemetryCounters

#: Concurrent reads a channel sustains (banks × channels, folded).
READ_PORTS = 10
#: Concurrent writes a channel sustains.
WRITE_PORTS = 10
#: Cycles for the iMC to accept one store into the WPQ.
INGEST_LATENCY = 30.0


class DramDimm:
    """One simulated DRAM channel.

    Media and iMC byte counts coincide for DRAM (64 B granularity both
    sides), so amplification metrics evaluate to 1 by construction.
    """

    def __init__(self, config: DramDimmConfig, counters: TelemetryCounters, name: str = "dram0") -> None:
        config.validate()
        self.config = config
        self.name = name
        self.counters = counters
        self.read_ports = ServicePorts(READ_PORTS, f"{name}.read")
        self.write_ports = ServicePorts(WRITE_PORTS, f"{name}.write")

    def read_line(self, now: Cycles, addr: int, demand: bool = True) -> tuple[Cycles, str]:
        """Serve one cacheline read (synchronous): ``(finish, "media")``."""
        self.counters.imc_read_bytes += CACHELINE_SIZE
        if demand:
            self.counters.demand_read_bytes += CACHELINE_SIZE
        grant = self.read_ports.acquire(now, self.config.read_latency)
        self.counters.media_read_bytes += CACHELINE_SIZE
        return grant.finish, "media"

    def ingest_write(self, now: Cycles, addr: int) -> tuple[Cycles, Cycles]:
        """Ingest one cacheline write drained from the WPQ.

        Returns ``(ingest_finish, persist_completion)`` as
        :meth:`repro.dimm.optane.OptaneDimm.ingest_write` does.
        """
        self.counters.imc_write_bytes += CACHELINE_SIZE
        grant = self.write_ports.acquire(now, self.config.write_latency)
        self.counters.media_write_bytes += CACHELINE_SIZE
        ingest_finish = now + INGEST_LATENCY
        return ingest_finish, max(grant.finish, ingest_finish) + self.config.persist_drain_latency

    def reset(self) -> None:
        """Clear port state (counters are left alone)."""
        self.read_ports.reset()
        self.write_ports.reset()
