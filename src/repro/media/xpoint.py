"""3D-XPoint media model.

The physical media behind an Optane DIMM:

* every access moves a whole 256-byte XPLine;
* reads are long-latency but enjoy some parallelism (several
  concurrent media reads per DIMM);
* writes are longer still and have very limited concurrency — the
  paper (Section 2.2) notes write bandwidth is ~1/3 of read bandwidth
  and does not scale beyond a small thread count.

Contention is expressed through :class:`~repro.sim.ports.ServicePorts`;
the AIT cache charges translation misses on every media access.
"""

from __future__ import annotations

from repro.common.constants import XPLINE_SIZE
from repro.media.ait import AitCache, AitConfig
from repro.sim.clock import Cycles
from repro.sim.ports import ServiceGrant, ServicePorts
from repro.stats.counters import TelemetryCounters


#: Service time of one XPLine read from the media, in cycles.
READ_LATENCY = 600.0
#: Service time of one XPLine write to the media, in cycles.  One
#: write port at this service time caps the per-DIMM media write
#: drain: the plateau of Figure 8 and the write-scaling ceiling of
#: Section 2.2 both fall out of this number.
WRITE_LATENCY = 180.0
#: Service-time multiplier for read-modify-write of a partially dirty
#: XPLine (the underfill read happens inside the media pipeline, not
#: on the external read ports).
RMW_FACTOR = 1.5
#: Concurrent media reads a DIMM can sustain.
READ_PORTS = 4
#: Concurrent media writes a DIMM can sustain (the scarce resource).
WRITE_PORTS = 1


class XPointMedia:
    """One DIMM's physical media with its AIT cache and telemetry."""

    def __init__(self, ait: AitConfig, counters: TelemetryCounters, name: str = "xpoint") -> None:
        self.name = name
        self.counters = counters
        # The AIT is the DIMM's, beside its media: pm0.media -> pm0.ait.
        self.ait = AitCache(ait, counters, name=f"{name.removesuffix('.media')}.ait")
        self.read_ports = ServicePorts(READ_PORTS, f"{name}.read")
        self.write_ports = ServicePorts(WRITE_PORTS, f"{name}.write")

    def read_xpline(self, now: Cycles, addr: int) -> ServiceGrant:
        """Read the XPLine containing ``addr``; returns the service grant.

        The caller (the DIMM front-end) decides whether the requester
        blocks until ``grant.finish`` (demand read) or not (prefetch).
        """
        penalty = self.ait.lookup_penalty(addr, now)
        grant = self.read_ports.acquire(now, READ_LATENCY + penalty)
        self.counters.media_read_bytes += XPLINE_SIZE
        return grant

    def write_xpline(self, now: Cycles, addr: int, rmw: bool = False) -> ServiceGrant:
        """Write the XPLine containing ``addr``; returns the service grant.

        Writes are asynchronous from the CPU's point of view: the DIMM
        front-end uses ``grant.start`` for back-pressure and
        ``grant.finish`` only for persist-completion accounting.

        ``rmw=True`` models the write-back of a partially dirty XPLine:
        the media internally reads the line to fill the untouched bytes
        (longer service, and the read bytes show up in telemetry), but
        no external read port is consumed.
        """
        penalty = self.ait.lookup_penalty(addr, now)
        service = WRITE_LATENCY
        if rmw:
            service *= RMW_FACTOR
            self.counters.media_read_bytes += XPLINE_SIZE
        grant = self.write_ports.acquire(now, service + penalty)
        self.counters.media_write_bytes += XPLINE_SIZE
        return grant

    def reset(self) -> None:
        """Clear port state and the AIT cache (counters are left alone)."""
        self.read_ports.reset()
        self.write_ports.reset()
        self.ait.reset()
