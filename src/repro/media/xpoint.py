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

from dataclasses import dataclass, field

from repro.common.constants import XPLINE_SIZE
from repro.common.errors import ConfigError
from repro.media.ait import AitCache, AitConfig
from repro.sim.clock import Cycles
from repro.sim.ports import ServiceGrant, ServicePorts
from repro.stats.counters import TelemetryCounters


@dataclass(frozen=True)
class XPointConfig:
    """Latency/concurrency parameters of the 3D-XPoint media."""

    #: Service time of one XPLine read from the media, in cycles.
    read_latency: float = 600.0
    #: Service time of one XPLine write to the media, in cycles.
    #: One write port at this service time caps the per-DIMM media
    #: write drain — the plateau of Figure 8 and the write-scaling
    #: ceiling of Section 2.2 both fall out of this number.
    write_latency: float = 180.0
    #: Service-time multiplier for read-modify-write of a partially
    #: dirty XPLine (the underfill read happens inside the media
    #: pipeline, not on the external read ports).
    rmw_factor: float = 1.5
    #: Concurrent media reads a DIMM can sustain.
    read_ports: int = 4
    #: Concurrent media writes a DIMM can sustain (the scarce resource).
    write_ports: int = 1
    #: AIT cache parameters.
    ait: AitConfig = field(default_factory=AitConfig)

    def validate(self) -> None:
        """Raise ConfigError on non-positive latencies or ports."""
        if self.read_latency <= 0 or self.write_latency <= 0:
            raise ConfigError("media latencies must be positive")
        if self.read_ports <= 0 or self.write_ports <= 0:
            raise ConfigError("media port counts must be positive")
        self.ait.validate()


class XPointMedia:
    """One DIMM's physical media with its AIT cache and telemetry."""

    def __init__(self, config: XPointConfig, counters: TelemetryCounters, name: str = "xpoint") -> None:
        config.validate()
        self.config = config
        self.name = name
        self.counters = counters
        # The AIT is the DIMM's, beside its media: pm0.media -> pm0.ait.
        self.ait = AitCache(config.ait, counters, name=f"{name.removesuffix('.media')}.ait")
        self.read_ports = ServicePorts(config.read_ports, f"{name}.read")
        self.write_ports = ServicePorts(config.write_ports, f"{name}.write")

    def read_xpline(self, now: Cycles, addr: int) -> ServiceGrant:
        """Read the XPLine containing ``addr``; returns the service grant.

        The caller (the DIMM front-end) decides whether the requester
        blocks until ``grant.finish`` (demand read) or not (prefetch).
        """
        penalty = self.ait.lookup_penalty(addr, now=now)
        grant = self.read_ports.acquire(now, self.config.read_latency + penalty)
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
        penalty = self.ait.lookup_penalty(addr, now=now)
        service = self.config.write_latency
        if rmw:
            service *= self.config.rmw_factor
            self.counters.media_read_bytes += XPLINE_SIZE
        grant = self.write_ports.acquire(now, service + penalty)
        self.counters.media_write_bytes += XPLINE_SIZE
        return grant

    def reset(self) -> None:
        """Clear port state and the AIT cache (counters are left alone)."""
        self.read_ports.reset()
        self.write_ports.reset()
        self.ait.reset()
