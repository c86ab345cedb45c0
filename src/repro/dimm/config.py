"""Configuration of Optane and DRAM DIMM front-ends, with G1/G2 presets.

The presets encode the generational differences the paper measured:

==============================  ==============  ==============
Property                        G1 (100-series) G2 (200-series)
==============================  ==============  ==============
Read buffer                     16 KB           22 KB
Write-combining buffer          12 KB           16 KB
Periodic full-line write-back   yes (~5000 cyc) no
On-DIMM buffer hit latency      lower           higher (§3.5)
clwb semantics (CPU side)       invalidate      retain
==============================  ==============  ==============
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError
from repro.common.units import kib
from repro.media.dram import DramConfig
from repro.media.xpoint import XPointConfig


@dataclass(frozen=True)
class OptaneDimmConfig:
    """Everything needed to instantiate one Optane DIMM front-end."""

    generation: int = 1
    read_buffer_bytes: int = kib(16)
    write_buffer_bytes: int = kib(12)
    #: Latency of serving a 64 B read from an on-DIMM buffer.
    buffer_read_latency: float = 120.0
    #: Latency for the write buffer to accept one cacheline.
    ingest_latency: float = 40.0
    #: DDR-T burst transfer to the iMC after the media read completes.
    transfer_latency: float = 30.0
    #: G1 flushes fully-dirty XPLines every ~5000 cycles (§3.2).
    periodic_writeback: bool = True
    writeback_period: float = 5000.0
    #: Write-buffer eviction policy — the hardware value is "random"
    #: (§3.2); "fifo" exists for ablation studies.
    write_buffer_eviction: str = "random"
    #: Whether writes adopt read-buffered XPLines (§3.3); ablation knob.
    enable_transition: bool = True
    #: Cycles from WPQ ingest until a flush is *complete* on the DIMM —
    #: the read-after-persist window of Section 3.5.
    persist_drain_latency: float = 2100.0
    media: XPointConfig = field(default_factory=XPointConfig)

    def validate(self) -> None:
        """Raise ConfigError on any inconsistent field."""
        if self.generation not in (1, 2):
            raise ConfigError(f"unknown Optane generation {self.generation}")
        if self.read_buffer_bytes <= 0 or self.write_buffer_bytes <= 0:
            raise ConfigError("buffer sizes must be positive")
        for attr in ("buffer_read_latency", "ingest_latency", "transfer_latency"):
            if getattr(self, attr) < 0:
                raise ConfigError(f"{attr} cannot be negative")
        if self.write_buffer_eviction not in ("random", "fifo"):
            raise ConfigError(f"unknown write buffer eviction {self.write_buffer_eviction!r}")
        if self.persist_drain_latency < 0:
            raise ConfigError("persist_drain_latency cannot be negative")
        self.media.validate()

    @staticmethod
    def g1(**overrides) -> "OptaneDimmConfig":
        """1st-generation (100-series) Optane DCPMM."""
        return replace(OptaneDimmConfig(), **overrides)

    @staticmethod
    def g2(**overrides) -> "OptaneDimmConfig":
        """2nd-generation (200-series) Optane DCPMM.

        Larger buffers, no periodic full-line write-back, and a higher
        buffer-hit latency (the paper attributes the latter to the cost
        of cache-coherence maintenance on the new platform).
        """
        base = OptaneDimmConfig(
            generation=2,
            read_buffer_bytes=kib(22),
            write_buffer_bytes=kib(16),
            buffer_read_latency=180.0,
            periodic_writeback=False,
            persist_drain_latency=1900.0,
        )
        return replace(base, **overrides)


@dataclass(frozen=True)
class DramDimmConfig:
    """Configuration of a DRAM channel front-end."""

    #: Cycles for the iMC to accept one store into the WPQ.
    ingest_latency: float = 30.0
    #: Flush-completion lag: small for DRAM, giving the paper's ~2x
    #: (rather than ~10x) read-after-persist gap on DRAM (Figure 7).
    persist_drain_latency: float = 420.0
    media: DramConfig = field(default_factory=DramConfig)

    def validate(self) -> None:
        """Raise ConfigError on negative latencies."""
        if self.ingest_latency < 0 or self.persist_drain_latency < 0:
            raise ConfigError("DRAM DIMM latencies cannot be negative")
        self.media.validate()
