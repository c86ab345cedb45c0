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
from repro.media.ait import AitConfig


@dataclass(frozen=True)
class OptaneDimmConfig:
    """Everything needed to instantiate one Optane DIMM front-end."""

    read_buffer_bytes: int = kib(16)
    write_buffer_bytes: int = kib(12)
    #: Latency of serving a 64 B read from an on-DIMM buffer.
    buffer_read_latency: float = 120.0
    #: G1 flushes fully-dirty XPLines every ~5000 cycles (§3.2).
    periodic_writeback: bool = True
    #: Write-buffer eviction policy — the hardware value is "random"
    #: (§3.2); "fifo" exists for ablation studies.
    write_buffer_eviction: str = "random"
    #: Whether writes adopt read-buffered XPLines (§3.3); ablation knob.
    enable_transition: bool = True
    #: Cycles from WPQ ingest until a flush is *complete* on the DIMM —
    #: the read-after-persist window of Section 3.5.
    persist_drain_latency: float = 2100.0
    #: The on-DIMM AIT cache in front of the 3D-XPoint media.
    ait: AitConfig = field(default_factory=AitConfig)

    def validate(self) -> None:
        """Raise ConfigError on any inconsistent field."""
        if self.read_buffer_bytes <= 0 or self.write_buffer_bytes <= 0:
            raise ConfigError("buffer sizes must be positive")
        if self.buffer_read_latency < 0:
            raise ConfigError("buffer_read_latency cannot be negative")
        if self.write_buffer_eviction not in ("random", "fifo"):
            raise ConfigError(f"unknown write buffer eviction {self.write_buffer_eviction!r}")
        if self.persist_drain_latency < 0:
            raise ConfigError("persist_drain_latency cannot be negative")
        self.ait.validate()

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
            read_buffer_bytes=kib(22),
            write_buffer_bytes=kib(16),
            buffer_read_latency=180.0,
            periodic_writeback=False,
            persist_drain_latency=1900.0,
        )
        return replace(base, **overrides)


@dataclass(frozen=True)
class DramDimmConfig:
    """Latencies and persist drain of a DRAM channel (:mod:`repro.dimm.dram`)."""

    #: Service time of one cacheline read, in cycles.
    read_latency: float = 150.0
    #: Service time of one cacheline write, in cycles.
    write_latency: float = 150.0
    #: Flush-completion lag: small for DRAM, giving the paper's ~2x
    #: (rather than ~10x) read-after-persist gap on DRAM (Figure 7).
    persist_drain_latency: float = 420.0

    def validate(self) -> None:
        """Raise ConfigError on non-positive or negative latencies."""
        if self.read_latency <= 0 or self.write_latency <= 0:
            raise ConfigError("DRAM latencies must be positive")
        if self.persist_drain_latency < 0:
            raise ConfigError("DRAM persist_drain_latency cannot be negative")
