"""Read/write buffer separation probes (paper Section 3.3, Figure 5).

Two kernels establish that the read and write buffers are *separate*
spaces and that XPLines can *transition* between them:

* :func:`run_separation_probe` — interleaves reads over a 16 KB region
  with nt-store writes over a disjoint 8 KB region.  If the buffers
  were one shared 16 KB space, the 24 KB aggregate would thrash it;
  because they are separate, the probe sees RA = 1 and zero media
  writes, identical to running the two halves alone.
* :func:`run_transition_probe` — nt-stores the first cacheline of each
  XPLine, then reads the remaining three (flushing them from the CPU
  cache).  The write hits the write buffer path while the reads are
  served without re-reading the media for every line; a write landing
  on a read-buffered XPLine adopts it (``rmw_avoided``), skipping the
  read-modify-write.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import CACHELINE_SIZE, XPLINE_SIZE
from repro.common.units import kib
from repro.system.machine import Machine
from repro.system.presets import machine_for


@dataclass(frozen=True)
class SeparationResult:
    """Interleaved read/write vs the isolated baselines."""

    interleaved_read_amplification: float
    interleaved_media_write_bytes: int
    baseline_read_amplification: float
    baseline_media_write_bytes: int

    @property
    def buffers_are_separate(self) -> bool:
        """True when interleaving behaves like the isolated baselines."""
        return (
            abs(self.interleaved_read_amplification - self.baseline_read_amplification) < 0.05
            and self.interleaved_media_write_bytes == self.baseline_media_write_bytes
        )


def _read_region(core, base: int, size: int) -> None:
    for offset in range(0, size, CACHELINE_SIZE):
        core.load(base + offset, 8)
        core.clflushopt(base + offset)


def _write_region(core, base: int, size: int) -> None:
    # Partial (one-line-per-XPLine) writes: fully-written XPLines would
    # trigger G1's periodic write-back and put media writes into the
    # measurement, which is not what the separation question is about.
    for offset in range(0, size, XPLINE_SIZE):
        core.nt_store(base + offset, CACHELINE_SIZE)


def run_separation_probe(
    generation: int,
    read_bytes: int = kib(16),
    write_bytes: int = kib(8),
    passes: int = 6,
) -> SeparationResult:
    """Section 3.3 separation experiment on a fresh machine."""
    # Interleaved: alternate one read-region line and one write-region line.
    machine = machine_for(generation, prefetchers=PrefetcherConfig.none())
    core = machine.new_core()
    read_base = machine.region_spec("pm").base
    write_base = read_base + kib(64)  # disjoint, same DIMM
    snapshot = machine.counters("pm").snapshot()
    read_lines = read_bytes // CACHELINE_SIZE
    write_xplines = write_bytes // XPLINE_SIZE
    for _ in range(passes):
        for index in range(max(read_lines, write_xplines)):
            if index < read_lines:
                addr = read_base + index * CACHELINE_SIZE
                core.load(addr, 8)
                core.clflushopt(addr)
            if index < write_xplines:
                core.nt_store(write_base + index * XPLINE_SIZE, CACHELINE_SIZE)
    interleaved = machine.counters("pm").delta(snapshot)

    # Baselines: the same traffic, regions accessed separately.
    machine = machine_for(generation, prefetchers=PrefetcherConfig.none())
    core = machine.new_core()
    read_base = machine.region_spec("pm").base
    write_base = read_base + kib(64)
    snapshot = machine.counters("pm").snapshot()
    for _ in range(passes):
        _read_region(core, read_base, read_bytes)
    for _ in range(passes):
        _write_region(core, write_base, write_bytes)
    baseline = machine.counters("pm").delta(snapshot)

    return SeparationResult(
        interleaved_read_amplification=interleaved.read_amplification,
        interleaved_media_write_bytes=interleaved.media_write_bytes,
        baseline_read_amplification=baseline.read_amplification,
        baseline_media_write_bytes=baseline.media_write_bytes,
    )


@dataclass(frozen=True)
class TransitionResult:
    """Write-then-read-same-XPLine experiment."""

    media_read_bytes: int
    media_write_bytes: int
    imc_read_bytes: int
    imc_write_bytes: int
    rmw_avoided: int

    @property
    def media_traffic_fraction(self) -> float:
        """Media bytes moved per iMC byte moved (≪ 1 ⇒ buffers work)."""
        imc_total = self.imc_read_bytes + self.imc_write_bytes
        if imc_total == 0:
            return 0.0
        return (self.media_read_bytes + self.media_write_bytes) / imc_total


def run_transition_probe(
    machine: Machine,
    wss: int = kib(8),
    passes: int = 4,
    write_first: bool = True,
) -> TransitionResult:
    """Section 3.3 transition experiment on ``machine`` (fresh, prefetchers off).

    ``write_first=True`` reproduces the paper's ordering (one nt-store
    to the first cacheline of each XPLine followed by three reads);
    ``False`` reads first, making the subsequent write land on a
    read-buffered XPLine and exercising the adoption path.
    """
    core = machine.new_core()
    base = machine.region_spec("pm").base
    n_xplines = wss // XPLINE_SIZE
    snapshot = machine.counters("pm").snapshot()
    for _ in range(passes):
        for index in range(n_xplines):
            xpline_base = base + index * XPLINE_SIZE
            if write_first:
                core.nt_store(xpline_base, CACHELINE_SIZE)
            for slot in (1, 2, 3):
                addr = xpline_base + slot * CACHELINE_SIZE
                core.load(addr, 8)
                core.clflushopt(addr)
            if not write_first:
                core.nt_store(xpline_base, CACHELINE_SIZE)
    delta = machine.counters("pm").delta(snapshot)
    return TransitionResult(
        media_read_bytes=delta.media_read_bytes,
        media_write_bytes=delta.media_write_bytes,
        imc_read_bytes=delta.imc_read_bytes,
        imc_write_bytes=delta.imc_write_bytes,
        rmw_avoided=delta.rmw_avoided,
    )
