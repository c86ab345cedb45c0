"""Read-buffer probe: strided reads with per-XPLine cacheline counts.

Reproduces the paper's Section 3.1 benchmark (Figure 1 pattern,
Figure 2 results): read CpX cachelines from every XPLine of a region,
one pass per cacheline slot, invalidating each line with clflushopt
right after the read so every access is served by the DIMM.  Read
amplification then reveals the read buffer's capacity (where RA jumps
to 4) and its exclusivity (RA never below 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.system.machine import Machine
from repro.workloads.patterns import strided_read_addresses


@dataclass(frozen=True)
class StridedReadResult:
    """One (WSS, CpX) measurement."""

    wss: int
    cachelines_per_xpline: int
    read_amplification: float
    buffer_hit_ratio: float


def run_strided_read(
    machine: Machine,
    wss: int,
    cachelines_per_xpline: int,
    cycles_over_region: int = 6,
    region: str = "pm",
) -> StridedReadResult:
    """Run the strided-read kernel on an existing machine.

    ``cycles_over_region`` repeats the full CpX-pass pattern to reach
    steady state; the first cycle warms the buffer and is included
    (its effect washes out, matching the paper's long-running loops).
    """
    core = machine.new_core()
    addrs = strided_read_addresses(machine.region_spec(region).base, wss, cachelines_per_xpline)
    load, clflushopt = core.load, core.clflushopt
    snapshot = machine.counters(region).snapshot()
    for _ in range(cycles_over_region):
        for addr in addrs:
            load(addr, 8)
            clflushopt(addr)
    delta = machine.counters(region).delta(snapshot)
    return StridedReadResult(
        wss=wss,
        cachelines_per_xpline=cachelines_per_xpline,
        read_amplification=delta.read_amplification,
        buffer_hit_ratio=delta.read_buffer_hit_ratio,
    )
