"""Read-after-persist latency probe (paper Section 3.5, Algorithm 1).

The kernel is a line-for-line transcription of the paper's Algorithm 1:
walk a small (4 KB) region cacheline by cacheline; at each step persist
the current line (store+clwb or nt-store, then a fence) and immediately
load the line ``distance`` cachelines *behind* the persist cursor.  The
average per-iteration latency as a function of distance exposes how
long flushes remain incomplete after the fence returned.
"""

from __future__ import annotations

from repro.common.constants import CACHELINE_SIZE
from repro.common.units import kib
from repro.persist.persistency import FenceKind, FlushKind
from repro.system.machine import Machine


def run_rap_iterations(
    machine: Machine,
    region: str,
    flush: FlushKind,
    fence: FenceKind,
    distance: int,
    wss: int = kib(4),
    passes: int = 40,
) -> float:
    """Algorithm 1 at one distance; returns avg cycles per iteration."""
    core = machine.new_core()
    base = machine.region_spec(region).base
    n_lines = wss // CACHELINE_SIZE
    # (persisted line, line read back) of each step of one pass.
    steps = [
        (base + offset * CACHELINE_SIZE,
         base + (offset + n_lines - distance) % n_lines * CACHELINE_SIZE)
        for offset in range(n_lines)
    ]
    store, load, nt_store = core.store, core.load, core.nt_store
    flush_line = core.clwb if flush is FlushKind.CLWB else core.clflushopt
    fence_op = {FenceKind.SFENCE: core.sfence, FenceKind.MFENCE: core.mfence}[fence]
    nt = flush is FlushKind.NT_STORE
    start = core.now
    for _ in range(passes):
        for addr, read_addr in steps:
            if nt:
                nt_store(addr, CACHELINE_SIZE)
            else:
                store(addr, 8)
                flush_line(addr)
            fence_op()
            load(read_addr, 8)
    return (core.now - start) / (passes * n_lines)


#: The eight panels of Figure 7: (region, [(flush, fence), ...]).
FIGURE7_PANELS: tuple[tuple[str, tuple[tuple[FlushKind, FenceKind], ...]], ...] = (
    (
        "pm",
        (
            (FlushKind.CLWB, FenceKind.MFENCE),
            (FlushKind.CLWB, FenceKind.SFENCE),
            (FlushKind.NT_STORE, FenceKind.MFENCE),
        ),
    ),
    (
        "dram",
        (
            (FlushKind.CLWB, FenceKind.MFENCE),
            (FlushKind.CLWB, FenceKind.SFENCE),
        ),
    ),
    (
        "pm_remote",
        (
            (FlushKind.CLWB, FenceKind.MFENCE),
            (FlushKind.CLWB, FenceKind.SFENCE),
            (FlushKind.NT_STORE, FenceKind.MFENCE),
        ),
    ),
    (
        "dram_remote",
        (
            (FlushKind.CLWB, FenceKind.MFENCE),
            (FlushKind.CLWB, FenceKind.SFENCE),
        ),
    ),
)
