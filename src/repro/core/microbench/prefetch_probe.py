"""On-DIMM prefetch interaction probe (paper Section 3.4, Figure 6).

The benchmark accesses uniformly random 256-byte blocks (aligned to
XPLines, so there is no intrinsic read amplification).  Within each
block all four cachelines are read sequentially ``repeats`` times —
enough sequentiality to trigger every CPU prefetcher — and the block is
then flushed from the CPU caches so its next visit must reach the DIMM
again.

Two read ratios are reported against the *program-demanded* bytes
(4 lines × 64 B per block visit):

* ``pm_read_ratio``   — bytes loaded from the 3D-XPoint media,
* ``imc_read_ratio``  — bytes the iMC loaded from the DIMM.

The same kernel, with ``redirect=True``, implements the paper's
Algorithm 2 optimization (Figure 13): the block is copied to a DRAM
staging buffer with SIMD streaming loads (which neither trigger
prefetching nor fill the caches) and the repeated accesses hit the
DRAM buffer instead.  Figure 14 drives the same two block visitors,
:func:`visit_block` and :func:`visit_block_redirected`, from several
interleaved threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.constants import CACHELINE_SIZE, CACHELINES_PER_XPLINE, XPLINE_SIZE
from repro.common.rng import DeterministicRng
from repro.core.redirection import RedirectionBuffer, redirect_block
from repro.system.machine import Core, Machine


@dataclass(frozen=True)
class PrefetchProbeResult:
    """Read ratios for one (machine config, WSS) point."""

    wss: int
    demanded_bytes: int
    pm_read_ratio: float
    imc_read_ratio: float
    visits: int


def visit_block(core: Core, block_base: int, repeats: int) -> None:
    """Baseline visit: read the block's 4 cachelines ``repeats`` times, then flush.

    The sequential reads train the CPU prefetchers; the clflushopt +
    sfence afterwards makes the block's next visit reach the DIMM.
    """
    for _ in range(repeats):
        for slot in range(CACHELINES_PER_XPLINE):
            core.load(block_base + slot * CACHELINE_SIZE, 8)
    for slot in range(CACHELINES_PER_XPLINE):
        core.clflushopt(block_base + slot * CACHELINE_SIZE)
    core.sfence()


def visit_block_redirected(core: Core, block_base: int, staging: int, repeats: int) -> None:
    """Algorithm 2 visit: stream-copy the XPLine to DRAM at ``staging``, then work there.

    The copy is :func:`~repro.core.redirection.redirect_block`; the
    ``repeats`` passes of reads then hit the DRAM staging lines, so no
    prefetcher is trained on the PM block.
    """
    redirect_block(core, block_base, RedirectionBuffer(staging))
    for _ in range(repeats):
        for slot in range(CACHELINES_PER_XPLINE):
            core.load(staging + slot * CACHELINE_SIZE, 8)


def run_prefetch_probe(
    machine: Machine,
    wss: int,
    visits: int = 20_000,
    repeats: int = 16,
    redirect: bool = False,
) -> PrefetchProbeResult:
    """Run the Figure 6 / Figure 13 kernel on an existing machine.

    ``visits`` random block visits are performed on the ``pm`` region;
    the first quarter of them warm the caches and buffers before
    counters are sampled.
    """
    core = machine.new_core()
    base = machine.region_spec("pm").base
    n_blocks = max(1, wss // XPLINE_SIZE)
    rng = DeterministicRng(machine.config.seed).fork(17)
    staging = machine.region_spec("dram").base  # one XPLine of DRAM scratch

    def visit() -> None:
        block = base + rng.choice_index(n_blocks) * XPLINE_SIZE
        if redirect:
            visit_block_redirected(core, block, staging, repeats)
        else:
            visit_block(core, block, repeats)

    warmup = visits // 4
    for _ in range(warmup):
        visit()

    snapshot = machine.counters("pm").snapshot()
    measured = visits - warmup
    for _ in range(measured):
        visit()
    delta = machine.counters("pm").delta(snapshot)

    demanded = measured * XPLINE_SIZE  # 4 × 64 B of unique data per visit
    return PrefetchProbeResult(
        wss=wss,
        demanded_bytes=demanded,
        pm_read_ratio=delta.media_read_bytes / demanded if demanded else 0.0,
        imc_read_ratio=delta.imc_read_bytes / demanded if demanded else 0.0,
        visits=measured,
    )
