"""Write-buffer probes: amplification and hit ratio (Figures 3 and 4).

Two kernels:

* :func:`run_write_amplification` — the Figure 3 benchmark: nt-store
  the first k of 4 cachelines of every XPLine (k/4 = 25..100 %),
  sweeping the working set.  Reveals the buffer capacity (WA leaves 0)
  and G1's periodic write-back of fully-dirty lines (100 % writes have
  WA ≈ 1 at any WSS).
* :func:`run_write_hit_ratio` — the Figure 4 benchmark: uniformly
  random single-cacheline nt-stores; the buffer hit ratio's graceful
  decay past capacity is the signature of random eviction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.constants import XPLINE_SIZE
from repro.common.rng import DeterministicRng
from repro.system.machine import Machine
from repro.workloads.patterns import partial_write_addresses, random_block_sequence


@dataclass(frozen=True)
class WriteAmplificationResult:
    """One (WSS, write fraction) measurement."""

    wss: int
    written_cachelines: int
    write_amplification: float
    theoretical_max: float


def run_write_amplification(
    machine: Machine,
    wss: int,
    written_cachelines: int,
    passes: int = 8,
    random_across_xplines: bool = False,
    region: str = "pm",
) -> WriteAmplificationResult:
    """Figure 3 kernel on an existing machine.

    ``random_across_xplines`` shuffles the XPLine visit order, afresh
    for every pass; the paper observed (and our tests assert) that WA
    is independent of this choice.
    """
    core = machine.new_core()
    base = machine.region_spec(region).base
    rng = DeterministicRng(machine.config.seed).fork(7) if random_across_xplines else None
    addrs = partial_write_addresses(base, wss, written_cachelines)
    nt_store = core.nt_store
    snapshot = machine.counters(region).snapshot()
    for _ in range(passes):
        if rng is not None:
            addrs = partial_write_addresses(base, wss, written_cachelines, rng)
        for addr in addrs:
            nt_store(addr, 64)
    delta = machine.counters(region).delta(snapshot)
    return WriteAmplificationResult(
        wss=wss,
        written_cachelines=written_cachelines,
        write_amplification=delta.write_amplification,
        theoretical_max=4.0 / written_cachelines,
    )


@dataclass(frozen=True)
class WriteHitResult:
    """One Figure 4 point."""

    wss: int
    hit_ratio: float
    #: The paper's inferred metric: 1 - media writes / (4 × issued writes),
    #: i.e. the fraction of program writes absorbed relative to the
    #: theoretical WA of this (1-of-4) pattern.
    inferred_hit_ratio: float


def run_write_hit_ratio(
    machine: Machine,
    wss: int,
    writes_per_xpline_avg: int = 10,
    region: str = "pm",
) -> WriteHitResult:
    """Figure 4 kernel: random partial (single-line) writes."""
    core = machine.new_core()
    rng = DeterministicRng(machine.config.seed).fork(11)
    visits = wss // XPLINE_SIZE * writes_per_xpline_avg
    addrs = random_block_sequence(machine.region_spec(region).base, wss, visits, rng)
    nt_store = core.nt_store
    snapshot = machine.counters(region).snapshot()
    for addr in addrs:
        nt_store(addr, 64)
    delta = machine.counters(region).delta(snapshot)
    inferred = 1.0 - delta.media_write_bytes / (4.0 * delta.imc_write_bytes)
    return WriteHitResult(
        wss=wss,
        hit_ratio=delta.write_buffer_hit_ratio,
        inferred_hit_ratio=max(0.0, inferred),
    )
