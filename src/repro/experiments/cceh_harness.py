"""Shared harness for the CCEH experiments (Table 1 and Figure 10).

Reproduces the paper's setup: a CCEH table pre-loaded with keys (the
paper uses YCSB to insert 16 M pairs; we pre-populate untimed and then
measure a window of inserts — the steady-state behaviour is identical
and the simulation stays tractable), then timed insert streams on 1–10
worker cores, optionally with a helper prefetch thread per worker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analysis import InstrumentedCore
from repro.core.helper import HelperThread
from repro.datastores.cceh import CcehHashTable
from repro.experiments.common import interleave_workers, split_round_robin
from repro.persist.allocator import PmHeap
from repro.stats.latency import TimeBreakdown
from repro.system.machine import Machine
from repro.system.presets import machine_for
from repro.workloads.ycsb import insert_only_stream

#: Per-op benchmark-driver overhead (YCSB key generation, value
#: marshalling, call chain) — the bulk of the paper's "Misc." column.
DRIVER_OVERHEAD = 220.0

#: Key offset separating the pre-population keyspace from timed keys.
_TIMED_KEY_BASE = 1 << 40


@dataclass
class CcehRun:
    """Result of one timed configuration."""

    workers: int
    helper: bool
    region: str
    cycles_per_insert: float
    throughput_mops: float
    breakdown: TimeBreakdown | None = None


def build_table(machine: Machine, prepopulate: int, region: str = "pm") -> CcehHashTable:
    """Create and (untimed) pre-populate a CCEH table."""
    heap = PmHeap(machine)
    allocator = heap.pm if region == "pm" else heap.dram
    table = CcehHashTable(allocator)
    for key in insert_only_stream(prepopulate, seed=5):
        table.insert(key, key)
    return table


def timed_inserts(
    machine: Machine,
    table: CcehHashTable,
    total_inserts: int,
    workers: int = 1,
    helper: bool = False,
    region: str = "pm",
    instrument: bool = False,
    seed: int = 9,
) -> CcehRun:
    """Measure ``total_inserts`` fresh-key inserts over ``workers`` cores."""
    keys = [key + _TIMED_KEY_BASE for key in insert_only_stream(total_inserts, seed=seed)]
    shares = split_round_robin(keys, workers)
    streams = []
    cores = []
    breakdowns: list[TimeBreakdown] = []
    for worker_index in range(workers):
        raw_core = machine.new_core(f"worker{worker_index}")
        core = InstrumentedCore(raw_core) if instrument else raw_core
        if instrument:
            breakdowns.append(core.breakdown)
        cores.append(raw_core)
        share = shares[worker_index]
        helper_thread = (
            HelperThread(machine, table.prefetch_trace, name=f"helper{worker_index}")
            if helper
            else None
        )

        def stream(share=share, core=core, raw_core=raw_core, helper_thread=helper_thread):
            for index, key in enumerate(share):
                def task(index=index, key=key):
                    if helper_thread is not None:
                        helper_thread.sync_before(raw_core, share, index)
                    core.tick(DRIVER_OVERHEAD)
                    table.insert(key, key, core)

                yield task

        streams.append((raw_core, stream()))

    makespan = interleave_workers(streams)
    # Fresh cores start at cycle 0, so each worker's latency is its
    # final local time divided by the inserts it performed.
    per_worker = [
        core.now / len(share) for core, share in zip(cores, shares) if share
    ]
    cycles_per_insert = sum(per_worker) / len(per_worker)
    throughput = total_inserts / (makespan / (machine.config.frequency_ghz * 1e9)) / 1e6
    breakdown = None
    if instrument:
        breakdown = TimeBreakdown()
        for piece in breakdowns:
            for name, value in piece.fractions().items():
                breakdown.charge(name, piece.cycles(name))
    return CcehRun(
        workers=workers,
        helper=helper,
        region=region,
        cycles_per_insert=cycles_per_insert,
        throughput_mops=throughput,
        breakdown=breakdown,
    )


def run_config(
    generation: int,
    workers: int,
    pm_dimms: int = 1,
    helper: bool = False,
    region: str = "pm",
    prepopulate: int = 250_000,
    total_inserts: int = 20_000,
    instrument: bool = False,
    seed: int = 9,
) -> CcehRun:
    """Build a fresh machine + table and run one timed configuration."""
    machine = machine_for(generation, pm_dimms=pm_dimms)
    table = build_table(machine, prepopulate, region)
    return timed_inserts(
        machine,
        table,
        total_inserts,
        workers=workers,
        helper=helper,
        region=region,
        instrument=instrument,
        seed=seed,
    )
