"""Experiment E8 — Figure 12: B+-tree in-place vs out-of-place insert.

Paper claim (C8): on G1, redirecting key shifts through a redo log —
despite doubling PM writes — improves insertion latency by up to
~38.8% and throughput by up to ~60.8% because it avoids the
read-after-persist stalls of in-place shifting; the benefit shrinks
with thread count (bandwidth contention).  On G2, clwb retains
cachelines, in-place shifting never stalls, and redo logging offers no
improvement (only slight degradation at higher thread counts).
"""

from __future__ import annotations

from repro.datastores.btree import FastFairTree
from repro.experiments.common import (
    ExperimentReport,
    check_profile,
    interleave_workers,
    split_round_robin,
)
from repro.persist.allocator import PmHeap
from repro.system.presets import machine_for
from repro.workloads.ycsb import insert_only_stream

_TIMED_KEY_STRIDE = 4  # pre-populated keys use multiples of 4


def _build_tree(machine, mode: str, prepopulate: int) -> FastFairTree:
    tree = FastFairTree(PmHeap(machine), mode=mode)
    for key in insert_only_stream(prepopulate, seed=3):
        tree.insert(key * _TIMED_KEY_STRIDE, key)
    return tree


def run_mode(
    generation: int,
    mode: str,
    threads: int,
    prepopulate: int,
    total_inserts: int,
) -> tuple[float, float]:
    """One (mode, threads) point; returns (cycles/insert, Mops/s)."""
    machine = machine_for(generation)
    tree = _build_tree(machine, mode, prepopulate)
    keys = [key * _TIMED_KEY_STRIDE + 1 for key in insert_only_stream(total_inserts, seed=11)]
    shares = split_round_robin(keys, threads)
    cores = [machine.new_core(f"worker{i}") for i in range(threads)]
    streams = []
    for core, share in zip(cores, shares):

        def stream(core=core, share=share):
            for key in share:
                def task(key=key):
                    tree.insert(key, key, core)

                yield task

        streams.append((core, stream()))
    makespan = interleave_workers(streams)
    per_worker = [core.now / len(share) for core, share in zip(cores, shares) if share]
    latency = sum(per_worker) / len(per_worker)
    throughput = total_inserts / (makespan / (machine.config.frequency_ghz * 1e9)) / 1e6
    return latency, throughput


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """Reproduce one generation's Figure 12 panels (single DIMM)."""
    check_profile(profile)
    threads_list = [1, 3, 5, 7, 9] if profile == "full" else [1, 3, 5]
    prepopulate = 200_000 if profile == "fast" else 600_000
    inserts_per_thread = 2_000 if profile == "fast" else 6_000
    data: dict[str, list[float]] = {
        "latency in-place": [],
        "latency out-of-place": [],
        "tput in-place": [],
        "tput out-of-place": [],
    }
    for threads in threads_list:
        for mode, label in (("inplace", "in-place"), ("redo", "out-of-place")):
            latency, throughput = run_mode(
                generation, mode, threads, prepopulate, inserts_per_thread * threads
            )
            data[f"latency {label}"].append(latency)
            data[f"tput {label}"].append(throughput)
    report = ExperimentReport(
        experiment_id=f"fig12-g{generation}",
        title=f"FAST & FAIR insert, single DIMM (G{generation}): cycles / Mops/s",
        x_label="threads",
        x_values=threads_list,
    )
    for name, values in data.items():
        report.add_series(name, values)
    return [report]
