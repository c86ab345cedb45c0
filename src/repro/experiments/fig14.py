"""Experiment E9b — Figure 14: the redirection latency/throughput tradeoff.

Paper claim (C9, second half): the extra PM→DRAM copy makes redirection
*slower* at small thread counts, but because it stops misprefetching
from wasting media read bandwidth, it wins both latency and throughput
once enough threads contend — around 12 threads on the paper's
testbeds.
"""

from __future__ import annotations

from repro.common.constants import XPLINE_SIZE
from repro.common.rng import DeterministicRng
from repro.common.units import mib
from repro.core.microbench.prefetch_probe import visit_block, visit_block_redirected
from repro.experiments.common import (
    ExperimentReport,
    check_profile,
    interleave_workers,
)
from repro.system.machine import Machine
from repro.system.presets import machine_for


def run_point(
    machine: Machine,
    threads: int,
    redirect: bool,
    wss: int,
    visits_per_thread: int,
    repeats: int = 16,
) -> tuple[float, float]:
    """Returns (cycles per block visit, aggregate GB/s of demanded data)."""
    base = machine.region_spec("pm").base
    dram_base = machine.region_spec("dram").base
    n_blocks = wss // XPLINE_SIZE
    cores = [machine.new_core(f"t{i}") for i in range(threads)]
    streams = []
    for index, core in enumerate(cores):
        rng = DeterministicRng(1000 + index)
        staging = dram_base + index * XPLINE_SIZE

        def stream(core=core, rng=rng, staging=staging):
            for _ in range(visits_per_thread):
                def task():
                    block = base + rng.choice_index(n_blocks) * XPLINE_SIZE
                    if redirect:
                        visit_block_redirected(core, block, staging, repeats)
                    else:
                        visit_block(core, block, repeats)

                yield task

        streams.append((core, stream()))
    makespan = interleave_workers(streams)
    total_visits = visits_per_thread * threads
    latency = sum(core.now for core in cores) / total_visits
    demanded_bytes = total_visits * XPLINE_SIZE
    seconds = makespan / (machine.config.frequency_ghz * 1e9)
    throughput_gbs = demanded_bytes / seconds / 1e9
    return latency, throughput_gbs


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """Reproduce one generation's Figure 14 panels."""
    check_profile(profile)
    threads_list = [1, 4, 8, 12, 16] if profile == "fast" else [1, 2, 4, 8, 12, 16, 20, 24]
    wss = mib(64)
    visits = 600 if profile == "fast" else 2_000
    data: dict[str, list[float]] = {
        "latency baseline": [],
        "latency optimized": [],
        "tput baseline": [],
        "tput optimized": [],
    }
    for threads in threads_list:
        for redirect, label in ((False, "baseline"), (True, "optimized")):
            machine = machine_for(generation)
            latency, throughput = run_point(machine, threads, redirect, wss, visits)
            data[f"latency {label}"].append(latency)
            data[f"tput {label}"].append(throughput)
    report = ExperimentReport(
        experiment_id=f"fig14-g{generation}",
        title=f"Access redirection tradeoff (G{generation}): cycles/block, GB/s",
        x_label="threads",
        x_values=threads_list,
    )
    for name, values in data.items():
        report.add_series(name, values)
    return [report]
