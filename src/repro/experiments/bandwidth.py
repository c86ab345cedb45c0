"""Device bandwidth characterization (paper Section 2.2).

Not a numbered figure, but the baseline facts every Optane paper
leans on: read bandwidth is ~3x write bandwidth, write bandwidth
saturates at a small thread count while reads keep scaling, and both
are far below DRAM.  This experiment measures all of it on the
simulated devices, both as a sanity anchor for the calibration and as
the "Table 0" a new user runs first.
"""

from __future__ import annotations

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import CACHELINE_SIZE
from repro.common.rng import DeterministicRng
from repro.common.units import mib
from repro.experiments.common import ExperimentReport, check_profile, interleave_workers
from repro.system.presets import machine_for


def measure_bandwidth(
    generation: int,
    kind: str,
    threads: int,
    region: str = "pm",
    wss: int = mib(64),
    ops_per_thread: int = 4_000,
    pm_dimms: int = 1,
) -> float:
    """GB/s moved by ``threads`` workers doing ``kind`` accesses.

    ``kind``: "seq-read", "rand-read" or "nt-write".  ``pm_dimms`` is
    the number of interleaved PM DIMMs behind ``region``.
    """
    machine = machine_for(generation, pm_dimms=pm_dimms, prefetchers=PrefetcherConfig.none())
    base = machine.region_spec(region).base
    n_lines = wss // CACHELINE_SIZE
    cores = [machine.new_core(f"t{i}") for i in range(threads)]
    streams = []
    for index, core in enumerate(cores):
        rng = DeterministicRng(500 + index)
        start_line = index * (n_lines // max(threads, 1))

        def stream(core=core, rng=rng, start_line=start_line):
            for op in range(ops_per_thread):
                def task(op=op):
                    if kind == "seq-read":
                        core.load(base + ((start_line + op) % n_lines) * CACHELINE_SIZE, 8)
                    elif kind == "rand-read":
                        line = rng.choice_index(n_lines)
                        addr = base + line * CACHELINE_SIZE
                        core.load(addr, 8)
                        core.clflushopt(addr)
                    elif kind == "nt-write":
                        core.nt_store(
                            base + ((start_line + op) % n_lines) * CACHELINE_SIZE,
                            CACHELINE_SIZE,
                        )
                    else:
                        raise ValueError(f"unknown bandwidth kind {kind!r}")
                yield task

        streams.append((core, stream()))
    makespan = interleave_workers(streams)
    total_bytes = threads * ops_per_thread * CACHELINE_SIZE
    seconds = makespan / (machine.config.frequency_ghz * 1e9)
    return total_bytes / seconds / 1e9


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """Bandwidth vs thread count for the three access kinds on PM."""
    check_profile(profile)
    threads_list = [1, 2, 4, 8] if profile == "fast" else [1, 2, 4, 8, 12, 16]
    ops = 2_500 if profile == "fast" else 10_000
    report = ExperimentReport(
        experiment_id=f"bandwidth-g{generation}",
        title=f"Single-DIMM bandwidth (G{generation}), GB/s",
        x_label="threads",
        x_values=threads_list,
    )
    for kind in ("seq-read", "rand-read", "nt-write"):
        values = [
            measure_bandwidth(generation, kind, threads, ops_per_thread=ops)
            for threads in threads_list
        ]
        report.add_series(kind, values)
    return [report]
