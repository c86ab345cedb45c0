"""DIMM interleaving: 1 vs 6 Optane DIMMs (paper §2.4 / §4 configs).

The paper's testbeds install six 128 GB DIMMs and run experiments both
on a single non-interleaved DIMM and on all six interleaved at 4 KB.
Interleaving multiplies *bandwidth* (six write drains, six read-port
pools) but leaves single-access *latency* unchanged — which is why the
paper found CCEH results "on a non-interleaved single DIMM and on 6
interleaved DIMMs were similar" for its latency-bound workload while
bandwidth-bound workloads scale.
"""

from __future__ import annotations

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import CACHELINE_SIZE
from repro.common.rng import DeterministicRng
from repro.common.units import mib
from repro.experiments.bandwidth import measure_bandwidth
from repro.experiments.common import ExperimentReport, check_profile
from repro.system.presets import machine_for


def _random_read_latency(generation: int, dimms: int, samples: int = 2_000) -> float:
    """Average cold random-read latency over a large region."""
    machine = machine_for(generation, pm_dimms=dimms, prefetchers=PrefetcherConfig.none())
    core = machine.new_core()
    base = machine.region_spec("pm").base
    n_lines = mib(256) // CACHELINE_SIZE
    rng = DeterministicRng(3)
    start = core.now
    for _ in range(samples):
        core.load(base + rng.choice_index(n_lines) * CACHELINE_SIZE, 8)
    return (core.now - start) / samples


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """Latency and bandwidth, 1 vs 6 DIMMs."""
    check_profile(profile)
    samples = 1_500 if profile == "fast" else 6_000
    ops = 1_500 if profile == "fast" else 6_000
    report = ExperimentReport(
        experiment_id=f"interleave-g{generation}",
        title=f"1 vs 6 interleaved DIMMs (G{generation})",
        x_label="DIMMs",
        x_values=[1, 6],
    )
    report.add_series(
        "random read latency (cycles)",
        [_random_read_latency(generation, dimms, samples) for dimms in (1, 6)],
    )
    report.add_series(
        "nt-store bandwidth (GB/s, 8 threads)",
        [
            measure_bandwidth(generation, "nt-write", 8, ops_per_thread=ops, pm_dimms=dimms)
            for dimms in (1, 6)
        ],
    )
    return [report]
