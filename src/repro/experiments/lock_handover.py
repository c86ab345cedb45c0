"""Persistent-lock handover latency (paper §3.5 performance implications).

Quantifies the scenario the paper warns about: a persistent lock whose
word ping-pongs between threads.  Every handover is a read of a
just-flushed cacheline.  Compared across generations, memory types and
NUMA placement — on G1 the RAP stall dominates the acquire; on G2 the
retained cacheline makes local handovers cheap; remote placement adds
the cross-socket persist/read adders everywhere.
"""

from __future__ import annotations

from repro.cache.prefetch import PrefetcherConfig
from repro.datastores.pmlock import PersistentLock, measure_handover
from repro.experiments.common import ExperimentReport, check_profile
from repro.persist.allocator import RegionAllocator
from repro.system.presets import machine_for

_SCENARIOS = ("pm", "pm_remote", "dram")


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """Acquire latency per handover, 2 contending threads, on G1 and G2 (``generation`` is unused)."""
    check_profile(profile)
    rounds = 200 if profile == "fast" else 1_000
    report = ExperimentReport(
        experiment_id="lock-handover",
        title="Persistent lock handover latency (cycles per acquire)",
        x_label="region",
        x_values=list(_SCENARIOS),
    )
    for gen in (1, 2):
        values = []
        for region in _SCENARIOS:
            machine = machine_for(
                gen,
                prefetchers=PrefetcherConfig.none(),
                remote_pm=True,
                remote_dram=True,
            )
            allocator = RegionAllocator(machine, region)
            lock = PersistentLock(allocator)
            cores = [machine.new_core(f"t{i}") for i in range(2)]
            values.append(measure_handover(lock, cores, rounds))
        report.add_series(f"G{gen}", values)
    return [report]
