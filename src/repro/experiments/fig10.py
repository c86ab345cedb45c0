"""Experiment E7b — Figure 10: helper-thread prefetching in CCEH.

Paper claim (C7): the speculative helper thread cuts insertion latency
by up to ~36% and raises throughput by up to ~34% on Optane across
1–10 workers, while on DRAM it *degrades* both — random media reads
are a PM-specific bottleneck, and on DRAM the helper only steals
shared-core resources.
"""

from __future__ import annotations

from repro.experiments.cceh_harness import run_config
from repro.experiments.common import ExperimentReport, check_profile


def _worker_counts(profile: str) -> list[int]:
    return [1, 2, 4, 6, 8, 10] if profile == "fast" else list(range(1, 11))


def run_region(generation: int, region: str, profile: str = "fast") -> ExperimentReport:
    """Latency and throughput vs workers, with and without the helper."""
    check_profile(profile)
    prepopulate = 150_000 if profile == "fast" else 1_000_000
    inserts_per_worker = 2_500 if profile == "fast" else 12_000
    counts = _worker_counts(profile)
    latency = {False: [], True: []}
    throughput = {False: [], True: []}
    for workers in counts:
        for helper in (False, True):
            result = run_config(
                generation,
                workers=workers,
                helper=helper,
                region=region,
                prepopulate=prepopulate,
                total_inserts=inserts_per_worker * workers,
            )
            latency[helper].append(result.cycles_per_insert)
            throughput[helper].append(result.throughput_mops)
    report = ExperimentReport(
        experiment_id=f"fig10-g{generation}-{region}",
        title=f"CCEH insert on {region.upper()} (G{generation}): latency (cycles) / throughput (Mops/s)",
        x_label="workers",
        x_values=counts,
        x_is_size=False,
    )
    report.add_series("latency CCEH", latency[False])
    report.add_series("latency CCEH+prefetch", latency[True])
    report.add_series("tput CCEH", throughput[False])
    report.add_series("tput CCEH+prefetch", throughput[True])
    return report


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """Both panels: PM and DRAM."""
    return [run_region(generation, "pm", profile), run_region(generation, "dram", profile)]
