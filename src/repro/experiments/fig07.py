"""Experiment E5 — Figure 7: read-after-persist latency vs distance.

Paper claim (C5): on G1, reading a recently clwb'd or nt-stored line
costs up to ~2500 cycles locally (~3200 remotely) — up to 10× the
settled latency — decaying with distance; clwb+sfence is cheap at
distance ≤ 1 (loads overtake the flush), then jumps to ~800–1000 and
converges.  On G2 clwb retains cachelines and the problem disappears
for clwb (at a coherence cost), while nt-store still suffers.  DRAM
shows the same shape compressed to ~2×.
"""

from __future__ import annotations

from repro.cache.prefetch import PrefetcherConfig
from repro.core.microbench.rap import FIGURE7_PANELS, run_rap_iterations
from repro.experiments.common import ExperimentReport, check_profile
from repro.system.presets import machine_for

_FAST_DISTANCES = (0, 1, 2, 4, 8, 16, 32, 40)
_FULL_DISTANCES = (0, 1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40)


def run_panel(generation: int, region: str, profile: str = "fast") -> ExperimentReport:
    """One panel: all curves for one (generation, region)."""
    check_profile(profile)
    distances = _FAST_DISTANCES if profile == "fast" else _FULL_DISTANCES
    passes = 20 if profile == "fast" else 40
    specs = dict(FIGURE7_PANELS)[region]
    report = ExperimentReport(
        experiment_id=f"fig7-g{generation}-{region}",
        title=f"RAP latency on {region} (G{generation}), cycles/iteration",
        x_label="distance",
        x_values=list(distances),
    )
    for flush, fence in specs:
        values = []
        for distance in distances:
            machine = machine_for(
                generation, prefetchers=PrefetcherConfig.none(), remote_pm=True, remote_dram=True
            )
            values.append(run_rap_iterations(machine, region, flush, fence, distance, passes=passes))
        report.add_series(f"{flush.value}+{fence.value}", values)
    return report


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """All four panels of one Figure 7 row."""
    return [run_panel(generation, region, profile) for region, _ in FIGURE7_PANELS]
