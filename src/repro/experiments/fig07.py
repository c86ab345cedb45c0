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

from repro.core.microbench.rap import FIGURE7_PANELS, rap_curve
from repro.experiments.common import ExperimentReport, check_profile

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
        curve = rap_curve(generation, region, flush, fence, distances, passes=passes)
        report.add_series(f"{flush.value}+{fence.value}", [p.cycles_per_iteration for p in curve.points])
    return report


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """All four panels of one Figure 7 row."""
    return [run_panel(generation, region, profile) for region, _ in FIGURE7_PANELS]
