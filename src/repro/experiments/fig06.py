"""Experiment E2 — Figure 6: prefetching into the on-DIMM buffers.

Paper claim (C2): the DIMM itself barely prefetches — read ratios stay
≈ 1 with CPU prefetchers off — but CPU prefetching makes the DIMM load
far more media data than the iMC requests: once the working set
exceeds the read buffer the PM ratio climbs, and past the LLC both
ratios grow, with the PM ratio approaching 2 for the DCU streamer
(every mispredicted cacheline drags a whole XPLine off the media).
"""

from __future__ import annotations

from repro.cache.prefetch import PrefetcherConfig
from repro.core.microbench.prefetch_probe import run_prefetch_probe
from repro.experiments.common import ExperimentReport, check_profile, wide_wss_grid
from repro.system.presets import machine_for

#: The four panels per generation, in the paper's order.
PANELS: tuple[tuple[str, PrefetcherConfig], ...] = (
    ("no prefetch", PrefetcherConfig.none()),
    ("hardware prefetch", PrefetcherConfig.only("streamer")),
    ("adjacent cacheline prefetch", PrefetcherConfig.only("adjacent")),
    ("DCU streamer prefetch", PrefetcherConfig.only("dcu")),
)


def run_panel(
    generation: int,
    panel: str,
    profile: str = "fast",
) -> ExperimentReport:
    """One panel of Figure 6: PM and iMC read ratios across WSS."""
    check_profile(profile)
    config = dict(PANELS)[panel]
    wss_points = wide_wss_grid(profile)
    visits = 2_500 if profile == "fast" else 40_000
    # Repeats beyond the first round are pure L1 hits (invisible to the
    # prefetchers and to the DIMM), so the fast profile uses fewer.
    repeats = 4 if profile == "fast" else 16
    pm_values, imc_values = [], []
    for wss in wss_points:
        machine = machine_for(generation, prefetchers=config)
        result = run_prefetch_probe(machine, wss, visits=visits, repeats=repeats)
        pm_values.append(result.pm_read_ratio)
        imc_values.append(result.imc_read_ratio)
    report = ExperimentReport(
        experiment_id=f"fig6-g{generation}-{panel.split()[0]}",
        title=f"{panel} (G{generation})",
        x_label="WSS",
        x_values=wss_points,
        x_is_size=True,
    )
    report.add_series(f"PM (G{generation})", pm_values)
    report.add_series(f"iMC (G{generation})", imc_values)
    return report


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """All four panels for one generation."""
    return [run_panel(generation, panel, profile) for panel, _ in PANELS]
