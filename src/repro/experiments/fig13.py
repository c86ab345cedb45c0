"""Experiment E9a — Figure 13: access redirection cuts wasted reads.

Paper claim (C9, first half): with CPU prefetching enabled, random
XPLine-aligned accesses make the DIMM read up to ~2× the demanded
data; copying each block to DRAM with streaming SIMD loads (Algorithm
2) brings the PM read ratio back to ~1 across working-set sizes.
"""

from __future__ import annotations

from repro.core.microbench.prefetch_probe import run_prefetch_probe
from repro.experiments.common import ExperimentReport, check_profile, wide_wss_grid
from repro.system.presets import machine_for


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """Reproduce one panel of Figure 13 (default prefetchers enabled)."""
    check_profile(profile)
    wss_points = wide_wss_grid(profile)
    visits = 2_500 if profile == "fast" else 40_000
    repeats = 4 if profile == "fast" else 16
    imc_baseline, pm_baseline, pm_redirect = [], [], []
    for wss in wss_points:
        machine = machine_for(generation)
        baseline = run_prefetch_probe(machine, wss, visits=visits, repeats=repeats, redirect=False)
        imc_baseline.append(baseline.imc_read_ratio)
        pm_baseline.append(baseline.pm_read_ratio)
        machine = machine_for(generation)
        optimized = run_prefetch_probe(machine, wss, visits=visits, repeats=repeats, redirect=True)
        pm_redirect.append(optimized.pm_read_ratio)
    report = ExperimentReport(
        experiment_id=f"fig13-g{generation}",
        title=f"Reducing misprefetching (G{generation}): read ratios",
        x_label="WSS",
        x_values=wss_points,
        x_is_size=True,
    )
    report.add_series("iMC with prefetching", imc_baseline)
    report.add_series("PM with prefetching", pm_baseline)
    report.add_series("Optimized PM", pm_redirect)
    return [report]
