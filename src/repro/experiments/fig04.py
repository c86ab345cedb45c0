"""Experiment E4 — Figure 4: write-buffer hit ratio vs working-set size.

Paper claim (C4): the hit ratio decays *gracefully* past the buffer
capacity (random eviction), with the G1 knee at ~12 KB and the G2 knee
past 16 KB.
"""

from __future__ import annotations

from repro.cache.prefetch import PrefetcherConfig
from repro.core.microbench.write_amp import run_write_hit_ratio
from repro.experiments.common import ExperimentReport, buffer_wss_grid, check_profile
from repro.system.presets import machine_for


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """Reproduce Figure 4: both generations on one axis, as the paper (``generation`` is unused)."""
    check_profile(profile)
    wss_points = buffer_wss_grid(step_kib=2 if profile == "fast" else 1, max_kib=32)
    writes = 8 if profile == "fast" else 16
    report = ExperimentReport(
        experiment_id="fig4",
        title="Write buffer hit ratio, random partial writes",
        x_label="WSS",
        x_values=wss_points,
        x_is_size=True,
    )
    for gen in (1, 2):
        values = []
        for wss in wss_points:
            machine = machine_for(gen, prefetchers=PrefetcherConfig.none())
            result = run_write_hit_ratio(machine, wss, writes_per_xpline_avg=writes)
            values.append(result.inferred_hit_ratio)
        report.add_series(f"G{gen} Optane", values)
    return [report]
