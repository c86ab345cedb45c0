"""Experiment E3 — Figure 3: write amplification by write fraction.

Paper claims (C3): on G1, partial writes are fully absorbed (WA = 0)
until the ~12 KB write buffer overflows, then WA climbs toward the
theoretical 4/k; 100% writes are periodically written back and sit at
WA ≈ 1 at *any* WSS.  On G2 periodic write-back is disabled, so all
four curves rise gracefully only beyond a >12 KB capacity.
"""

from __future__ import annotations

from repro.cache.prefetch import PrefetcherConfig
from repro.core.microbench.write_amp import run_write_amplification
from repro.experiments.common import ExperimentReport, buffer_wss_grid, check_profile
from repro.system.presets import machine_for


#: Cachelines written per XPLine, one plotted curve each (100%..25%).
SERIES_WRITTEN = (4, 3, 2, 1)


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """Reproduce Figure 3 for one generation: WA over WSS, one curve per write fraction."""
    check_profile(profile)
    passes = 6 if profile == "fast" else 10
    report = ExperimentReport(
        experiment_id=f"fig3-g{generation}",
        title=f"Write amplification, nt-store partial writes (G{generation})",
        x_label="WSS",
        x_values=buffer_wss_grid(step_kib=2 if profile == "fast" else 1, max_kib=32),
        x_is_size=True,
    )
    for written in SERIES_WRITTEN:
        values = []
        for wss in report.x_values:
            machine = machine_for(generation, prefetchers=PrefetcherConfig.none())
            result = run_write_amplification(machine, wss, written, passes=passes)
            values.append(result.write_amplification)
        report.add_series(f"{written * 25}% write", values)
    report.notes.append("access order across XPLines: sequential")
    return [report]
