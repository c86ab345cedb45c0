"""Experiment E1 — Figure 2: read amplification vs working-set size.

Paper claim (C1): the DIMM has a read buffer; RA = 4/CpX below its
capacity, jumps sharply to 4 past it (FIFO), and never drops below 1
(exclusive to the CPU caches).  G1 steps at 16 KB, G2 at ~22 KB.
"""

from __future__ import annotations

from repro.common.units import kib
from repro.core.microbench.strided_read import run_strided_read
from repro.cache.prefetch import PrefetcherConfig
from repro.experiments.common import ExperimentReport, buffer_wss_grid, check_profile
from repro.system.presets import machine_for


#: CpX (cachelines read per XPLine) values, one plotted curve each.
SERIES_CPX = (4, 3, 2, 1)


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """Reproduce Figure 2 for one Optane generation: RA over WSS, one curve per CpX."""
    check_profile(profile)
    cycles = 4 if profile == "fast" else 8
    report = ExperimentReport(
        experiment_id=f"fig2-g{generation}",
        title=f"Read amplification, strided reads (G{generation})",
        x_label="WSS",
        x_values=buffer_wss_grid(step_kib=2 if profile == "fast" else 1, max_kib=36),
        x_is_size=True,
    )
    for cpx in SERIES_CPX:
        values = []
        for wss in report.x_values:
            machine = machine_for(generation, prefetchers=PrefetcherConfig.none())
            result = run_strided_read(machine, wss, cpx, cycles_over_region=cycles)
            values.append(result.read_amplification)
        report.add_series(f"read {cpx} cacheline{'s' if cpx > 1 else ''}", values)
    buffer_kib = machine_for(generation).config.optane.read_buffer_bytes // kib(1)
    report.notes.append(f"read buffer capacity (config): {buffer_kib} KB")
    return [report]
