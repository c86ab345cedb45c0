"""Section 3.3 — read/write buffer separation and XPLine transition.

No figure in the paper; the findings are reported as numbers:
interleaved read/write traffic over disjoint regions shows RA = 1 and
no media writes (separate buffers), and write-then-read within an
XPLine moves far less media data than iMC data (reads served from the
write buffer, writes adopting read-buffered XPLines).
"""

from __future__ import annotations

from repro.cache.prefetch import PrefetcherConfig
from repro.core.microbench.interleave import run_separation_probe, run_transition_probe
from repro.experiments.common import ExperimentReport, check_profile
from repro.system.presets import machine_for


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """Run both Section 3.3 probes and render their numbers as a two-column table."""
    check_profile(profile)
    passes = 4 if profile == "fast" else 8
    sep = run_separation_probe(generation, passes=passes)
    write_first = run_transition_probe(
        machine_for(generation, prefetchers=PrefetcherConfig.none()), passes=passes, write_first=True
    )
    read_first = run_transition_probe(
        machine_for(generation, prefetchers=PrefetcherConfig.none()), passes=passes, write_first=False
    )
    report = ExperimentReport(
        experiment_id=f"sec33-g{generation}",
        title="Buffer separation and XPLine transition",
        x_label="metric",
        x_values=[
            "interleaved RA",
            "baseline RA",
            "interleaved media writes (B)",
            "baseline media writes (B)",
            "transition media/iMC traffic",
            "transition RMW avoided",
            "write-first transition media/iMC traffic",
        ],
    )
    report.add_series(
        "value",
        [
            sep.interleaved_read_amplification,
            sep.baseline_read_amplification,
            float(sep.interleaved_media_write_bytes),
            float(sep.baseline_media_write_bytes),
            read_first.media_traffic_fraction,
            float(read_first.rmw_avoided),
            write_first.media_traffic_fraction,
        ],
    )
    report.notes.append(f"buffers_are_separate = {sep.buffers_are_separate}")
    return [report]
