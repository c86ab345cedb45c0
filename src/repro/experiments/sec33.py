"""Section 3.3 — read/write buffer separation and XPLine transition.

No figure in the paper; the findings are reported as numbers:
interleaved read/write traffic over disjoint regions shows RA = 1 and
no media writes (separate buffers), and write-then-read within an
XPLine moves far less media data than iMC data (reads served from the
write buffer, writes adopting read-buffered XPLines).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.microbench.interleave import (
    SeparationResult,
    TransitionResult,
    run_separation_probe,
    run_transition_probe,
)
from repro.experiments.common import ExperimentReport, check_profile


@dataclass
class Sec33Result:
    """Both probes for one generation."""

    generation: int
    separation: SeparationResult
    transition_write_first: TransitionResult
    transition_read_first: TransitionResult


def run(generation: int = 1, profile: str = "fast") -> Sec33Result:
    """Run both Section 3.3 probes."""
    check_profile(profile)
    passes = 4 if profile == "fast" else 8
    return Sec33Result(
        generation=generation,
        separation=run_separation_probe(generation, passes=passes),
        transition_write_first=run_transition_probe(generation, passes=passes, write_first=True),
        transition_read_first=run_transition_probe(generation, passes=passes, write_first=False),
    )


def as_report(result: Sec33Result) -> ExperimentReport:
    """Render the probe numbers as a two-column table."""
    report = ExperimentReport(
        experiment_id=f"sec33-g{result.generation}",
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
    sep = result.separation
    trans = result.transition_read_first
    report.add_series(
        "value",
        [
            sep.interleaved_read_amplification,
            sep.baseline_read_amplification,
            float(sep.interleaved_media_write_bytes),
            float(sep.baseline_media_write_bytes),
            trans.media_traffic_fraction,
            float(trans.rmw_avoided),
            result.transition_write_first.media_traffic_fraction,
        ],
    )
    report.notes.append(f"buffers_are_separate = {sep.buffers_are_separate}")
    return report
