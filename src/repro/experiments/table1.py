"""Experiment E7a — Table 1: time breakdown of CCEH key insertion.

Paper numbers: segment-metadata access dominates (~43–52%) across
thread and DIMM counts, persists take ~21–26%, and everything else
~26–31%.  The point: the bottleneck of this write-intensive workload
is a *random read*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.cceh_harness import run_config
from repro.experiments.common import ExperimentReport, check_profile

#: Fine-grained instrumentation buckets → the paper's three columns.
_COLUMN_OF = {
    "segment": "Segment metadata",
    "persist": "Persists",
}
_COLUMNS = ("Segment metadata", "Persists", "Misc.")

#: The paper's four configurations: (threads, interleaved DIMMs).
CONFIGS = ((1, 1), (5, 1), (1, 6), (5, 6))


@dataclass(frozen=True)
class Table1Row:
    """One configuration's breakdown (fractions summing to 1)."""

    threads: int
    dimms: int
    segment_metadata: float
    persists: float
    misc: float


def run(generation: int = 1, profile: str = "fast") -> list[Table1Row]:
    """Reproduce Table 1 for one generation."""
    check_profile(profile)
    prepopulate = 250_000 if profile == "fast" else 1_000_000
    inserts = 15_000 if profile == "fast" else 60_000
    rows = []
    for threads, dimms in CONFIGS:
        result = run_config(
            generation,
            workers=threads,
            pm_dimms=dimms,
            prepopulate=prepopulate,
            total_inserts=inserts,
            instrument=True,
        )
        folded = result.breakdown.merged(
            {name: _COLUMN_OF.get(name, "Misc.") for name in ("segment", "persist", "directory", "bucket", "compute", "split")}
        )
        fractions = folded.fractions()
        rows.append(
            Table1Row(
                threads=threads,
                dimms=dimms,
                segment_metadata=fractions.get("Segment metadata", 0.0),
                persists=fractions.get("Persists", 0.0),
                misc=fractions.get("Misc.", 0.0),
            )
        )
    return rows


def as_report(rows: list[Table1Row], generation: int = 1) -> ExperimentReport:
    """Render the rows the way the paper prints Table 1."""
    report = ExperimentReport(
        experiment_id=f"table1-g{generation}",
        title="Time breakdown of key insertion in CCEH (%)",
        x_label="Thread/DIMM",
        x_values=[f"{row.threads}T/{row.dimms}-DIMM" for row in rows],
    )
    report.add_series("Segment metadata", [row.segment_metadata * 100 for row in rows])
    report.add_series("Persists", [row.persists * 100 for row in rows])
    report.add_series("Misc.", [row.misc * 100 for row in rows])
    return report
