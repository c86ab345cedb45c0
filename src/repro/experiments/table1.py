"""Experiment E7a — Table 1: time breakdown of CCEH key insertion.

Paper numbers: segment-metadata access dominates (~43–52%) across
thread and DIMM counts, persists take ~21–26%, and everything else
~26–31%.  The point: the bottleneck of this write-intensive workload
is a *random read*.
"""

from __future__ import annotations

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


def run(generation: int = 1, profile: str = "fast") -> list[ExperimentReport]:
    """Reproduce Table 1 for one generation, printed the way the paper prints it."""
    check_profile(profile)
    prepopulate = 250_000 if profile == "fast" else 1_000_000
    inserts = 15_000 if profile == "fast" else 60_000
    columns: dict[str, list[float]] = {column: [] for column in _COLUMNS}
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
        for column, values in columns.items():
            values.append(fractions.get(column, 0.0) * 100)
    report = ExperimentReport(
        experiment_id=f"table1-g{generation}",
        title="Time breakdown of key insertion in CCEH (%)",
        x_label="Thread/DIMM",
        x_values=[f"{threads}T/{dimms}-DIMM" for threads, dimms in CONFIGS],
    )
    for column, values in columns.items():
        report.add_series(column, values)
    return [report]
