"""Per-figure/table experiment harnesses (see DESIGN.md's index).

Each experiment module exposes ``run(generation, profile) ->
list[ExperimentReport]``, which :mod:`repro.runner.registry` schedules
directly; run one from the command line with ``repro run fig2``.
"""

from repro.experiments.common import (
    ExperimentReport,
    Series,
    buffer_wss_grid,
    check_profile,
    interleave_workers,
    split_round_robin,
    wide_wss_grid,
)

__all__ = [
    "ExperimentReport",
    "Series",
    "buffer_wss_grid",
    "check_profile",
    "interleave_workers",
    "split_round_robin",
    "wide_wss_grid",
]
