"""The experiment registry: every paper figure/table as a schedulable spec.

This module is the single registration site for experiments.  Each
entry is an :class:`ExperimentSpec` — a picklable, module-level
``run`` callable with the uniform signature ``(generation, profile) ->
list[ExperimentReport]``.  The process-pool engine
(:mod:`repro.runner.engine`) schedules each experiment as one work
unit.

Everything here must stay importable by worker processes: specs hold
references to module-level functions only (``functools.partial`` over
them is fine), never lambdas or closures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.experiments import ablations, bandwidth, fig02, fig03, fig04, fig06, fig07, fig08
from repro.experiments import fig10, fig12, fig13, fig14, interleaving, lock_handover, sec33, table1
from repro.experiments.common import ExperimentReport
from repro.faults.campaign import run_crashtest
from repro.faults.workloads import WORKLOADS


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: ``run(generation, profile)`` returns its reports."""

    name: str
    title: str
    run: Callable[[int, str], list[ExperimentReport]]


def _as_reports(result) -> list[ExperimentReport]:
    """Normalize a runner return value to a list of reports."""
    if isinstance(result, ExperimentReport):
        return [result]
    return list(result)


def _run_fig02(generation: int, profile: str) -> list[ExperimentReport]:
    """Figure 2 (read amplification) as a report list."""
    return [fig02.run(generation, profile)]


def _run_fig03(generation: int, profile: str) -> list[ExperimentReport]:
    """Figure 3 (write amplification) as a report list."""
    return [fig03.run(generation, profile)]


def _run_fig04(generation: int, profile: str) -> list[ExperimentReport]:
    """Figure 4 (write-buffer hit ratio; generation-independent)."""
    return [fig04.run(profile)]


def _run_sec33(generation: int, profile: str) -> list[ExperimentReport]:
    """Section 3.3 buffer-separation probes as a report."""
    return [sec33.as_report(sec33.run(generation, profile))]


def _run_fig06(generation: int, profile: str) -> list[ExperimentReport]:
    """Figure 6 (prefetching into on-DIMM buffers)."""
    return _as_reports(fig06.run(generation, profile))


def _run_fig07(generation: int, profile: str) -> list[ExperimentReport]:
    """Figure 7 (read-after-persist latency)."""
    return _as_reports(fig07.run(generation, profile))


def _run_fig08(generation: int, profile: str) -> list[ExperimentReport]:
    """Figure 8 (latency across working-set sizes)."""
    return _as_reports(fig08.run(generation, profile))


def _run_table1(generation: int, profile: str) -> list[ExperimentReport]:
    """Table 1 (CCEH insertion breakdown) as a report."""
    return [table1.as_report(table1.run(generation, profile), generation)]


def _run_fig10(generation: int, profile: str) -> list[ExperimentReport]:
    """Figure 10 (CCEH helper-thread prefetching)."""
    return _as_reports(fig10.run(generation, profile))


def _run_fig12(generation: int, profile: str) -> list[ExperimentReport]:
    """Figure 12 (B+-tree in-place vs redo logging)."""
    return [fig12.run(generation, profile)]


def _run_fig13(generation: int, profile: str) -> list[ExperimentReport]:
    """Figure 13 (access-redirection read ratios)."""
    return [fig13.run(generation, profile)]


def _run_fig14(generation: int, profile: str) -> list[ExperimentReport]:
    """Figure 14 (redirection thread-scaling tradeoff)."""
    return [fig14.run(generation, profile)]


def _run_ablations(generation: int, profile: str) -> list[ExperimentReport]:
    """Design-choice ablations (profile/generation independent)."""
    return _as_reports(ablations.run_all())


def _run_bandwidth(generation: int, profile: str) -> list[ExperimentReport]:
    """§2.2 device bandwidth characterization."""
    return [bandwidth.run(generation, profile)]


def _run_lock(generation: int, profile: str) -> list[ExperimentReport]:
    """§3.5 persistent lock handover latency."""
    return [lock_handover.run(profile)]


def _run_interleaving(generation: int, profile: str) -> list[ExperimentReport]:
    """§2.4 one vs six interleaved DIMMs."""
    return [interleaving.run(generation, profile)]


#: name -> spec, in the paper's presentation order.
REGISTRY: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec("fig2", "Figure 2 — read amplification (read buffer)", _run_fig02),
        ExperimentSpec("fig3", "Figure 3 — write amplification (write buffer)", _run_fig03),
        ExperimentSpec("fig4", "Figure 4 — write buffer hit ratio", _run_fig04),
        ExperimentSpec("sec33", "Section 3.3 — buffer separation & transition", _run_sec33),
        ExperimentSpec("fig6", "Figure 6 — prefetching into on-DIMM buffers", _run_fig06),
        ExperimentSpec("fig7", "Figure 7 — read-after-persist latency", _run_fig07),
        ExperimentSpec("fig8", "Figure 8 — latency across working-set sizes", _run_fig08),
        ExperimentSpec("table1", "Table 1 — CCEH insertion time breakdown", _run_table1),
        ExperimentSpec("fig10", "Figure 10 — CCEH helper-thread prefetching", _run_fig10),
        ExperimentSpec("fig12", "Figure 12 — B+-tree in-place vs redo logging", _run_fig12),
        ExperimentSpec("fig13", "Figure 13 — access redirection read ratios", _run_fig13),
        ExperimentSpec("fig14", "Figure 14 — redirection thread-scaling tradeoff", _run_fig14),
        ExperimentSpec("ablations", "Ablations of inferred design choices", _run_ablations),
        ExperimentSpec("bandwidth", "§2.2 — device bandwidth characterization", _run_bandwidth),
        ExperimentSpec("lock", "§3.5 — persistent lock handover latency", _run_lock),
        ExperimentSpec("interleave", "§2.4 — 1 vs 6 interleaved DIMMs", _run_interleaving),
        *(ExperimentSpec(f"crash-{name}", workload.title, partial(run_crashtest, datastore=name))
          for name, workload in WORKLOADS.items()),
    )
}


def resolve_names(names: list[str]) -> list[str]:
    """Expand ``all`` and validate experiment names against the registry.

    Raises ``KeyError`` listing the unknown names, so callers can turn
    it into a friendly CLI error.
    """
    expanded = list(REGISTRY) if "all" in names else list(names)
    unknown = [name for name in expanded if name not in REGISTRY]
    if unknown:
        raise KeyError(", ".join(unknown))
    return expanded
