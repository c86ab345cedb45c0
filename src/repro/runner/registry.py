"""The experiment registry: every paper figure/table as a schedulable spec.

This module is the single registration site for experiments.  Each
entry is an :class:`ExperimentSpec` holding an experiment module's own
``run(generation, profile) -> list[ExperimentReport]``; the crash
campaigns bind their workload with ``functools.partial``.  The
process-pool engine
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


#: name -> spec, in the paper's presentation order.
REGISTRY: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec("fig2", "Figure 2 — read amplification (read buffer)", fig02.run),
        ExperimentSpec("fig3", "Figure 3 — write amplification (write buffer)", fig03.run),
        ExperimentSpec("fig4", "Figure 4 — write buffer hit ratio", fig04.run),
        ExperimentSpec("sec33", "Section 3.3 — buffer separation & transition", sec33.run),
        ExperimentSpec("fig6", "Figure 6 — prefetching into on-DIMM buffers", fig06.run),
        ExperimentSpec("fig7", "Figure 7 — read-after-persist latency", fig07.run),
        ExperimentSpec("fig8", "Figure 8 — latency across working-set sizes", fig08.run),
        ExperimentSpec("table1", "Table 1 — CCEH insertion time breakdown", table1.run),
        ExperimentSpec("fig10", "Figure 10 — CCEH helper-thread prefetching", fig10.run),
        ExperimentSpec("fig12", "Figure 12 — B+-tree in-place vs redo logging", fig12.run),
        ExperimentSpec("fig13", "Figure 13 — access redirection read ratios", fig13.run),
        ExperimentSpec("fig14", "Figure 14 — redirection thread-scaling tradeoff", fig14.run),
        ExperimentSpec("ablations", "Ablations of inferred design choices", ablations.run),
        ExperimentSpec("bandwidth", "§2.2 — device bandwidth characterization", bandwidth.run),
        ExperimentSpec("lock", "§3.5 — persistent lock handover latency", lock_handover.run),
        ExperimentSpec("interleave", "§2.4 — 1 vs 6 interleaved DIMMs", interleaving.run),
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
