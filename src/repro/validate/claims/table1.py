"""E7a — Table 1: where CCEH insertion time goes.

Paper claims (S4.1): segment-metadata reads dominate key insertion at
~55% of the time, persists take ~18%, and the split is stable across
thread counts and DIMM counts — which is what motivates the software
read-buffer optimisation of Figure 10.
"""

from __future__ import annotations

from repro.validate.predicates import PredicateResult, flat_wrt_wss, ordering, within
from repro.validate.spec import Claim, ReportSet, on_pair, on_reports, on_series

_CITE = "Table 1, S4.1"

def _partition(reports: ReportSet) -> PredicateResult:
    """The three columns of every configuration sum to 100%."""
    columns = [reports.curve(name).y for name in ("Segment metadata", "Persists", "Misc.")]
    worst = max(abs(sum(row) - 100.0) for row in zip(*columns))
    return PredicateResult(
        worst < 1e-4, f"worst row off 100% by {worst:.2g}", "every row sums to 100%"
    )


CLAIMS = (
    Claim(
        id="E7A/segment-dominates",
        experiment="table1", generation=1,
        claim="segment-metadata reads take >2x the time persists do",
        citation=_CITE,
        check=on_pair(
            "Segment metadata", "Persists", ordering(margin=1.0, higher_is_better=True)
        ),
    ),
    Claim(
        id="E7A/segment-level",
        experiment="table1", generation=1,
        claim="segment metadata sits at ~55% of insertion time",
        citation=_CITE,
        check=on_series("Segment metadata", within(45, 65)),
    ),
    Claim(
        id="E7A/persists-minor",
        experiment="table1", generation=1,
        claim="persists account for only ~18% of insertion time",
        citation=_CITE,
        check=on_series("Persists", within(12, 25)),
    ),
    Claim(
        id="E7A/stable-across-configs",
        experiment="table1", generation=1,
        claim="the breakdown barely moves across thread/DIMM configurations",
        citation=_CITE,
        check=on_series("Segment metadata", flat_wrt_wss(0.05)),
    ),
    Claim(
        id="E7A/segment-above-misc",
        experiment="table1", generation=1,
        claim="segment metadata also outweighs everything else (misc.)",
        citation=_CITE,
        check=on_pair(
            "Segment metadata", "Misc.", ordering(higher_is_better=True)
        ),
    ),
    Claim(
        id="E7A/rows-partition",
        experiment="table1", generation=1,
        claim="the three columns partition each configuration's insertion time",
        citation=_CITE,
        check=on_reports(_partition),
    ),
    Claim(
        id="E7A/segment-dominates-g2",
        experiment="table1", generation=2,
        claim="the same dominance holds on G2",
        citation=_CITE,
        check=on_pair(
            "Segment metadata", "Persists", ordering(margin=1.0, higher_is_better=True)
        ),
    ),
)
