"""E9b — Figure 14: access-size redirection tradeoff.

Paper claims (S4.3): redirecting small writes through a
sequential-log layout loses single-threaded (extra instructions) but
wins once enough threads contend for the DIMM's limited random-write
capacity — latency and throughput both cross over, and at saturation
the optimized layout sustains ~2.4x the baseline throughput.

Known deviation: our crossover lands at ~4 threads rather than the
paper's ~12 — the simulator's port model saturates the DIMM earlier.
"""

from __future__ import annotations

from repro.validate.predicates import PredicateResult, crossover_at, ordering, ratio_approx
from repro.validate.spec import Claim, ReportSet, on_pair, on_reports

_CITE = "Fig. 14, S4.3"

_DEVIATION = "crossover at ~4 threads vs the paper's ~12 (earlier saturation)"

def _keeps_scaling(reports: ReportSet) -> PredicateResult:
    """Optimized tput at the top count > 1.5x the baseline's second point."""
    optimized = reports.curve("tput optimized").y[-1]
    baseline = reports.curve("tput baseline").y[1]
    return PredicateResult(
        optimized > 1.5 * baseline,
        f"optimized {optimized:.3f} vs baseline {baseline:.3f} ({optimized / baseline:.2f}x)",
        "optimized tput at the top thread count > 1.5x baseline at the second",
    )


CLAIMS = (
    Claim(
        id="E9B/latency-crossover",
        experiment="fig14", generation=1,
        claim="redirection loses single-threaded, wins for good by ~4 threads",
        citation=_CITE,
        allowance=_DEVIATION,
        check=on_pair(
            "latency optimized", "latency baseline", crossover_at(2, 8)
        ),
    ),
    Claim(
        id="E9B/tput-crossover",
        experiment="fig14", generation=1,
        claim="throughput crosses over at the same point",
        citation=_CITE,
        allowance=_DEVIATION,
        check=on_pair(
            "tput optimized", "tput baseline",
            crossover_at(2, 8, higher_is_better=True),
        ),
    ),
    Claim(
        id="E9B/saturated-win",
        experiment="fig14", generation=1,
        claim="at 16 threads the optimized layout cuts latency to ~42%",
        citation=_CITE,
        check=on_pair(
            "latency optimized", "latency baseline",
            ratio_approx(0.42, 0.15, at_x=16),
        ),
    ),
    Claim(
        id="E9B/single-thread-loss",
        experiment="fig14", generation=1,
        claim="single-threaded, the extra copy makes redirection slower",
        citation=_CITE,
        check=on_pair(
            "latency optimized", "latency baseline",
            ordering(higher_is_better=True, x_max=1),
        ),
    ),
    Claim(
        id="E9B/optimized-keeps-scaling",
        experiment="fig14", generation=1,
        claim="the baseline saturates on wasted media reads while the "
              "optimized layout keeps scaling past it",
        citation=_CITE,
        check=on_reports(_keeps_scaling),
    ),
    Claim(
        id="E9B/latency-crossover-g2",
        experiment="fig14", generation=2,
        claim="the crossover shape carries over to G2",
        citation=_CITE,
        allowance=_DEVIATION,
        check=on_pair(
            "latency optimized", "latency baseline", crossover_at(2, 8)
        ),
    ),
)
