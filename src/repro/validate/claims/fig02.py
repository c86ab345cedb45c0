"""E1 — Figure 2: read amplification of strided reads.

Paper claims (S3.1): RA sits exactly at 4/CpX while the working set
fits the on-DIMM read buffer, then jumps sharply to 4 once it spills —
the sharpness being the FIFO-eviction signature.  The step lands
between 16 and 18 KB on G1 (16 KB buffer) and between 22 and 24 KB on
G2 (22 KB buffer).  RA never dips below 1: the read buffer serves
repeat XPLine accesses but never batches across misses.
"""

from __future__ import annotations

from repro.common.units import kib
from repro.validate.predicates import (
    Predicate,
    PredicateResult,
    knee_between,
    never_below,
    plateau,
)
from repro.validate.spec import Claim, ReportSet, on_reports, on_series

_CITE = "Fig. 2, S3.1"


def _every_cpx(predicate: Predicate):
    """``predicate`` holds on every CpX curve (first failure reported)."""

    def check(reports: ReportSet) -> PredicateResult:
        for cpx in (1, 2, 3, 4):
            name = f"read {cpx} cacheline" + ("s" if cpx > 1 else "")
            result = predicate(reports.curve(name))
            if not result.passed:
                return PredicateResult(False, f"{name}: {result.measured}", result.expected)
        return result

    return check


CLAIMS = (
    Claim(
        id="E1/ra-plateau-cpx4",
        experiment="fig2", generation=1,
        claim="RA = 1 while WSS fits the 16 KB read buffer (CpX = 4)",
        citation=_CITE,
        check=on_series("read 4 cachelines", plateau(1.0, 0.02, x_max=kib(16))),
    ),
    Claim(
        id="E1/ra-plateau-cpx3",
        experiment="fig2", generation=1,
        claim="RA = 4/3 while WSS fits the buffer (CpX = 3)",
        citation=_CITE,
        check=on_series("read 3 cachelines", plateau(4 / 3, 0.02, x_max=kib(16))),
    ),
    Claim(
        id="E1/ra-plateau-cpx2",
        experiment="fig2", generation=1,
        claim="RA = 2 while WSS fits the buffer (CpX = 2)",
        citation=_CITE,
        check=on_series("read 2 cachelines", plateau(2.0, 0.02, x_max=kib(16))),
    ),
    Claim(
        id="E1/ra-cpx1-worstcase",
        experiment="fig2", generation=1,
        claim="CpX = 1 pays the full 4x amplification at every WSS",
        citation=_CITE,
        check=on_series("read 1 cacheline", plateau(4.0, 0.02)),
    ),
    Claim(
        id="E1/knee-g1",
        experiment="fig2", generation=1,
        claim="G1 RA steps up between 16 and 18 KB (read-buffer capacity)",
        citation=_CITE,
        check=on_series(
            "read 4 cachelines",
            knee_between(kib(17), kib(18), baseline=1.0),
        ),
    ),
    Claim(
        id="E1/fifo-step",
        experiment="fig2", generation=1,
        claim="past capacity the step is sharp: RA = 4 immediately (FIFO eviction)",
        citation=_CITE,
        check=on_series("read 4 cachelines", plateau(4.0, 0.02, x_min=kib(18))),
    ),
    Claim(
        id="E1/ra-floor",
        experiment="fig2", generation=1,
        claim="RA never drops below 1 (buffer does not batch across misses)",
        citation=_CITE,
        check=on_reports(_every_cpx(never_below(1.0))),
    ),
    Claim(
        id="E1/fifo-step-every-cpx",
        experiment="fig2", generation=1,
        claim="past capacity every CpX pays the full RA = 4 (no partial reuse survives FIFO)",
        citation=_CITE,
        check=on_reports(_every_cpx(plateau(4.0, 0.02, x_min=kib(18)))),
    ),
    Claim(
        id="E1/ra-plateau-g2",
        experiment="fig2", generation=2,
        claim="G2's larger buffer holds RA = 1 through 22 KB (CpX = 4)",
        citation=_CITE,
        check=on_series("read 4 cachelines", plateau(1.0, 0.02, x_max=kib(22))),
    ),
    Claim(
        id="E1/knee-g2",
        experiment="fig2", generation=2,
        claim="G2 RA steps up between 22 and 24 KB (22 KB read buffer)",
        citation=_CITE,
        check=on_series(
            "read 4 cachelines",
            knee_between(kib(23), kib(24), baseline=1.0),
        ),
    ),
    Claim(
        id="E1/ra-plateau-cpx2-g2",
        experiment="fig2", generation=2,
        claim="G2 holds RA = 2 through 22 KB (CpX = 2)",
        citation=_CITE,
        check=on_series("read 2 cachelines", plateau(2.0, 0.02, x_max=kib(22))),
    ),
    Claim(
        id="E1/ra-cpx1-worstcase-g2",
        experiment="fig2", generation=2,
        claim="CpX = 1 pays the full 4x amplification at every WSS on G2 too",
        citation=_CITE,
        check=on_series("read 1 cacheline", plateau(4.0, 0.02)),
    ),
    Claim(
        id="E1/fifo-step-every-cpx-g2",
        experiment="fig2", generation=2,
        claim="past G2's capacity every CpX pays RA = 4 at once (FIFO eviction)",
        citation=_CITE,
        check=on_reports(_every_cpx(plateau(4.0, 0.02, x_min=kib(24)))),
    ),
    Claim(
        id="E1/ra-floor-g2",
        experiment="fig2", generation=2,
        claim="RA never drops below 1 on G2 either",
        citation=_CITE,
        check=on_reports(_every_cpx(never_below(1.0))),
    ),
)
