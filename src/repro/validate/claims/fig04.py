"""E4 — Figure 4: write-buffer hit ratio under random partial writes.

Paper claims (S3.2): the hit ratio is 1.0 while the working set fits
the write buffer (12 KB on G1, 16 KB on G2), then decays *gracefully*
— random eviction spreads the misses, unlike a FIFO cliff — and G2's
larger buffer keeps it higher at every working-set size.

The fig4 experiment sweeps both generations into one report ("G1
Optane" / "G2 Optane" series), so every claim here registers under
generation 1; the G2-flavoured claims simply select the G2 series.
"""

from __future__ import annotations

from repro.common.units import kib
from repro.validate.predicates import (
    PredicateResult,
    all_of,
    knee_between,
    monotone_decay,
    ordering,
    plateau,
    within,
)
from repro.validate.spec import Claim, ReportSet, on_pair, on_reports, on_series

_CITE = "Fig. 4, S3.2"


def _no_cliff(series: str):
    """No drop between adjacent grid points reaches 0.5 (a FIFO cliff would)."""

    def check(reports: ReportSet) -> PredicateResult:
        y = reports.curve(series).y
        drop = max(a - b for a, b in zip(y, y[1:]))
        return PredicateResult(
            drop < 0.5, f"largest step drop {drop:.3f}", "every step drop < 0.5"
        )

    return check

CLAIMS = (
    Claim(
        id="E4/full-hit-below-capacity",
        experiment="fig4", generation=1,
        claim="G1 hit ratio is 1.0 while WSS fits the 12 KB write buffer",
        citation=_CITE,
        check=on_series("G1 Optane", plateau(1.0, 0.005, x_max=kib(12))),
    ),
    Claim(
        id="E4/full-hit-g2",
        experiment="fig4", generation=1,
        claim="G2 hit ratio is 1.0 while WSS fits its 16 KB write buffer",
        citation=_CITE,
        check=on_series("G2 Optane", plateau(1.0, 0.005, x_max=kib(16))),
    ),
    Claim(
        id="E4/knee-g1",
        experiment="fig4", generation=1,
        claim="G1 hit ratio departs from 1.0 just past 12 KB",
        citation=_CITE,
        allowance="knee at ~14 KB on the fast grid (in-flight-line headroom)",
        check=on_series("G1 Optane", knee_between(kib(13), kib(14), baseline=1.0)),
    ),
    Claim(
        id="E4/knee-g2",
        experiment="fig4", generation=1,
        claim="G2 hit ratio departs from 1.0 just past 16 KB",
        citation=_CITE,
        allowance="knee at ~18 KB on the fast grid (in-flight-line headroom)",
        check=on_series("G2 Optane", knee_between(kib(17), kib(18), baseline=1.0)),
    ),
    Claim(
        id="E4/graceful-decay",
        experiment="fig4", generation=1,
        claim="past capacity G1 decays gracefully (random eviction), no cliff",
        citation=_CITE,
        check=on_series(
            "G1 Optane",
            all_of(
                monotone_decay(x_min=kib(12), tol=0.02, min_drop=0.25),
                within(0.25, 0.75, at_x=kib(32)),
            ),
        ),
    ),
    Claim(
        id="E4/graceful-decay-g2",
        experiment="fig4", generation=1,
        claim="past capacity G2 decays gracefully as well",
        citation=_CITE,
        check=on_series(
            "G2 Optane",
            all_of(
                monotone_decay(x_min=kib(16), tol=0.02, min_drop=0.25),
                within(0.35, 0.8, at_x=kib(32)),
            ),
        ),
    ),
    Claim(
        id="E4/g2-capacity-larger",
        experiment="fig4", generation=1,
        claim="G2's larger buffer keeps its hit ratio >= G1's at every WSS",
        citation=_CITE,
        check=on_pair(
            "G2 Optane", "G1 Optane", ordering(margin=0.0, higher_is_better=True)
        ),
    ),
    Claim(
        id="E4/no-cliff",
        experiment="fig4", generation=1,
        claim="G1's hit ratio never falls off a cliff between adjacent WSS points",
        citation=_CITE,
        check=on_reports(_no_cliff("G1 Optane")),
    ),
    Claim(
        id="E4/no-cliff-g2",
        experiment="fig4", generation=1,
        claim="G2's hit ratio never falls off a cliff either",
        citation=_CITE,
        check=on_reports(_no_cliff("G2 Optane")),
    ),
)
