"""E3 — Figure 3: write amplification of nt-store partial writes.

Paper claims (S3.2): the write-combining buffer absorbs partial
writes completely while the working set fits (WA = 0 at the media),
then WA climbs toward the theoretical 4/k for k/4-line writes as
evictions increasingly ship underfilled XPLines.  Full-line (100%)
writes stay near WA = 1 on G1 thanks to the periodic write-back; on
G2 (no periodic write-back, 16 KB buffer) even full lines are absorbed
until eviction begins past 16 KB.

Known deviation: the G1 knee lands at 14 KB on the fast grid, not at
the 12 KB capacity — in-flight lines keep a freshly-installed XPLine
unevictable, adding ~2 KB of effective headroom.
"""

from __future__ import annotations

from repro.common.units import kib
from repro.validate.predicates import (
    PredicateResult,
    knee_between,
    monotone_rise,
    ordering,
    plateau,
    within,
)
from repro.validate.spec import Claim, ReportSet, on_pair, on_reports, on_series

_CITE = "Fig. 3, S3.2"

_PARTIAL = ("25% write", "50% write", "75% write")


def _absorbed(series: tuple, x_max: int, tol: float = 0.01):
    """WA pinned at 0 (+/- ``tol``) for every listed series up to ``x_max``."""
    check = plateau(0.0, tol, x_max=x_max)

    def evaluate(reports: ReportSet) -> PredicateResult:
        last = None
        for name in series:
            last = check(reports.curve(name))
            if not last.passed:
                return PredicateResult(False, f"{name}: {last.measured}", last.expected)
        return last

    return evaluate


def _converges(reports: ReportSet) -> PredicateResult:
    """WA at 32 KB approaches the theoretical 4/k for each fraction."""
    windows = {"25% write": (2.75, 4.2), "50% write": (1.35, 2.1), "75% write": (0.9, 1.4)}
    for name, (lo, hi) in windows.items():
        result = within(lo, hi, at_x=kib(32))(reports.curve(name))
        if not result.passed:
            return PredicateResult(False, f"{name}: {result.measured}", result.expected)
    return PredicateResult(
        True, "all three fractions near 4/k at 32 KB",
        "WA(32 KB) in the 4/k window for 25/50/75% writes",
    )



def _ordered_fractions(reports: ReportSet) -> PredicateResult:
    """25% > 50% > 75% everywhere past the knee, by a clear margin."""
    check = ordering(margin=0.15, higher_is_better=True, x_min=kib(16))
    first = check(reports.curve("25% write"), reports.curve("50% write"))
    if not first.passed:
        return PredicateResult(False, f"25% vs 50%: {first.measured}", first.expected)
    second = check(reports.curve("50% write"), reports.curve("75% write"))
    if not second.passed:
        return PredicateResult(False, f"50% vs 75%: {second.measured}", second.expected)
    return PredicateResult(
        True, "25% > 50% > 75% at every point past 16 KB", first.expected
    )


CLAIMS = (
    Claim(
        id="E3/absorbed-below-capacity",
        experiment="fig3", generation=1,
        claim="partial-write WA is exactly 0 while WSS fits the 12 KB buffer",
        citation=_CITE,
        check=on_reports(_absorbed(_PARTIAL, kib(12))),
    ),
    Claim(
        id="E3/knee-g1",
        experiment="fig3", generation=1,
        claim="G1 WA departs from 0 just past the 12 KB buffer capacity",
        citation=_CITE,
        allowance="knee at ~14 KB, not 12 KB: in-flight lines add ~2 KB of "
                  "effective headroom (EXPERIMENTS.md deviation)",
        check=on_series("25% write", knee_between(kib(13), kib(14), baseline=0.0)),
    ),
    Claim(
        id="E3/partial-wa-rises",
        experiment="fig3", generation=1,
        claim="past capacity, 25%-write WA climbs steadily toward 4",
        citation=_CITE,
        check=on_series(
            "25% write", monotone_rise(x_min=kib(14), tol=0.02, min_gain=1.5)
        ),
    ),
    Claim(
        id="E3/partial-wa-converges",
        experiment="fig3", generation=1,
        claim="WA at 32 KB approaches the theoretical 4/k per write fraction",
        citation=_CITE,
        allowance="reaches ~86% of 4/k at the 32 KB grid edge, still climbing",
        check=on_reports(_converges),
    ),
    Claim(
        id="E3/inverse-fraction-ordering",
        experiment="fig3", generation=1,
        claim="smaller write fractions amplify more: WA(25%) > WA(50%) > WA(75%)",
        citation=_CITE,
        check=on_reports(_ordered_fractions),
    ),
    Claim(
        id="E3/full-writes-wa-one",
        experiment="fig3", generation=1,
        claim="full-line writes hold WA ~= 1 at every WSS (periodic write-back)",
        citation=_CITE,
        check=on_series("100% write", within(0.75, 1.05)),
    ),
    Claim(
        id="E3/no-media-writes-in-buffer",
        experiment="fig3", generation=1,
        claim="while WSS fits, partial writes reach the media not at all (WA exactly 0)",
        citation=_CITE,
        check=on_reports(_absorbed(_PARTIAL, kib(8), tol=0.0)),
    ),
    Claim(
        id="E3/full-writes-written-back-small",
        experiment="fig3", generation=1,
        claim="even a WSS that fits the buffer writes full lines back (WA > 0.8 at 8 KB)",
        citation=_CITE,
        check=on_series("100% write", within(0.8, 1.05, at_x=kib(8))),
    ),
    Claim(
        id="E3/wa-at-most-4",
        experiment="fig3", generation=1,
        claim="25%-write WA never exceeds the theoretical 4/k = 4",
        citation=_CITE,
        check=on_series("25% write", within(0.0, 4.0 + 1e-9)),
    ),
    Claim(
        id="E3/absorbed-g2",
        experiment="fig3", generation=2,
        claim="G2's 16 KB buffer (no periodic write-back) absorbs ALL writes, "
              "including full lines, until 16 KB",
        citation=_CITE,
        check=on_reports(_absorbed(_PARTIAL + ("100% write",), kib(16))),
    ),
    Claim(
        id="E3/knee-g2",
        experiment="fig3", generation=2,
        claim="G2 WA departs from 0 just past the 16 KB buffer capacity",
        citation=_CITE,
        allowance="same in-flight-line headroom as G1's knee",
        check=on_series("25% write", knee_between(kib(17), kib(18), baseline=0.0)),
    ),
    Claim(
        id="E3/partial-wa-rises-g2",
        experiment="fig3", generation=2,
        claim="past capacity, G2's 25%-write WA climbs steadily",
        citation=_CITE,
        check=on_series(
            "25% write", monotone_rise(x_min=kib(18), tol=0.02, min_gain=1.5)
        ),
    ),
    Claim(
        id="E3/partial-wa-converges-g2",
        experiment="fig3", generation=2,
        claim="G2's WA at 32 KB also approaches 4/k per write fraction",
        citation=_CITE,
        check=on_reports(_converges),
    ),
    Claim(
        id="E3/wa-at-most-4-g2",
        experiment="fig3", generation=2,
        claim="G2's 25%-write WA never exceeds the theoretical 4",
        citation=_CITE,
        check=on_series("25% write", within(0.0, 4.0 + 1e-9)),
    ),
)
