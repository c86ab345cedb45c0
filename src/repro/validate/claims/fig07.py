"""E5 — Figure 7: the read-after-persist (RAP) penalty.

Paper claims (S3.5): reading a cacheline right after persisting it
costs ~2500 cycles on G1 PM under clwb+mfence, decaying by halves with
reuse distance toward the ~350-cycle baseline (~7-10x peak/floor).
sfence defers the cost for a ~2-flush window; nt-stores behave like
clwb+mfence; the remote-socket peak is ~1.5x higher; DRAM shows the
same shape at only ~2x.  On G2 (eADR) the clwb RAP penalty is gone —
flat latency at every distance — while nt-stores still pay it.
"""

from __future__ import annotations

from repro.validate.predicates import (
    all_of,
    flat_wrt_wss,
    peak_over_floor,
    ratio_approx,
    span_ratio,
    within,
)
from repro.validate.spec import Claim, on_pair, on_series

_CITE = "Fig. 7, S3.5"

CLAIMS = (
    Claim(
        id="E5/mfence-peak",
        experiment="fig7", generation=1,
        claim="clwb+mfence distance-0 RAP costs ~2500 cycles on PM",
        citation=_CITE,
        check=on_series("clwb+mfence", within(2200, 2750, at_x=0), report="-pm"),
    ),
    Claim(
        id="E5/rap-decay",
        experiment="fig7", generation=1,
        claim="the RAP peak sits ~7-10x above the settled latency",
        citation=_CITE,
        check=on_series("clwb+mfence", peak_over_floor(5, 12), report="-pm"),
    ),
    Claim(
        id="E5/amortizes-by-halves",
        experiment="fig7", generation=1,
        claim="doubling reuse distance halves the per-iteration penalty",
        citation=_CITE,
        check=on_series("clwb+mfence", span_ratio(0, 1, 0.45, 0.55), report="-pm"),
    ),
    Claim(
        id="E5/sfence-window",
        experiment="fig7", generation=1,
        claim="sfence hides the penalty for a ~2-flush window, then pays it",
        citation=_CITE,
        check=on_series(
            "clwb+sfence",
            all_of(within(0, 300, at_x=0), within(650, 900, at_x=2)),
            report="-pm",
        ),
    ),
    Claim(
        id="E5/sfence-converges",
        experiment="fig7", generation=1,
        claim="by distance ~4-8 sfence and mfence costs converge",
        citation=_CITE,
        check=on_pair(
            "clwb+sfence", "clwb+mfence", ratio_approx(1.0, 0.01, at_x=8),
            report="-pm",
        ),
    ),
    Claim(
        id="E5/nt-matches-clwb",
        experiment="fig7", generation=1,
        claim="nt-store+mfence pays the same RAP peak as clwb+mfence",
        citation=_CITE,
        check=on_pair(
            "nt-store+mfence", "clwb+mfence", ratio_approx(1.0, 0.02, at_x=0),
            report="-pm",
        ),
    ),
    Claim(
        id="E5/remote-elevated",
        experiment="fig7", generation=1,
        claim="the remote-socket RAP peak is ~1.5x the local one",
        citation=_CITE,
        check=on_pair(
            "clwb+mfence", "clwb+mfence", ratio_approx(1.49, 0.1, at_x=0),
            report="-pm_remote", reference_report="-pm",
        ),
    ),
    Claim(
        id="E5/dram-decay-shallower",
        experiment="fig7", generation=1,
        claim="DRAM shows the same RAP shape at only ~2-3x peak/floor",
        citation=_CITE,
        check=on_series("clwb+mfence", peak_over_floor(2.0, 3.2), report="-dram"),
    ),
    Claim(
        id="E5/near-far-gap",
        experiment="fig7", generation=1,
        claim="a distance-0 RAP costs >4x a distance-32 read (clwb+mfence)",
        citation=_CITE,
        check=on_series("clwb+mfence", span_ratio(32, 0, 4.0, 12.0), report="-pm"),
    ),
    Claim(
        id="E5/nt-near-far-gap",
        experiment="fig7", generation=1,
        claim="nt-store+mfence pays >3x at distance 0 over distance 32",
        citation=_CITE,
        check=on_series("nt-store+mfence", span_ratio(32, 0, 3.0, 12.0), report="-pm"),
    ),
    Claim(
        id="E5/sfence-window-d1",
        experiment="fig7", generation=1,
        claim="the sfence window still hides the penalty at distance 1",
        citation=_CITE,
        check=on_series("clwb+sfence", within(0, 400, at_x=1), report="-pm"),
    ),
    Claim(
        id="E5/g2-clwb-flat",
        experiment="fig7", generation=2,
        claim="eADR removes the clwb RAP penalty on G2: latency is flat",
        citation=_CITE,
        check=on_series("clwb+mfence", flat_wrt_wss(0.05), report="-pm"),
    ),
    Claim(
        id="E5/g2-nt-still-pays",
        experiment="fig7", generation=2,
        claim="G2 nt-stores still pay a ~2300-cycle RAP peak, ~6x the floor",
        citation=_CITE,
        check=on_series(
            "nt-store+mfence",
            all_of(within(2100, 2550, at_x=0), peak_over_floor(5, 7)),
            report="-pm",
        ),
    ),
    Claim(
        id="E5/g2-sfence-equals-mfence",
        experiment="fig7", generation=2,
        claim="with eADR the fence choice stops mattering for clwb",
        citation=_CITE,
        check=on_pair(
            "clwb+sfence", "clwb+mfence", ratio_approx(1.0, 0.001, at_x=0),
            report="-pm",
        ),
    ),
    Claim(
        id="E5/g2-clwb-level",
        experiment="fig7", generation=2,
        claim="G2 clwb+mfence reads right after a persist cost under 500 cycles",
        citation=_CITE,
        check=on_series("clwb+mfence", within(0, 500, at_x=0), report="-pm"),
    ),
    Claim(
        id="E5/g2-nt-near-far-gap",
        experiment="fig7", generation=2,
        claim="G2 nt-store+mfence pays >3x at distance 0 over distance 32",
        citation=_CITE,
        check=on_series("nt-store+mfence", span_ratio(32, 0, 3.0, 7.0), report="-pm"),
    ),
    Claim(
        id="E5/g2-dram-gap",
        experiment="fig7", generation=2,
        claim="G2 DRAM's distance-0 to distance-32 gap stays below 5x",
        citation=_CITE,
        check=on_series("clwb+mfence", span_ratio(32, 0, 0.0, 5.0), report="-dram"),
    ),
)
