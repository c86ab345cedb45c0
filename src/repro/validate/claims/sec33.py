"""S33 — Section 3.3 probes: buffer separation and XPLine transition.

Paper claims (S3.3): the read and write buffers are physically
separate — interleaving reads into a write stream neither amplifies
reads nor causes media writes — and a write landing on a read-buffered
XPLine *transitions* the line into the write buffer, avoiding the
read-modify-write: media traffic is a quarter of iMC traffic for
quarter-line writes, and every transitioned line is one RMW avoided.
In the paper's own order (write first, then read the rest of the
XPLine) the reads are served from the buffers, so media traffic also
stays well below iMC traffic.
"""

from __future__ import annotations

from repro.validate.predicates import PredicateResult
from repro.validate.spec import Claim, ReportSet, on_reports

_CITE = "S3.3"


def _separation(reports: ReportSet) -> PredicateResult:
    """Interleaved reads behave exactly like the read-only baseline."""
    interleaved = reports.value("value", "interleaved RA")
    baseline = reports.value("value", "baseline RA")
    media = reports.value("value", "interleaved media writes (B)")
    ok = abs(interleaved - 1.0) <= 0.01 and abs(interleaved - baseline) <= 0.01 and media == 0
    return PredicateResult(
        ok,
        f"interleaved RA {interleaved:.3f} vs baseline {baseline:.3f}, "
        f"{media:.0f} B media writes",
        "interleaved RA == baseline RA == 1 and zero media writes",
    )


def _media_matches_baseline(reports: ReportSet) -> PredicateResult:
    """Interleaving adds no media writes over the isolated baseline."""
    interleaved = reports.value("value", "interleaved media writes (B)")
    baseline = reports.value("value", "baseline media writes (B)")
    return PredicateResult(
        interleaved == baseline,
        f"{interleaved:.0f} B interleaved vs {baseline:.0f} B baseline",
        "interleaved media writes == baseline media writes",
    )


def _media_ratio(reports: ReportSet) -> PredicateResult:
    """Quarter-line writes cost a quarter of iMC traffic at the media."""
    ratio = reports.value("value", "transition media/iMC traffic")
    return PredicateResult(
        0.05 <= ratio <= 0.35,
        f"media/iMC = {ratio:.3f}",
        "media/iMC traffic in [0.05, 0.35] (0.25 ideal; 0.5 = RMW per write)",
    )


def _write_first_media_ratio(reports: ReportSet) -> PredicateResult:
    """Writing before reading an XPLine still keeps media traffic well below iMC traffic."""
    ratio = reports.value("value", "write-first transition media/iMC traffic")
    return PredicateResult(
        ratio < 0.5,
        f"write-first media/iMC = {ratio:.3f}",
        "write-first media/iMC traffic < 0.5 (0.5 = RMW per write)",
    )


def _rmw_avoided(reports: ReportSet) -> PredicateResult:
    """Writes adopt read-buffered lines instead of re-reading the media."""
    avoided = reports.value("value", "transition RMW avoided")
    return PredicateResult(
        avoided >= 1,
        f"{avoided:.0f} RMWs avoided",
        "at least one read-to-write transition observed",
    )


CLAIMS = (
    Claim(
        id="S33/separation",
        experiment="sec33", generation=1,
        claim="read and write buffers are separate: interleaved reads match "
              "the read-only baseline and cause no media writes",
        citation=_CITE,
        check=on_reports(_separation),
    ),
    Claim(
        id="S33/media-matches-baseline",
        experiment="sec33", generation=1,
        claim="interleaving reads into the write stream leaves media writes "
              "exactly at the isolated baseline's",
        citation=_CITE,
        check=on_reports(_media_matches_baseline),
    ),
    Claim(
        id="S33/media-below-imc",
        experiment="sec33", generation=1,
        claim="transitions keep media traffic at ~1/4 of iMC traffic for "
              "quarter-line writes",
        citation=_CITE,
        check=on_reports(_media_ratio),
    ),
    Claim(
        id="S33/rmw-avoided",
        experiment="sec33", generation=1,
        claim="writes to read-buffered XPLines transition without an RMW",
        citation=_CITE,
        check=on_reports(_rmw_avoided),
    ),
    Claim(
        id="S33/write-first-below-imc",
        experiment="sec33", generation=1,
        claim="with the paper's write-then-read order, reads of a "
              "write-buffered XPLine keep media traffic far below iMC traffic",
        citation=_CITE,
        check=on_reports(_write_first_media_ratio),
    ),
    Claim(
        id="S33/separation-g2",
        experiment="sec33", generation=2,
        claim="buffer separation holds on G2 as well",
        citation=_CITE,
        check=on_reports(_separation),
    ),
    Claim(
        id="S33/media-matches-baseline-g2",
        experiment="sec33", generation=2,
        claim="media writes match the isolated baseline on G2 as well",
        citation=_CITE,
        check=on_reports(_media_matches_baseline),
    ),
    Claim(
        id="S33/media-below-imc-g2",
        experiment="sec33", generation=2,
        claim="G2 transitions also keep media traffic at ~1/4 of iMC traffic",
        citation=_CITE,
        check=on_reports(_media_ratio),
    ),
    Claim(
        id="S33/rmw-avoided-g2",
        experiment="sec33", generation=2,
        claim="G2 writes to read-buffered XPLines transition without an RMW",
        citation=_CITE,
        check=on_reports(_rmw_avoided),
    ),
    Claim(
        id="S33/write-first-below-imc-g2",
        experiment="sec33", generation=2,
        claim="G2 write-then-read also keeps media traffic far below iMC traffic",
        citation=_CITE,
        check=on_reports(_write_first_media_ratio),
    ),
)
