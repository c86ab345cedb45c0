"""Composable shape predicates over experiment curves.

The fidelity oracle (:mod:`repro.validate`) checks *shape fidelity*,
not absolute nanoseconds: who wins, by what factor, where knees and
crossovers sit.  Each factory here returns a predicate — a callable
taking a :class:`Curve` (or a pair of curves) and returning a
:class:`PredicateResult` — that one EXPERIMENTS.md claim binds to one
or more report series via :mod:`repro.validate.spec`.

Predicates are deliberately grid-independent: they speak about levels,
windows and orderings rather than exact grid points, so the same claim
passes on the fast profile's coarse grid and the full profile's fine
one (the grid-refinement determinism check in
:mod:`repro.validate.determinism` relies on this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass(frozen=True)
class PredicateResult:
    """Outcome of one predicate evaluation.

    ``measured`` states what the curve actually showed and ``expected``
    what the predicate wanted, so a failing claim prints the numbers
    that drove the verdict without re-running anything.
    """

    passed: bool
    measured: str
    expected: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Curve:
    """One report series paired with its x-axis."""

    x: tuple
    y: tuple

    def __post_init__(self) -> None:
        """Reject mismatched axis lengths at construction."""
        if len(self.x) != len(self.y):
            raise ValueError(f"curve length mismatch: {len(self.x)} x vs {len(self.y)} y")

    @classmethod
    def of(cls, x: Sequence, y: Sequence[float]) -> "Curve":
        """Build a curve from any sequences (normalized to tuples)."""
        return cls(tuple(x), tuple(y))

    def clip(self, x_min=None, x_max=None) -> "Curve":
        """The sub-curve with ``x_min <= x <= x_max`` (None = open end)."""
        pairs = [
            (x, y)
            for x, y in zip(self.x, self.y)
            if (x_min is None or x >= x_min) and (x_max is None or x <= x_max)
        ]
        return Curve(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    def y_at(self, x) -> float:
        """The y value at the grid point nearest to ``x``."""
        if not self.x:
            raise ValueError("empty curve")
        index = min(range(len(self.x)), key=lambda i: abs(self.x[i] - x))
        return self.y[index]

    def first_x_where(self, condition: Callable[[float], bool]):
        """Smallest x whose y satisfies ``condition`` (None if none does)."""
        for x, y in zip(self.x, self.y):
            if condition(y):
                return x
        return None


#: A single-curve predicate.
Predicate = Callable[[Curve], PredicateResult]
#: A two-curve predicate (first curve is the claim's subject).
PairPredicate = Callable[[Curve, Curve], PredicateResult]


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _span(curve: Curve) -> str:
    return f"[{_fmt(min(curve.y))}, {_fmt(max(curve.y))}] over {len(curve.y)} points"


def plateau(value: float, tol: float, x_min=None, x_max=None) -> Predicate:
    """Every point in the window sits within ``tol`` of ``value``.

    ``tol`` is absolute.  The paper's plateaus (RA = 4/CpX below the
    read-buffer capacity, WA = 0 below the write-buffer capacity) are
    exact in the simulator, so tolerances can be tight.
    """

    def check(curve: Curve) -> PredicateResult:
        window = curve.clip(x_min, x_max)
        expected = f"plateau at {_fmt(value)} +/- {_fmt(tol)}"
        if not window.y:
            return PredicateResult(False, "empty window", expected)
        worst = max(window.y, key=lambda y: abs(y - value))
        return PredicateResult(
            abs(worst - value) <= tol,
            f"{_span(window)}, worst {_fmt(worst)}",
            expected,
            {"worst": worst, "value": value, "tol": tol},
        )

    return check


def knee_between(lo, hi, *, baseline: float | None = None, departure: float = 0.05) -> Predicate:
    """The curve first departs from its baseline inside ``[lo, hi]``.

    The knee is the first x where ``|y - baseline| > departure``
    (baseline defaults to the curve's first point).  This is how the
    12 KB / 16 KB write-buffer capacities and the 16 KB / 22 KB
    read-buffer capacities are asserted without pinning a grid point.
    """

    def check(curve: Curve) -> PredicateResult:
        base = curve.y[0] if baseline is None else baseline
        knee = curve.first_x_where(lambda y: abs(y - base) > departure)
        expected = f"first departure from {_fmt(base)} (+/-{_fmt(departure)}) in [{lo}, {hi}]"
        if knee is None:
            return PredicateResult(False, "no departure anywhere on the grid", expected)
        return PredicateResult(
            lo <= knee <= hi,
            f"knee at x={knee}",
            expected,
            {"knee": knee, "baseline": base},
        )

    return check


def monotone_rise(x_min=None, x_max=None, tol: float = 0.0, min_gain: float = 0.0) -> Predicate:
    """Non-decreasing (within ``tol``) and gaining at least ``min_gain``.

    ``tol`` forgives simulator jitter between adjacent grid points;
    ``min_gain`` requires the window to actually climb (last - first),
    so a flat line cannot pass as a "rise".
    """

    def check(curve: Curve) -> PredicateResult:
        window = curve.clip(x_min, x_max)
        expected = f"monotone rise (tol {_fmt(tol)}), gain >= {_fmt(min_gain)}"
        if len(window.y) < 2:
            return PredicateResult(False, "fewer than 2 points in window", expected)
        dips = [
            (window.x[i + 1], window.y[i] - window.y[i + 1])
            for i in range(len(window.y) - 1)
            if window.y[i + 1] < window.y[i] - tol
        ]
        gain = window.y[-1] - window.y[0]
        return PredicateResult(
            not dips and gain >= min_gain,
            f"gain {_fmt(gain)}, {len(dips)} dip(s) beyond tol",
            expected,
            {"gain": gain, "dips": dips},
        )

    return check


def monotone_decay(x_min=None, x_max=None, tol: float = 0.0, min_drop: float = 0.0) -> Predicate:
    """Non-increasing (within ``tol``) and dropping at least ``min_drop``."""

    def check(curve: Curve) -> PredicateResult:
        inverted = Curve(curve.x, tuple(-y for y in curve.y))
        result = monotone_rise(x_min, x_max, tol=tol, min_gain=min_drop)(inverted)
        return PredicateResult(
            result.passed,
            result.measured.replace("gain", "drop"),
            f"monotone decay (tol {_fmt(tol)}), drop >= {_fmt(min_drop)}",
            result.details,
        )

    return check


def never_below(floor: float, tol: float = 0.0) -> Predicate:
    """No point dips below ``floor - tol`` (e.g. RA >= 1, exclusivity)."""

    def check(curve: Curve) -> PredicateResult:
        low = min(curve.y)
        return PredicateResult(
            low >= floor - tol,
            f"minimum {_fmt(low)}",
            f"never below {_fmt(floor)}",
            {"min": low},
        )

    return check


def within(lo: float, hi: float, at_x=None, x_min=None, x_max=None) -> Predicate:
    """The value at ``at_x`` (or every point in the window) is in ``[lo, hi]``."""

    def check(curve: Curve) -> PredicateResult:
        expected = f"in [{_fmt(lo)}, {_fmt(hi)}]" + (f" at x={at_x}" if at_x is not None else "")
        if at_x is not None:
            value = curve.y_at(at_x)
            return PredicateResult(lo <= value <= hi, _fmt(value), expected, {"value": value})
        window = curve.clip(x_min, x_max)
        if not window.y:
            return PredicateResult(False, "empty window", expected)
        bad = [(x, y) for x, y in zip(window.x, window.y) if not lo <= y <= hi]
        return PredicateResult(
            not bad, f"{_span(window)}, {len(bad)} point(s) outside", expected, {"outside": bad}
        )

    return check


def flat_wrt_wss(rel_tol: float = 0.15, x_min=None, x_max=None) -> Predicate:
    """The curve's spread stays within ``rel_tol`` of its mean.

    "Flat with respect to working-set size" — e.g. pure-write latency
    at every WSS, or fig13's optimized read ratio pinned at 1.
    """

    def check(curve: Curve) -> PredicateResult:
        window = curve.clip(x_min, x_max)
        expected = f"flat within {rel_tol:.0%} of the mean"
        if not window.y:
            return PredicateResult(False, "empty window", expected)
        mean = sum(window.y) / len(window.y)
        if mean == 0:
            spread = max(abs(y) for y in window.y)
            return PredicateResult(spread == 0, f"mean 0, spread {_fmt(spread)}", expected)
        spread = max(abs(y - mean) for y in window.y) / abs(mean)
        return PredicateResult(
            spread <= rel_tol,
            f"mean {_fmt(mean)}, spread {spread:.1%}",
            expected,
            {"mean": mean, "spread": spread},
        )

    return check


def ratio_approx(target: float, rel: float = 0.2, at_x=None) -> PairPredicate:
    """subject/reference ~= ``target`` (at ``at_x``, or curve maxima).

    With ``at_x=None`` the ratio of the curve maxima is compared —
    robust for "peaks at ~N x the settled level" claims where the two
    curves peak at slightly different grid points.
    """

    def check(subject: Curve, reference: Curve) -> PredicateResult:
        if at_x is not None:
            a, b = subject.y_at(at_x), reference.y_at(at_x)
        else:
            a, b = max(subject.y), max(reference.y)
        expected = f"ratio {_fmt(target)} +/- {rel:.0%}" + (
            f" at x={at_x}" if at_x is not None else " (of maxima)"
        )
        if b == 0:
            return PredicateResult(False, f"reference is 0 ({_fmt(a)}/0)", expected)
        ratio = a / b
        return PredicateResult(
            abs(ratio - target) <= abs(target) * rel,
            f"{_fmt(a)}/{_fmt(b)} = {_fmt(ratio)}",
            expected,
            {"ratio": ratio, "target": target},
        )

    return check


def span_ratio(x_from, x_to, lo: float, hi: float) -> Predicate:
    """``y(x_to) / y(x_from)`` lies in ``[lo, hi]``.

    Scaling-factor claims over one curve: interleaving's 6-DIMM
    bandwidth gain over 1 DIMM, or fig8's climb from the in-buffer
    floor to the media-bound level.
    """

    def check(curve: Curve) -> PredicateResult:
        a, b = curve.y_at(x_from), curve.y_at(x_to)
        expected = f"y({x_to})/y({x_from}) in [{_fmt(lo)}, {_fmt(hi)}]"
        if a == 0:
            return PredicateResult(False, f"y({x_from}) is 0", expected)
        ratio = b / a
        return PredicateResult(
            lo <= ratio <= hi,
            f"{_fmt(b)}/{_fmt(a)} = {_fmt(ratio)}",
            expected,
            {"ratio": ratio},
        )

    return check


def peak_over_floor(lo: float, hi: float) -> Predicate:
    """``max(y) / min(y)`` lies in ``[lo, hi]``.

    The read-after-persist decay claims: the distance-0 peak sits at
    ~N x the settled floor, without pinning where either lands on the
    grid.
    """

    def check(curve: Curve) -> PredicateResult:
        peak, floor = max(curve.y), min(curve.y)
        expected = f"peak/floor in [{_fmt(lo)}, {_fmt(hi)}]"
        if floor == 0:
            return PredicateResult(False, f"floor is 0 (peak {_fmt(peak)})", expected)
        ratio = peak / floor
        return PredicateResult(
            lo <= ratio <= hi,
            f"{_fmt(peak)}/{_fmt(floor)} = {_fmt(ratio)}",
            expected,
            {"ratio": ratio},
        )

    return check


def ordering(margin: float = 0.0, higher_is_better: bool = False, x_min=None, x_max=None) -> PairPredicate:
    """The subject beats the reference at every point in the window.

    "Beats" means lower by at least ``margin`` (relative), or higher
    when ``higher_is_better`` — the paper's who-wins claims (redo
    beats in-place on G1, helper threads beat baseline on PM).
    """

    def check(subject: Curve, reference: Curve) -> PredicateResult:
        a, b = subject.clip(x_min, x_max), reference.clip(x_min, x_max)
        expected = (
            f"subject {'>' if higher_is_better else '<'} reference by >= {margin:.0%} everywhere"
        )
        if len(a.y) != len(b.y) or not a.y:
            return PredicateResult(False, f"window mismatch ({len(a.y)} vs {len(b.y)})", expected)
        losses = []
        for x, ya, yb in zip(a.x, a.y, b.y):
            wins = ya >= yb * (1 + margin) if higher_is_better else ya <= yb * (1 - margin)
            if not wins:
                losses.append((x, ya, yb))
        return PredicateResult(
            not losses,
            f"{len(a.y) - len(losses)}/{len(a.y)} points won",
            expected,
            {"losses": losses},
        )

    return check


def crossover_at(lo, hi, higher_is_better: bool = False) -> PairPredicate:
    """The subject starts losing and is winning for good by ``[lo, hi]``.

    Finds the first x from which the subject beats the reference at
    every later point (fig14: redirection loses at 1 thread, wins from
    ~4 on).  Passes when that x lies in ``[lo, hi]`` and the subject
    genuinely loses somewhere before it.
    """

    def check(subject: Curve, reference: Curve) -> PredicateResult:
        expected = f"crossover in [{lo}, {hi}] (losing before, winning after)"
        if len(subject.y) != len(reference.y) or len(subject.y) < 2:
            return PredicateResult(False, "curve length mismatch or too short", expected)

        def wins(index: int) -> bool:
            a, b = subject.y[index], reference.y[index]
            return a > b if higher_is_better else a < b

        crossover = None
        for start in range(len(subject.x)):
            if all(wins(i) for i in range(start, len(subject.x))):
                crossover = subject.x[start]
                loses_before = any(not wins(i) for i in range(start))
                break
        if crossover is None:
            return PredicateResult(False, "subject never wins for good", expected)
        if crossover == subject.x[0]:
            return PredicateResult(False, "subject wins everywhere (no crossover)", expected)
        return PredicateResult(
            lo <= crossover <= hi and loses_before,
            f"wins for good from x={crossover}",
            expected,
            {"crossover": crossover},
        )

    return check


def all_of(*predicates: Predicate) -> Predicate:
    """Conjunction: every sub-predicate must pass (details are joined)."""

    def check(curve: Curve) -> PredicateResult:
        results = [predicate(curve) for predicate in predicates]
        failed = [r for r in results if not r.passed]
        return PredicateResult(
            not failed,
            "; ".join(r.measured for r in (failed or results)),
            " AND ".join(r.expected for r in results),
            {"parts": [r.details for r in results]},
        )

    return check
