"""Tests for the fidelity oracle (:mod:`repro.validate`).

Predicates are exercised on synthetic curves, the claim registry is
sanity-checked as a whole, FidelityReport bookkeeping (including the
mutation-smoke exit logic) is tested with stub verdicts, and a small
live validation runs the cheapest experiments end to end.  Full
validation and live mutation smoke are marked ``slow``/``campaign``.
"""

import json

import pytest

from repro.common.errors import ConfigError
from repro.common.units import kib
from repro.experiments.common import ExperimentReport
from repro.runner.registry import REGISTRY
from repro.validate import (
    Claim,
    ClaimVerdict,
    Curve,
    FidelityReport,
    MUTATIONS,
    PredicateResult,
    ReportSet,
    parse_mutation,
    select_claims,
    validate,
)
from repro.validate.claims import all_claims
from repro.validate.mutations import resolve_expected
from repro.validate.predicates import (
    all_of,
    crossover_at,
    flat_wrt_wss,
    knee_between,
    monotone_decay,
    monotone_rise,
    never_below,
    ordering,
    peak_over_floor,
    plateau,
    ratio_approx,
    span_ratio,
    value_approx,
    within,
)
from repro.validate.spec import on_pair, on_reports, on_series


def curve(*y, x=None):
    return Curve.of(x if x is not None else list(range(len(y))), y)


class TestCurve:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Curve.of([1, 2], [1.0])

    def test_clip_is_inclusive(self):
        clipped = curve(10, 20, 30, 40).clip(x_min=1, x_max=2)
        assert clipped.x == (1, 2)
        assert clipped.y == (20, 30)

    def test_y_at_picks_nearest_grid_point(self):
        assert curve(10, 20, 30).y_at(0.6) == 20

    def test_first_x_where(self):
        assert curve(1, 1, 5, 9).first_x_where(lambda y: y > 4) == 2
        assert curve(1, 1).first_x_where(lambda y: y > 4) is None


class TestSingleCurvePredicates:
    def test_plateau_windowed(self):
        c = curve(1.0, 1.0, 4.0, 4.0)
        assert plateau(1.0, 0.01, x_max=1)(c).passed
        assert not plateau(1.0, 0.01)(c).passed

    def test_knee_between(self):
        c = curve(1.0, 1.0, 1.0, 4.0, 4.0)
        assert knee_between(2, 4, baseline=1.0)(c).passed
        assert not knee_between(0, 2, baseline=1.0)(c).passed
        assert not knee_between(0, 4)(curve(1.0, 1.0)).passed  # never departs

    def test_monotone_rise_needs_gain(self):
        assert monotone_rise(min_gain=2.0)(curve(1, 2, 4)).passed
        assert not monotone_rise(min_gain=2.0)(curve(1, 1, 1)).passed
        assert not monotone_rise()(curve(1, 3, 2)).passed
        assert monotone_rise(tol=1.5)(curve(1, 3, 2)).passed

    def test_monotone_decay(self):
        assert monotone_decay(min_drop=2.0)(curve(4, 3, 1)).passed
        assert not monotone_decay()(curve(4, 5, 1)).passed

    def test_never_below(self):
        assert never_below(1.0)(curve(1.0, 2.0)).passed
        assert not never_below(1.0)(curve(0.9, 2.0)).passed

    def test_within_point_and_window(self):
        c = curve(5, 50, 500)
        assert within(40, 60, at_x=1)(c).passed
        assert within(0, 60, x_max=1)(c).passed
        assert not within(0, 60)(c).passed

    def test_value_approx(self):
        assert value_approx(0, 100, rel=0.1)(curve(95)).passed
        assert not value_approx(0, 100, rel=0.01)(curve(95)).passed

    def test_flat_wrt_wss(self):
        assert flat_wrt_wss(0.05)(curve(100, 101, 99)).passed
        assert not flat_wrt_wss(0.05)(curve(100, 150)).passed
        assert flat_wrt_wss()(curve(0, 0)).passed  # all-zero is flat

    def test_span_ratio(self):
        c = curve(100, 200, 450)
        assert span_ratio(0, 2, 4.0, 5.0)(c).passed
        assert not span_ratio(0, 1, 4.0, 5.0)(c).passed

    def test_peak_over_floor(self):
        assert peak_over_floor(2.5, 3.5)(curve(300, 150, 100)).passed
        assert not peak_over_floor(2.5, 3.5)(curve(300, 200)).passed
        assert not peak_over_floor(1, 9)(curve(3, 0)).passed  # zero floor

    def test_all_of_joins_expectations(self):
        combined = all_of(never_below(1.0), plateau(2.0, 0.1))
        result = combined(curve(2.0, 2.0))
        assert result.passed
        assert "AND" in result.expected
        assert not combined(curve(2.0, 9.0)).passed


class TestPairPredicates:
    def test_ratio_approx_at_x_and_maxima(self):
        a, b = curve(10, 40), curve(10, 20)
        assert ratio_approx(2.0, 0.05)(a, b).passed  # maxima: 40/20
        assert ratio_approx(1.0, 0.05, at_x=0)(a, b).passed
        assert not ratio_approx(2.0, 0.05, at_x=0)(a, b).passed

    def test_ordering_margin_and_direction(self):
        lower, higher = curve(1.0, 1.0), curve(2.0, 2.0)
        assert ordering(margin=0.4)(lower, higher).passed
        assert not ordering(margin=0.6)(lower, higher).passed
        assert ordering(margin=0.4, higher_is_better=True)(higher, lower).passed

    def test_ordering_negative_margin_is_tolerance(self):
        # Ties within the tolerance count as wins (fig13's iMC vs PM).
        near = curve(1.001, 1.0)
        base = curve(1.0, 1.0)
        assert not ordering(margin=0.0)(near, base).passed
        assert ordering(margin=-0.005)(near, base).passed

    def test_crossover_at(self):
        subject = curve(5, 4, 2, 1)
        reference = curve(3, 3, 3, 3)
        assert crossover_at(1, 3)(subject, reference).passed
        assert not crossover_at(3, 9)(subject, reference).passed
        # Winning everywhere is not a crossover.
        assert not crossover_at(0, 3)(curve(1, 1), curve(3, 3)).passed


def _report(experiment_id="fig-x", series=(("a", [1.0, 2.0]),), x=(1, 2)):
    report = ExperimentReport(
        experiment_id=experiment_id, title="t", x_label="x", x_values=list(x)
    )
    for name, values in series:
        report.add_series(name, list(values))
    return report


class TestReportSet:
    def test_report_selection_by_substring(self):
        reports = ReportSet([_report("fig7-pm"), _report("fig7-dram")])
        assert reports.report("dram").experiment_id == "fig7-dram"
        assert reports.report().experiment_id == "fig7-pm"
        with pytest.raises(KeyError, match="fig7-pm"):
            reports.report("nope")

    def test_curve_names_available_series_on_miss(self):
        reports = ReportSet([_report()])
        with pytest.raises(KeyError, match="have: a"):
            reports.curve("missing")

    def test_value_exact_x(self):
        reports = ReportSet([_report(x=("cfg1", "cfg2"), series=(("a", [7.0, 9.0]),))])
        assert reports.value("a", "cfg2") == 9.0
        with pytest.raises(KeyError):
            reports.value("a", "cfg3")


class TestClaim:
    def _claim(self, check):
        return Claim(
            id="T/x", experiment="fig2", generation=1,
            claim="test", citation="none", check=check,
        )

    def test_id_must_be_namespaced(self):
        with pytest.raises(ValueError):
            Claim(id="bare", experiment="fig2", generation=1,
                  claim="c", citation="c", check=on_series("a", never_below(0)))

    def test_generation_validated(self):
        with pytest.raises(ValueError):
            Claim(id="T/x", experiment="fig2", generation=3,
                  claim="c", citation="c", check=on_series("a", never_below(0)))

    def test_evaluation_error_becomes_failure(self):
        verdict = self._claim(on_series("missing", never_below(0))).evaluate([_report()])
        assert not verdict.passed
        assert "evaluation error" in verdict.measured

    def test_on_pair_and_on_reports(self):
        report = _report(series=(("a", [1.0, 1.0]), ("b", [2.0, 2.0])))
        assert self._claim(on_pair("a", "b", ordering())).evaluate([report]).passed
        custom = on_reports(
            lambda rs: PredicateResult(len(rs.reports) == 1, "1 report", "1 report")
        )
        assert self._claim(custom).evaluate([report]).passed


class TestClaimRegistry:
    def test_registry_is_large_and_unique(self):
        claims = all_claims()
        assert len(claims) >= 90
        assert len({c.id for c in claims}) == len(claims)

    def test_every_claim_targets_a_known_experiment(self):
        for claim in all_claims():
            assert claim.experiment in REGISTRY, claim.id
            assert claim.citation
            assert claim.claim

    def test_every_experiment_has_a_claim(self):
        claimed = {c.experiment for c in all_claims()}
        unclaimed = [name for name in REGISTRY
                     if not name.startswith("crash-") and name not in claimed]
        assert unclaimed == []

    def test_both_generations_covered(self):
        generations = {c.generation for c in all_claims()}
        assert generations == {1, 2}

    def test_select_claims_filters(self):
        fig2 = select_claims(experiments=["fig2"])
        assert fig2 and all(c.experiment == "fig2" for c in fig2)
        g1 = select_claims(generations=(1,))
        assert g1 and all(c.generation == 1 for c in g1)
        assert select_claims(experiments=["nonexistent"]) == []


def _verdict(claim_id, passed):
    return ClaimVerdict(
        claim_id=claim_id, experiment="fig2", generation=1, claim="c",
        citation="c", passed=passed, measured="m", expected="e",
    )


class TestFidelityReport:
    def test_normal_ok_requires_all_pass(self):
        report = FidelityReport(verdicts=[_verdict("E1/a", True), _verdict("E1/b", False)])
        assert not report.ok()
        report.verdicts = [_verdict("E1/a", True)]
        assert report.ok()

    def test_run_errors_force_failure(self):
        report = FidelityReport(verdicts=[_verdict("E1/a", True)],
                                run_errors={"fig2:g1": "boom"})
        assert not report.ok()

    def test_mutation_ok_requires_exact_failure_match(self):
        report = FidelityReport(
            mutation="knob=v", expected_failures=["E1/a"],
            verdicts=[_verdict("E1/a", False), _verdict("E1/b", True)],
        )
        assert report.ok()
        # Collateral damage: an unexpected failure.
        report.verdicts = [_verdict("E1/a", False), _verdict("E1/b", False)]
        assert report.unexpected_failures() and not report.ok()
        # Toothless oracle: the expected failure passed.
        report.verdicts = [_verdict("E1/a", True), _verdict("E1/b", True)]
        assert report.unexpected_passes() and not report.ok()
        # Expected claim never evaluated.
        report.verdicts = [_verdict("E1/b", True)]
        assert report.missing_expected() == ["E1/a"] and not report.ok()

    def test_json_round_trip(self):
        report = FidelityReport(
            profile="full", generations=(1,), mutation="knob=v",
            expected_failures=["E1/a"], run_errors={"fig2:g1": "boom"},
            sweep_summary="s",
            verdicts=[_verdict("E1/a", False)],
        )
        parsed = FidelityReport.from_json(report.to_json())
        assert parsed == report
        payload = json.loads(report.to_json())
        assert payload["schema"] == "repro-fidelity-report/1"
        assert payload["counts"] == {"claims": 1, "passed": 0, "failed": 1}

    def test_render_annotates_mutation_rows(self):
        report = FidelityReport(
            mutation="knob=v", expected_failures=["E1/a", "E1/c"],
            verdicts=[_verdict("E1/a", False), _verdict("E1/c", True)],
        )
        text = report.render()
        assert "FAIL (expected FAIL)" in text
        assert "!! expected to FAIL" in text
        assert "never evaluated" not in text
        assert "MISMATCH" in text  # E1/c was expected to fail but passed


class TestMutations:
    def test_parse_known_and_unknown(self):
        mutation = parse_mutation("read_buffer=off")
        assert mutation.knob == "read_buffer"
        with pytest.raises(ConfigError, match="known:"):
            parse_mutation("bogus=1")

    def test_every_mutation_pattern_resolves(self):
        claim_ids = [claim.id for claim in all_claims()]
        for mutation in MUTATIONS.values():
            resolved = resolve_expected(mutation, claim_ids)
            assert resolved, mutation.spec
            assert len(set(resolved)) == len(resolved)

    def test_unmatched_pattern_is_an_error(self):
        mutation = parse_mutation("read_buffer=off")
        with pytest.raises(ConfigError, match="matches no registered claim"):
            resolve_expected(mutation, ["E3/other"])

    def test_overrides_reference_real_config_fields(self):
        from repro.dimm.config import OptaneDimmConfig
        import dataclasses

        fields = {f.name for f in dataclasses.fields(OptaneDimmConfig)}
        for mutation in MUTATIONS.values():
            for key in mutation.overrides.get("optane", {}):
                assert key in fields, f"{mutation.spec}: {key}"


class TestLiveValidation:
    """End-to-end runs on the cheapest experiments (~1 s of sweep)."""

    def test_cheap_experiments_pass_all_claims(self):
        fidelity = validate(experiments=["fig4", "sec33"], jobs=1, cache=None)
        assert fidelity.ok(), fidelity.render()
        assert not fidelity.run_errors
        assert len(fidelity.verdicts) >= 10

    def test_unknown_experiment_selects_nothing(self):
        fidelity = validate(experiments=["nope"], jobs=1, cache=None)
        assert fidelity.verdicts == []
        assert fidelity.ok()  # vacuously: nothing failed

    @pytest.mark.slow
    def test_transition_mutation_smoke(self):
        """The cheapest live mutation: sec33 under transition=off."""
        fidelity = validate(generations=(1,), mutation="transition=off",
                            jobs=4, cache=None)
        assert fidelity.mutation == "transition=off"
        assert fidelity.ok(), fidelity.render()
        assert {v.claim_id for v in fidelity.failed} == set(fidelity.expected_failures)

    @pytest.mark.campaign
    def test_full_fast_profile_validation(self):
        """Every claim, both generations — campaign-scale (~1 h serial)."""
        fidelity = validate(profile="fast", jobs=4, cache=None)
        assert fidelity.ok(), fidelity.render()
