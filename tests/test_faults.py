"""Tests for the crash-point fault-injection campaigns (repro.faults)."""

import pytest

from repro.common.errors import ConfigError
from repro.faults import (
    CrashPointReached,
    EventTap,
    InjectionSchedule,
    LinkedListWorkload,
    make_workload,
    run_crashtest,
    run_crashtest_campaign,
    validator_for,
)
from repro.faults.campaign import STATUS_CODES, CampaignConfig, run_campaign
from repro.persist.crash import CrashSimulator


class TestInjectionSchedule:
    def test_exhaustive_covers_every_event(self):
        schedule = InjectionSchedule.parse("exhaustive", seed=1)
        assert schedule.points(5) == [0, 1, 2, 3, 4]

    def test_sample_is_deterministic_and_sorted(self):
        schedule = InjectionSchedule.parse("sample:4", seed=42)
        first = schedule.points(100)
        second = InjectionSchedule.parse("sample:4", seed=42).points(100)
        assert first == second
        assert first == sorted(first)
        assert len(first) == 4

    def test_different_seeds_pick_different_points(self):
        a = InjectionSchedule.parse("sample:5", seed=1).points(1000)
        b = InjectionSchedule.parse("sample:5", seed=2).points(1000)
        assert a != b

    def test_oversized_sample_degrades_to_exhaustive(self):
        schedule = InjectionSchedule.parse("sample:50", seed=1)
        assert schedule.points(7) == list(range(7))

    def test_parse_errors(self):
        for bad in ("bogus", "sample:", "sample:0", "sample:-3", "sample:x"):
            with pytest.raises(ConfigError):
                InjectionSchedule.parse(bad, seed=1)

    def test_describe_round_trips(self):
        for text in ("exhaustive", "sample:12"):
            schedule = InjectionSchedule.parse(text, seed=3)
            assert schedule.describe() == text


class TestEventTap:
    def test_workload_replay_is_deterministic(self):
        def stream():
            workload = make_workload("linkedlist", seed=11)
            tap = EventTap(workload.checker)
            workload.run(tap)
            return [event.describe() for event in tap.events]

        assert stream() == stream()
        assert len(stream()) > 0

    def test_stop_at_raises_and_truncates(self):
        workload = make_workload("linkedlist", seed=11)
        tap = EventTap(workload.checker, stop_at=3)
        with pytest.raises(CrashPointReached):
            workload.run(tap)
        assert tap.events[-1].index == 3


class TestCampaigns:
    def test_linkedlist_exhaustive_has_zero_violations(self):
        report = run_crashtest_campaign("linkedlist", points="exhaustive", seed=7)
        assert report.points_tested == report.total_events
        assert report.violations() == []
        assert report.beyond_adr() == []

    def test_btree_exhaustive_has_zero_violations(self):
        report = run_crashtest_campaign("btree", points="exhaustive", seed=7)
        assert report.points_tested == report.total_events
        assert report.violations() == []

    def test_cceh_sampled_campaign_is_clean(self):
        report = run_crashtest_campaign("cceh", points="sample:10", seed=7)
        assert report.points_tested == 10
        assert report.violations() == []

    def test_torn_xpline_losses_classified_beyond_adr(self):
        report = run_crashtest_campaign(
            "linkedlist", points="exhaustive", seed=7, fault_mode="torn-xpline"
        )
        # Tearing destroys data inside the ADR domain: that is media
        # corruption beyond what a missing barrier explains, so it must
        # never be reported as a flush-ordering violation.
        assert report.violations() == []
        assert len(report.beyond_adr()) > 0

    def test_ait_miss_pressure_produces_beyond_adr_losses(self):
        report = run_crashtest_campaign(
            "linkedlist", points="exhaustive", seed=7, fault_mode="ait-miss"
        )
        assert report.violations() == []
        assert len(report.beyond_adr()) > 0

    def test_eadr_campaign_is_fully_clean(self):
        report = run_crashtest_campaign(
            "linkedlist", points="exhaustive", seed=7, fault_mode="eadr"
        )
        assert report.violations() == []
        assert report.beyond_adr() == []

    def test_unknown_fault_mode_and_datastore_raise(self):
        with pytest.raises(ConfigError):
            run_crashtest_campaign("linkedlist", fault_mode="solar-flare")
        with pytest.raises(ConfigError):
            run_crashtest(1, "fast", datastore="heapfile")

    def test_experiment_report_shape(self):
        reports = run_crashtest(1, "fast", datastore="linkedlist", points="sample:5")
        assert len(reports) == 1
        report = reports[0]
        assert report.experiment_id == "crash-linkedlist"
        statuses = report.get("status")
        assert len(statuses) == 5
        assert all(value == STATUS_CODES["ok"] for value in statuses)
        assert any("0 violations" in note for note in report.notes)


class BrokenLinkedListWorkload(LinkedListWorkload):
    """Deliberately broken flush ordering: claim durability early.

    Each op stores the pad, immediately claims it durable, but only
    flushes the PREVIOUS op's pad — so every claim spends a full op
    window dirty in the CPU caches.  Any crash point in that window is
    a genuine lost-committed-update the campaign must pinpoint.
    """

    def _ops(self, core, tap):
        """Store + claim now, flush one op late (the bug under test)."""
        previous = None
        cursor = 0
        for _ in range(self.size):
            element = self.datastore.elements[cursor]
            core.store(element.pad_addr(1), 8)
            self.checker.commit(element.pad_addr(1), 8)
            if previous is not None:
                core.clwb(previous.pad_addr(1), 8)
                core.sfence()
            previous = element
            cursor = element.next_index
            tap.next_op()


def _make_broken(**kwargs):
    """Factory for the deliberately broken workload (picklable)."""
    kwargs.pop("ait_pressure", None)
    kwargs.pop("eadr", None)
    kwargs.pop("profile", None)
    return BrokenLinkedListWorkload(**kwargs)


class TestBrokenFixtureIsCaught:
    def test_broken_flush_ordering_is_pinpointed(self):
        config = CampaignConfig(
            name="broken-linkedlist",
            factory=_make_broken,
            validator=validator_for("linkedlist"),
            schedule=InjectionSchedule.parse("exhaustive", seed=7),
            seed=7,
        )
        report = run_campaign(config)
        violations = report.violations()
        assert violations, "campaign failed to catch a missing-flush bug"
        first = report.first_violation()
        # The very first claim happens at event 0 (the op's store); the
        # next event fires with the claim still cache-dirty, so the
        # earliest violating crash point is pinned to event index 1.
        assert first is not None
        assert first.point == 1
        assert "store" in first.event
        assert any("lost" in problem for problem in first.problems)
        assert "first violation" in report.summary()


class TestCrashSimulatorDisarm:
    def test_recovery_after_crash_does_not_retrip_the_tap(self):
        workload = make_workload("linkedlist", seed=7)
        tap = EventTap(workload.checker, stop_at=2)
        with pytest.raises(CrashPointReached):
            workload.run(tap)
        tap.stop_at = None
        report = CrashSimulator(workload.machine).power_failure(now=workload.core.now)
        status, problems = validator_for("linkedlist").validate(workload, report)
        assert status == "ok"
        assert not problems


class TestCrashtestCli:
    def test_cli_smoke_run(self, capsys):
        from repro.cli import main

        code = main([
            "crashtest", "linkedlist", "--points", "sample:5",
            "--seed", "7", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "crash-linkedlist" in out
        assert "no crash-consistency violations" in out

    def test_cli_rejects_bad_schedule(self, capsys):
        from repro.cli import main

        assert main(["crashtest", "linkedlist", "--points", "nope"]) == 2

    def test_cli_rejects_unknown_datastore(self, capsys):
        from repro.cli import main

        assert main(["crashtest", "rocksdb"]) == 2
