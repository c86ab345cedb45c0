"""Tests for the crash-point fault-injection campaigns (repro.faults)."""

import re

import pytest

from repro.common.constants import CACHELINE_SIZE
from repro.common.errors import ConfigError
from repro.faults import (
    STATUS_CODES,
    CrashPointReached,
    CrashWorkload,
    EventTap,
    LinkedListWorkload,
    crash_points,
    parse_points,
    run_campaign,
    run_crashtest,
)
from repro.persist.crash import CrashReport, CrashSimulator


def _campaign(datastore, **overrides):
    """One G1 fast-profile campaign report, seed 7 unless overridden."""
    overrides.setdefault("seed", 7)
    (report,) = run_crashtest(1, "fast", datastore=datastore, **overrides)
    return report


def _count(report, status):
    """Crash points of the campaign classified as ``status``."""
    return report.get("status").count(STATUS_CODES[status])


def _points(report):
    """(points tested, events in the uncut workload), from the summary note."""
    tested, total = re.search(r"(\d+)/(\d+) points", report.notes[0]).groups()
    return int(tested), int(total)


class TestInjectionSchedule:
    def test_exhaustive_covers_every_event(self):
        assert crash_points(parse_points("exhaustive"), 5, seed=1) == [0, 1, 2, 3, 4]

    def test_sample_is_deterministic_and_sorted(self):
        first = crash_points(parse_points("sample:4"), 100, seed=42)
        second = crash_points(parse_points("sample:4"), 100, seed=42)
        assert first == second
        assert first == sorted(first)
        assert len(first) == 4

    def test_different_seeds_pick_different_points(self):
        assert crash_points(5, 1000, seed=1) != crash_points(5, 1000, seed=2)

    def test_oversized_sample_degrades_to_exhaustive(self):
        assert crash_points(parse_points("sample:50"), 7, seed=1) == list(range(7))

    def test_parse_errors(self):
        for bad in ("bogus", "sample:", "sample:0", "sample:-3", "sample:x"):
            with pytest.raises(ConfigError):
                parse_points(bad)

    def test_describe_round_trips(self):
        for text in ("exhaustive", "sample:12"):
            assert f"[{text}]" in _campaign("linkedlist", points=text).notes[0]


class TestEventTap:
    def test_workload_replay_is_deterministic(self):
        def stream():
            workload = LinkedListWorkload(seed=11)
            tap = EventTap(workload.checker)
            workload.run(tap)
            return [event.describe() for event in tap.events]

        assert stream() == stream()
        assert len(stream()) > 0

    def test_stop_at_raises_and_truncates(self):
        workload = LinkedListWorkload(seed=11)
        tap = EventTap(workload.checker, stop_at=3)
        with pytest.raises(CrashPointReached):
            workload.run(tap)
        assert tap.events[-1].index == 3


class TestCampaigns:
    def test_linkedlist_exhaustive_has_zero_violations(self):
        report = _campaign("linkedlist", points="exhaustive")
        tested, total = _points(report)
        assert tested == total
        assert _count(report, "violation") == 0
        assert _count(report, "beyond-adr-loss") == 0

    def test_btree_exhaustive_has_zero_violations(self):
        report = _campaign("btree", points="exhaustive")
        tested, total = _points(report)
        assert tested == total
        assert _count(report, "violation") == 0

    def test_cceh_sampled_campaign_is_clean(self):
        report = _campaign("cceh", points="sample:10")
        assert _points(report)[0] == 10
        assert _count(report, "violation") == 0

    def test_torn_xpline_losses_classified_beyond_adr(self):
        report = _campaign("linkedlist", points="exhaustive", fault_mode="torn-xpline")
        # Tearing destroys data inside the ADR domain: that is media
        # corruption beyond what a missing barrier explains, so it must
        # never be reported as a flush-ordering violation.
        assert _count(report, "violation") == 0
        assert _count(report, "beyond-adr-loss") > 0

    def test_ait_miss_pressure_produces_beyond_adr_losses(self):
        report = _campaign("linkedlist", points="exhaustive", fault_mode="ait-miss")
        assert _count(report, "violation") == 0
        assert _count(report, "beyond-adr-loss") > 0

    def test_eadr_campaign_is_fully_clean(self):
        report = _campaign("linkedlist", points="exhaustive", fault_mode="eadr")
        assert _count(report, "violation") == 0
        assert _count(report, "beyond-adr-loss") == 0

    def test_unknown_fault_mode_and_datastore_raise(self):
        with pytest.raises(ConfigError):
            run_crashtest(1, "fast", datastore="linkedlist", fault_mode="solar-flare")
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


class _StubWorkload(CrashWorkload):
    """A workload with no ops: a pre-set ledger and canned structural problems."""

    name = "stub"
    sizes = {"fast": 0}

    def __init__(self, committed_lines, structural):
        super().__init__()
        self._structural = structural
        for line in committed_lines:
            self.checker.commit(line * CACHELINE_SIZE, CACHELINE_SIZE)

    def _build(self):
        """Nothing to allocate."""

    def recover_and_check(self, report):
        """The canned structural problems."""
        return list(self._structural)


class TestClassify:
    @pytest.mark.parametrize("committed,lost,torn,structural,expected", [
        pytest.param({5}, set(), set(), [], "ok", id="ok"),
        pytest.param({5}, {5}, set(), [], "violation", id="cache-lost-committed"),
        pytest.param(set(), set(), set(), ["broken"], "violation", id="structural-clean-loss"),
        pytest.param({5}, set(), {5}, [], "beyond-adr-loss", id="torn-committed"),
        pytest.param(set(), set(), {9}, ["broken"], "beyond-adr-loss", id="structural-and-torn"),
    ])
    def test_status_rule(self, committed, lost, torn, structural, expected):
        report = CrashReport(
            lost_pm_lines=frozenset(lost),
            lost_dram_lines=frozenset(),
            torn_pm_lines=frozenset(torn),
            mode="torn-xpline" if torn else "power-loss",
        )
        status, problems = _StubWorkload(committed, structural).classify(report)
        assert status == expected
        assert (status == "ok") == (not problems)
        assert all(problem in problems for problem in structural)


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


class TestBrokenFixtureIsCaught:
    def test_broken_flush_ordering_is_pinpointed(self):
        report = run_campaign(
            lambda: BrokenLinkedListWorkload(seed=7), "broken-linkedlist", seed=7
        )
        statuses = report.get("status")
        assert STATUS_CODES["violation"] in statuses, (
            "campaign failed to catch a missing-flush bug"
        )
        # The very first claim happens at event 0 (the op's store); the
        # next event fires with the claim still cache-dirty, so the
        # earliest violating crash point is pinned to event index 1.
        assert report.x_values[statuses.index(STATUS_CODES["violation"])] == 1
        assert "first violation at #1 store" in report.notes[0]
        assert any("lost" in note for note in report.notes[1:])


class TestCrashSimulatorDisarm:
    def test_recovery_after_crash_does_not_retrip_the_tap(self):
        workload = LinkedListWorkload(seed=7)
        tap = EventTap(workload.checker, stop_at=2)
        with pytest.raises(CrashPointReached):
            workload.run(tap)
        tap.stop_at = None
        report = CrashSimulator(workload.machine).power_failure(now=workload.core.now)
        status, problems = workload.classify(report)
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
