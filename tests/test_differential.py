"""Differential tests: serial vs process-pool vs cached sweeps agree.

The engine's hardening (retries, quarantine, unit timeouts) must never
change *results* — a pooled sweep, a serial sweep and a cache replay
of the same requests have to produce byte-identical report JSON.
These tests drive the public :mod:`repro.validate.determinism` checks
plus the :class:`ExperimentReport` round-trip invariants they rely on.
"""

import json

import pytest

from repro.experiments.common import ExperimentReport
from repro.runner import ResultCache, RunRequest, run_sweep
from repro.trace.session import session
from repro.validate.determinism import (
    check_cache_determinism,
    check_parallel_determinism,
)


class TestSerialVsPool:
    def test_fig4_byte_identical(self):
        result = check_parallel_determinism(experiments=("fig4",), jobs=2)
        assert result.passed, result.detail

    @pytest.mark.slow
    def test_fig2_fig7_byte_identical(self):
        """The ISSUE's named pair: fig2 and fig7, four workers."""
        result = check_parallel_determinism(experiments=("fig2", "fig7"), jobs=4)
        assert result.passed, result.detail


class TestCachedVsFresh:
    def test_cache_replay_byte_identical(self, tmp_path):
        result = check_cache_determinism(tmp_path, experiment="fig4")
        assert result.passed, result.detail

    def test_cached_entries_stay_untraced(self, tmp_path):
        """Tracing never changes or leaks into what a sweep returns.

        Under an ambient trace session the engine's in-process run is
        traced like any other code: the session holds the time series,
        while the returned (and cached) reports stay byte-identical to
        an untraced run.
        """
        requests = [RunRequest.make("fig4", generation=1, profile="fast")]
        untraced, _ = run_sweep(requests, jobs=1, cache=None)
        with session(interval=5000) as sess:
            traced, _ = run_sweep(requests, jobs=1, cache=ResultCache(tmp_path), force=True)
        assert traced[0].error is None
        assert sess.timeseries().rows

        def canonical(results):
            return json.dumps([report.to_dict() for report in results[0].reports],
                              sort_keys=True)

        assert canonical(traced) == canonical(untraced)
        replay, metrics = run_sweep(requests, jobs=1, cache=ResultCache(tmp_path))
        assert metrics.cache_hits == 1
        assert canonical(replay) == canonical(untraced)


class TestTimeseriesRoundTrip:
    """Regression: report JSON round-trips preserve the timeseries field."""

    def _report(self, timeseries):
        return ExperimentReport(
            experiment_id="rt", title="round trip", x_label="x",
            x_values=[1, 2], series=[], timeseries=timeseries,
        )

    def test_none_is_preserved(self):
        report = self._report(None)
        assert ExperimentReport.from_json(report.to_json()).timeseries is None

    def test_attached_timeseries_round_trips_equal(self):
        """Tuples canonicalize to lists at construction, so a report
        compares equal to its own parse-back whatever shape the caller
        handed in."""
        report = self._report(
            {"interval": 5000, "rows": ({"t": 0, "v": (1, 2)}, {"t": 1, "v": (3, 4)})}
        )
        parsed = ExperimentReport.from_json(report.to_json())
        assert parsed == report
        assert parsed.timeseries == {
            "interval": 5000,
            "rows": [{"t": 0, "v": [1, 2]}, {"t": 1, "v": [3, 4]}],
        }

    def test_to_dict_does_not_alias_the_payload(self):
        report = self._report({"rows": [1, 2, 3]})
        report.to_dict()["timeseries"]["rows"].append(99)
        assert report.timeseries == {"rows": [1, 2, 3]}
