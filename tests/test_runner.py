"""Tests for repro.runner: cache, engine, registry, determinism."""

import json

import pytest

from repro.experiments.common import ExperimentReport
from repro.runner import (
    REGISTRY,
    ExperimentSpec,
    ResultCache,
    RunMetrics,
    RunRequest,
    code_version,
    request_key,
    resolve_names,
    run_sweep,
)
from repro.runner import engine as engine_module


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Every test gets its own cache root and a pinned code version."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-code-version")


def make_report(experiment_id="syn", value=1.0):
    report = ExperimentReport(experiment_id, "synthetic", "x", [1, 2])
    report.add_series("s", [value, value * 2])
    report.notes.append("a note")
    return report


CALLS = {"count": 0}


def _synthetic_run(generation, profile):
    CALLS["count"] += 1
    return [make_report(f"syn-g{generation}-{profile}")]


@pytest.fixture
def synthetic(monkeypatch):
    """Register a cheap experiment and reset its invocation counter."""
    spec = ExperimentSpec("syn", "synthetic experiment", _synthetic_run)
    monkeypatch.setitem(REGISTRY, "syn", spec)
    CALLS["count"] = 0
    return spec


class TestRequestKey:
    def test_stable(self):
        assert request_key("fig2", 1, "fast") == request_key("fig2", 1, "fast")

    def test_varies_with_every_component(self):
        base = request_key("fig2", 1, "fast")
        assert request_key("fig3", 1, "fast") != base
        assert request_key("fig2", 2, "fast") != base
        assert request_key("fig2", 1, "full") != base
        assert request_key("fig2", 1, "fast", {"k": 1}) != base
        assert request_key("fig2", 1, "fast", version="other") != base

    def test_override_order_irrelevant(self):
        assert request_key("e", 1, "fast", {"a": 1, "b": 2}) == request_key(
            "e", 1, "fast", {"b": 2, "a": 1}
        )

    def test_code_version_pinned_by_env(self):
        assert code_version() == "test-code-version"


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.load("0" * 64) is None
        cache.store("0" * 64, [make_report()])
        loaded = cache.load("0" * 64)
        assert loaded == [make_report()]
        assert cache.hits == 1 and cache.misses == 1

    def test_invalidate(self):
        cache = ResultCache()
        cache.store("1" * 64, [make_report()])
        assert cache.invalidate("1" * 64)
        assert not cache.invalidate("1" * 64)
        assert cache.load("1" * 64) is None

    def test_corrupt_entry_is_a_miss(self):
        cache = ResultCache()
        path = cache.store("2" * 64, [make_report()])
        path.write_text("{not json")
        assert cache.load("2" * 64) is None

    def test_clear_and_len(self):
        cache = ResultCache()
        cache.store("3" * 64, [make_report()])
        cache.store("4" * 64, [make_report()])
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_unwritable_root_degrades_to_uncached(self):
        cache = ResultCache("/proc/nonexistent-cache-root")
        assert cache.store("6" * 64, [make_report()]) is None
        assert cache.write_errors == 1
        assert cache.load("6" * 64) is None  # a miss, not an exception

    def test_entry_records_request_metadata(self):
        cache = ResultCache()
        path = cache.store("5" * 64, [make_report()], {"experiment": "syn"}, 1.5)
        payload = json.loads(path.read_text())
        assert payload["request"] == {"experiment": "syn"}
        assert payload["wall_time"] == 1.5
        assert payload["code_version"] == "test-code-version"


class TestReportRoundTrip:
    def test_json_round_trip_equality(self):
        report = make_report()
        report.x_is_size = True
        assert ExperimentReport.from_json(report.to_json()) == report

    def test_round_trip_preserves_notes_and_formatting(self):
        report = ExperimentReport("t", "t", "bytes", [4096, 16384], x_is_size=True)
        report.add_series("lat", [1.25, 2.5])
        report.notes.append("calibrated")
        clone = ExperimentReport.from_json(report.to_json())
        assert clone.notes == ["calibrated"]
        assert clone.render() == report.render()
        assert clone.to_csv() == report.to_csv()
        assert "4KB" in clone.to_csv()


class TestFormatX:
    def test_explicit_size_flag_formats_any_label(self):
        report = ExperimentReport("t", "t", "bytes", [16384], x_is_size=True)
        report.add_series("s", [1.0])
        assert "16KB" in report.render()

    def test_explicit_false_disables_heuristic(self):
        report = ExperimentReport("t", "t", "WSS", [16384], x_is_size=False)
        report.add_series("s", [1.0])
        assert "16384" in report.render()
        assert "16KB" not in report.render()

    def test_csv_and_table_agree(self):
        report = ExperimentReport("t", "t", "size", [65536], x_is_size=True)
        report.add_series("s", [1.0])
        assert "64KB" in report.to_csv()
        assert "64KB" in report.render()


class TestRunSweep:
    def test_cache_miss_then_hit(self, synthetic):
        cache = ResultCache()
        requests = [RunRequest.make("syn")]
        first, metrics1 = run_sweep(requests, cache=cache)
        assert metrics1.cache_misses == 1 and metrics1.cache_hits == 0
        assert not first[0].cached
        second, metrics2 = run_sweep(requests, cache=cache)
        assert metrics2.cache_hits == 1 and metrics2.cache_misses == 0
        assert second[0].cached
        assert second[0].reports == first[0].reports
        assert CALLS["count"] == 1

    def test_force_recomputes(self, synthetic):
        cache = ResultCache()
        requests = [RunRequest.make("syn")]
        run_sweep(requests, cache=cache)
        results, metrics = run_sweep(requests, cache=cache, force=True)
        assert metrics.cache_misses == 1 and metrics.cache_hits == 0
        assert not results[0].cached
        assert CALLS["count"] == 2
        # --force also refreshed the entry, so a third run hits again.
        _, metrics3 = run_sweep(requests, cache=cache)
        assert metrics3.cache_hits == 1

    def test_no_cache_always_computes(self, synthetic):
        requests = [RunRequest.make("syn")]
        run_sweep(requests, cache=None)
        run_sweep(requests, cache=None)
        assert CALLS["count"] == 2

    def test_results_in_request_order(self, synthetic):
        requests = [RunRequest.make("syn", generation=2), RunRequest.make("syn")]
        results, _ = run_sweep(requests)
        assert [r.request.generation for r in results] == [2, 1]

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_sweep([RunRequest.make("nope")])

    def test_progress_callback_sees_everything(self, synthetic):
        cache = ResultCache()
        seen = []
        run_sweep([RunRequest.make("syn")], cache=cache, progress=seen.append)
        run_sweep([RunRequest.make("syn")], cache=cache, progress=seen.append)
        assert [result.cached for result in seen] == [False, True]

    def test_pool_failure_falls_back_to_serial(self, synthetic, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", broken_pool)
        results, metrics = run_sweep([RunRequest.make("syn")], jobs=4)
        assert metrics.pool_fallback
        assert results[0].reports == [make_report("syn-g1-fast")]

    def test_metrics_summary_mentions_cache_counters(self, synthetic):
        cache = ResultCache()
        _, metrics = run_sweep([RunRequest.make("syn")], cache=cache)
        assert "0 hits / 1 miss" in metrics.summary()

    def test_every_executed_unit_records_its_wall_time(self, synthetic):
        requests = [RunRequest.make("syn"), RunRequest.make("syn", generation=2)]
        results, metrics = run_sweep(requests)
        assert metrics.unit_seconds == [result.wall_time for result in results]

    def test_summary_interpolates_unit_percentiles(self):
        metrics = RunMetrics(unit_seconds=[4.0, 0.0, 10.0, 2.0])
        # Linear interpolation between order statistics: p50 sits
        # halfway between 2 and 4, p95 at 85 % of the way from 4 to 10.
        assert "unit p50/p95: 3.0s/9.1s" in metrics.summary()
        assert "unit p50" not in RunMetrics(unit_seconds=[4.0]).summary()


class TestDeterminismAcrossJobs:
    def test_jobs1_equals_jobs4(self):
        # Two cheap experiments, each one work unit.  Real pool where
        # available, serial fallback otherwise — results must be
        # identical either way.
        requests = [RunRequest.make("sec33"), RunRequest.make("fig2")]
        serial, _ = run_sweep(requests, jobs=1)
        parallel, _ = run_sweep(requests, jobs=4)
        for a, b in zip(serial, parallel):
            assert [r.to_dict() for r in a.reports] == [r.to_dict() for r in b.reports]


class TestRegistry:
    def test_resolve_all(self):
        assert resolve_names(["all"]) == list(REGISTRY)

    def test_resolve_unknown(self):
        with pytest.raises(KeyError):
            resolve_names(["fig2", "fig99"])

    def test_experiment_specs_hold_module_run_functions(self):
        """Every paper experiment is its module's own ``run``, no adapter between."""
        for name, spec in REGISTRY.items():
            if name.startswith("crash-"):
                continue
            assert spec.run.__name__ == "run", name
            assert spec.run.__module__.startswith("repro.experiments."), name



import multiprocessing
import os
import time
import warnings
from pathlib import Path


def _pool_usable():
    """True when this sandbox can fork a real worker pool."""
    if multiprocessing.get_start_method() != "fork":
        return False  # spawned workers would not see monkeypatched specs
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(1) as pool:
            return pool.submit(int, 1).result(timeout=10) == 1
    except Exception:
        return False


def _require_pool():
    if not _pool_usable():
        pytest.skip("no usable fork-based process pool in this environment")


def _failing_run(generation, profile):
    raise ValueError("synthetic experiment failure")


def _flaky_serial_run(generation, profile):
    CALLS["count"] += 1
    if CALLS["count"] == 1:
        raise ValueError("transient failure")
    return [make_report("flaky")]


def _hanging_run(generation, profile):
    time.sleep(20)  # far beyond any shard_timeout used in tests
    return [make_report("hang")]


def _dying_then_ok_run(generation, profile, flag_path=""):
    flag = Path(flag_path)
    if not flag.exists():
        flag.write_text("died once")
        os._exit(1)  # hard worker death -> BrokenProcessPool
    return [make_report("revived")]


@pytest.fixture
def hardened_registry(monkeypatch):
    """Register the failure-mode experiments alongside 'syn'."""
    for name, fn in (
        ("syn", _synthetic_run),
        ("bad", _failing_run),
        ("flaky", _flaky_serial_run),
        ("hang", _hanging_run),
        ("dying", _dying_then_ok_run),
    ):
        monkeypatch.setitem(REGISTRY, name, ExperimentSpec(name, f"{name} experiment", fn))
    CALLS["count"] = 0


class TestHardenedSerialPath:
    def test_failing_experiment_degrades_not_raises(self, hardened_registry):
        results, metrics = run_sweep(
            [RunRequest.make("bad"), RunRequest.make("syn")],
            max_retries=1, backoff=0.01,
        )
        assert results[0].error is not None
        assert "ValueError" in results[0].error
        assert results[0].reports == []
        assert results[1].error is None
        assert results[1].reports == [make_report("syn-g1-fast")]
        assert len(metrics.failed_shards) == 1
        record = metrics.failed_shards[0]
        assert record == {
            "experiment": "bad",
            "attempts": 2,  # initial try + 1 retry
            "reason": "ValueError: synthetic experiment failure",
        }
        assert results[0].error == "ValueError: synthetic experiment failure after 2 attempts"

    def test_flaky_experiment_succeeds_on_retry(self, hardened_registry):
        results, metrics = run_sweep(
            [RunRequest.make("flaky")], max_retries=2, backoff=0.01,
        )
        assert results[0].error is None
        assert results[0].reports == [make_report("flaky")]
        assert metrics.retries == 1
        assert metrics.failed_shards == []

    def test_zero_retries_quarantines_immediately(self, hardened_registry):
        results, metrics = run_sweep(
            [RunRequest.make("flaky")], max_retries=0, backoff=0.01,
        )
        assert results[0].error is not None
        assert metrics.retries == 0
        assert CALLS["count"] == 1

    def test_failed_results_are_never_cached(self, hardened_registry):
        cache = ResultCache()
        run_sweep([RunRequest.make("bad")], cache=cache, max_retries=0, backoff=0.01)
        assert len(cache) == 0
        _, metrics = run_sweep(
            [RunRequest.make("bad")], cache=cache, max_retries=0, backoff=0.01,
        )
        assert metrics.cache_misses == 1 and metrics.cache_hits == 0

    def test_degraded_summary_mentions_quarantine(self, hardened_registry):
        _, metrics = run_sweep(
            [RunRequest.make("bad")], max_retries=1, backoff=0.01,
        )
        assert "DEGRADED" in metrics.summary()
        assert "retr" in metrics.summary()


class TestHardenedPooledPath:
    def test_hanging_worker_is_quarantined_not_fatal(self, hardened_registry):
        _require_pool()
        started = time.perf_counter()
        results, metrics = run_sweep(
            [RunRequest.make("hang"), RunRequest.make("syn")],
            jobs=2, shard_timeout=0.5, max_retries=1, backoff=0.01,
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 15, "sweep waited on the hung worker"
        assert results[0].error is not None
        assert "shard_timeout" in results[0].error
        assert results[1].error is None
        assert results[1].reports == [make_report("syn-g1-fast")]
        assert len(metrics.failed_shards) == 1

    def test_dead_worker_is_retried_in_fresh_pool(self, hardened_registry, tmp_path):
        _require_pool()
        flag = tmp_path / "died-once.flag"
        request = RunRequest.make("dying", overrides={"flag_path": str(flag)})
        results, metrics = run_sweep(
            [request], jobs=2, max_retries=2, backoff=0.01,
        )
        assert results[0].error is None
        assert results[0].reports == [make_report("revived")]
        assert metrics.retries >= 1
        assert flag.exists()

    def test_pooled_failure_degrades_like_serial(self, hardened_registry):
        _require_pool()
        results, metrics = run_sweep(
            [RunRequest.make("bad"), RunRequest.make("syn")],
            jobs=2, max_retries=1, backoff=0.01,
        )
        assert results[0].error is not None
        assert "ValueError" in results[0].error
        assert results[1].reports == [make_report("syn-g1-fast")]
        assert len(metrics.failed_shards) == 1

    def test_pooled_and_serial_failures_read_the_same(self, hardened_registry):
        _require_pool()
        requests = [RunRequest.make("bad")]
        serial, serial_metrics = run_sweep(requests, jobs=1, max_retries=1, backoff=0.01)
        pooled, pooled_metrics = run_sweep(requests, jobs=2, max_retries=1, backoff=0.01)
        assert not pooled_metrics.pool_fallback
        assert pooled[0].error == serial[0].error
        assert pooled_metrics.failed_shards == serial_metrics.failed_shards
        assert pooled_metrics.retries == serial_metrics.retries == 1


class TestCacheWriteWarning:
    def test_first_write_failure_warns_once(self):
        cache = ResultCache("/proc/nonexistent-cache-root")
        with pytest.warns(RuntimeWarning, match="unwritable"):
            cache.store("7" * 64, [make_report()])
        # Subsequent failures stay silent: escalate the filter to
        # errors and prove no second warning is raised.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.store("8" * 64, [make_report()]) is None
        assert cache.write_errors == 2
