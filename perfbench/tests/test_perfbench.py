"""Smoke tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench/tests``.
Every workload runs at a tiny size (a few points per round, a few
rounds), so the whole file takes seconds.
"""

from __future__ import annotations

import gc
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.system.presets import preset_overrides  # noqa: E402
from repro.trace import session  # noqa: E402
from repro.workloads.patterns import partial_write_addresses, strided_read_addresses  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
KIB = 1024


def tiny(name: str, seed: int = 3, trace: bool = False) -> harness.Report:
    return harness.run(name, seed=seed, seconds=0, trace=trace, tiny=True)


@pytest.fixture(scope="module")
def traced() -> dict[str, harness.Report]:
    return {name: tiny(name, trace=True) for name in workloads.WORKLOADS}


def test_every_workload_runs_and_is_correct(traced):
    for name, report in traced.items():
        assert report.correct, name
        assert report.attempted >= 1 and report.failed == 0
        assert set(report.metrics) == set(dict(harness.END_TO_END))
        assert all(value > 0 for value in report.metrics.values()), name


def test_metric_names_match_benchmark_json(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    assert end_to_end == dict(harness.END_TO_END)
    assert per_layer == dict(layers.METRICS)
    assert {workload["name"] for workload in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for report in traced.values():
        assert set(report.layer_metrics) == set(per_layer)
    for name in [*end_to_end, *per_layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_layer_self_times_fit_in_the_traced_wall_time(traced):
    units = dict(layers.METRICS)
    for name, report in traced.items():
        self_times = [value for key, value in report.layer_metrics.items() if units[key] == "s"]
        assert all(value >= 0 for value in self_times), name
        assert 0 < sum(self_times) <= report.traced_wall_s, name


def test_tracing_leaves_the_simulated_outputs_unchanged(traced):
    for name, report in traced.items():
        assert report.traced_digest == report.digest, name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_repeats_for_a_seed_and_follows_it(name):
    first, again, other = tiny(name, seed=5), tiny(name, seed=5), tiny(name, seed=6)
    assert first.digest == again.digest
    assert first.digest != other.digest


def test_reference_burst_is_fixed_and_leaves_the_collector_as_it_was():
    assert reference.burst() == reference.burst()
    gc.disable()
    try:
        assert reference.scale() > 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert reference.scale() > 0
    assert gc.isenabled()


def test_tracer_restores_the_wrapped_functions():
    originals = [getattr(owner, fn) for _, owner, names in layers.LAYERS for fn in names]
    with layers.LayerTracer():
        pass
    assert originals == [getattr(owner, fn) for _, owner, names in layers.LAYERS for fn in names]


def test_refuses_with_result_cache(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_CACHE", "1")
    with pytest.raises(harness.MeasurementRefused, match="result cache"):
        tiny("dimm_sweep")


def test_refuses_inside_trace_session():
    with session(), pytest.raises(harness.MeasurementRefused, match="trace session"):
        tiny("dimm_sweep")


def test_refuses_under_preset_overrides():
    with preset_overrides(optane={"periodic_writeback": False}):
        with pytest.raises(harness.MeasurementRefused, match="preset_overrides"):
            tiny("dimm_sweep")


def test_work_is_counted_from_the_address_patterns():
    reads = workloads.DimmRead().points(random.Random(1))
    for point in reads[:6]:
        kwargs = point.kwargs
        addresses = list(strided_read_addresses(0, kwargs["wss"], kwargs["cachelines_per_xpline"]))
        assert point.work == 2 * len(addresses) * kwargs["cycles_over_region"]
    _, persists = workloads.DimmPersist().points(random.Random(1))
    for point in [p for p in persists if p.kernel == "run_write_amplification"][:6]:
        kwargs = point.kwargs
        addresses = list(partial_write_addresses(0, kwargs["wss"], kwargs["written_cachelines"]))
        assert point.work == kwargs["passes"] * len(addresses)


def test_checks_reject_outputs_outside_the_model():
    ra = lambda value: SimpleNamespace(read_amplification=value)  # noqa: E731
    check = workloads.check_read_amplification
    assert check(ra(1.0), generation=1, cpx=4, wss=8 * KIB)
    assert not check(ra(0.9), generation=1, cpx=4, wss=8 * KIB)
    assert not check(ra(4.0), generation=1, cpx=4, wss=8 * KIB)
    assert not check(ra(1.0), generation=2, cpx=4, wss=64 * KIB)
    assert check(ra(2.5), generation=1, cpx=2, wss=18 * KIB)  # at the knee: range only
    wa = SimpleNamespace(write_amplification=2.5)
    assert not workloads.check_write_amplification(wa, written=2)
    assert workloads.check_write_amplification(wa, written=1)
    assert not workloads.check_rap_control(cycles_at_0=400.0, cycles_at_40=450.0)


def test_cceh_verify_counts_lost_keys():
    cceh = workloads.CcehInsert()
    state = cceh.setup(seed=1, tiny=True)
    assert cceh.verify(state) == 0
    state["lanes"][0].keys.append(-1)  # never inserted
    assert cceh.verify(state) == 1


def test_cli_prints_metrics_and_a_json_last_line():
    result = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "dimm_sweep", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 100
    assert set(last["metrics"]) == set(dict(harness.END_TO_END))
    assert any(line.split()[:1] == ["failed_frac"] for line in lines)


def test_cli_fails_without_the_simulator(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "dimm_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert result.returncode != 0
    assert "{" not in result.stdout
