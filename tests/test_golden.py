"""Golden report digests: pin what the simulator computes.

``tests/golden/report_digests.json`` holds, per experiment and
generation, the SHA-256 of the experiment's canonical fast-profile
report JSON::

    sha256(json.dumps([r.to_dict() for r in REGISTRY[name].run(g, "fast")],
                      sort_keys=True))

It also holds the same digest of each crash campaign (``crash-*``) per
fault mode, over ``REGISTRY[name].run(g, "fast", fault_mode=mode)``, and
perfbench's prefix digests (the SHA-256 of the simulated
outputs of a workload's fixed prefix rounds, see ``perfbench/harness.py``)
for two seeds, as ``harness.run(workload, seed, seconds=0,
trace=False).digest``.

Its ``trace`` section pins the observability output of three traced
runs, as the SHA-256 of the Chrome trace JSON, the time-series CSV and
the session summary line together::

    sha256(json.dumps(to_chrome_trace(sess.tracer), sort_keys=True)
           + sess.timeseries().to_csv() + sess.summary())

A refactor that claims not to change the model must keep every digest.
The table changes only with a declared model change that names each
moved digest and why; it is never regenerated to make a failure go
away.  Experiments whose two generations run in under about 5 s
together are checked in tier-1, the rest in tier-2 (``slow``); every
crash campaign, in every fault mode, is tier-1.
"""

import hashlib
import importlib
import json
import pathlib

import pytest

from repro.runner.registry import REGISTRY
from repro.system.presets import machine_for
from repro.trace import session, to_chrome_trace

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "report_digests.json").read_text())
DIGESTS = GOLDEN["digests"]

#: Experiments too slow for tier-1 (several seconds per generation).
SLOW = {"fig6", "fig7", "fig8", "fig10", "fig12", "fig13", "fig14", "table1"}


def report_digest(name: str, generation: int, **overrides) -> str:
    """SHA-256 of one experiment's canonical fast-profile report JSON."""
    reports = REGISTRY[name].run(generation, "fast", **overrides)
    canonical = json.dumps([report.to_dict() for report in reports], sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _cases():
    for name, per_generation in DIGESTS.items():
        marks = [pytest.mark.slow] if name in SLOW else []
        for key, expected in per_generation.items():
            generation = int(key.removeprefix("g"))
            yield pytest.param(name, generation, expected, marks=marks, id=f"{name}-{key}")


@pytest.mark.parametrize("name,generation,expected", list(_cases()))
def test_report_digest_is_unchanged(name, generation, expected):
    actual = report_digest(name, generation)
    assert actual == expected, (
        f"{name} G{generation} fast-profile report changed: digest is now {actual}, "
        f"golden is {expected}"
    )


def _crash_cases():
    for name, per_mode in GOLDEN["crash"].items():
        for mode, per_generation in per_mode.items():
            for key, expected in per_generation.items():
                generation = int(key.removeprefix("g"))
                yield pytest.param(name, mode, generation, expected, id=f"{name}-{mode}-{key}")


@pytest.mark.parametrize("name,mode,generation,expected", list(_crash_cases()))
def test_crash_campaign_digest_is_unchanged(name, mode, generation, expected):
    actual = report_digest(name, generation, fault_mode=mode)
    assert actual == expected, (
        f"{name} {mode} G{generation} fast-profile report changed: digest is now "
        f"{actual}, golden is {expected}"
    )


def _perfbench_cases():
    for workload, per_seed in GOLDEN["perfbench_prefix"].items():
        for key, expected in per_seed.items():
            seed = int(key.removeprefix("seed"))
            yield pytest.param(workload, seed, expected, id=f"{workload}-{key}")


@pytest.mark.slow
@pytest.mark.parametrize("workload,seed,expected", list(_perfbench_cases()))
def test_perfbench_prefix_digest_is_unchanged(workload, seed, expected, monkeypatch):
    # perfbench imports its modules as top-level names from its own directory.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    harness = importlib.import_module("harness")
    actual = harness.run(workload, seed, seconds=0, trace=False).digest
    assert actual == expected, (
        f"perfbench {workload} seed {seed} prefix digest is now {actual}, golden is {expected}"
    )


def _rap_program() -> None:
    """Store, clwb, mfence, stream-load, nt-store, sfence, load: three times.

    Covers the ``stream-load`` span and the ``rap-stall`` a core-less
    streaming load records on the machine's bare track.
    """
    machine = machine_for(1)
    core = machine.new_core()
    addr = machine.region_spec("pm").base
    for _ in range(3):
        core.store(addr)
        core.clwb(addr)
        core.mfence()
        core.stream_load(addr)
        core.nt_store(addr)
        core.sfence()
        core.load(addr)


#: name -> (session options, traced body) of each pinned trace run.
TRACE_RUNS = {
    "ablations": ({"interval": 1000}, lambda: REGISTRY["ablations"].run(1, "fast")),
    "sec33": ({"categories": ["imc", "persist"]}, lambda: REGISTRY["sec33"].run(1, "fast")),
    "rap-program": ({"interval": 200}, _rap_program),
}


def trace_digest(name: str) -> str:
    """SHA-256 of one traced run's Chrome trace, time series and summary."""
    options, body = TRACE_RUNS[name]
    with session(**options) as sess:
        body()
    canonical = (json.dumps(to_chrome_trace(sess.tracer), sort_keys=True)
                 + sess.timeseries().to_csv() + sess.summary())
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(TRACE_RUNS))
def test_trace_digest_is_unchanged(name):
    expected = GOLDEN["trace"][name]
    actual = trace_digest(name)
    assert actual == expected, (
        f"traced {name} output changed: digest is now {actual}, golden is {expected}"
    )
