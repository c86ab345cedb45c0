"""Measurement loop, end-to-end metrics, digest and honesty guard.

One run of a workload:

1. the import and set-up whose state the run uses;
2. the untraced timed phase: whole rounds, closed loop, until at least
   ``seconds`` have passed, :data:`MIN_ROUNDS` and the workload's prefix
   rounds are done, and the faster half of the rounds holds
   :data:`MIN_SAMPLES` timed calls; then the workload's end-of-run checks;
3. with ``trace``, a traced replay of the prefix rounds on a fresh,
   identically set-up state, which gives the per-layer metrics.

``setup_s`` is the fastest of :data:`SETUP_REPEATS` import-and-set-up
samples.  The first is step 1; the others are taken between rounds
after the prefix rounds, spread over the timed phase, and their states
are dropped at once.  Interference from other tenants of the host comes
in phases of seconds to minutes and only ever adds time, so samples
taken at different moments find its quiet spells.

Timed calls are in nominal seconds (see :mod:`reference`).  The
end-to-end timings come from the faster half of the rounds (see
:func:`faster_half`); failures count over every round.

The digest hashes the simulated outputs and counters of the prefix
rounds, so it is comparable across runs of any length and between the
untraced run and the traced replay.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

from repro.system import presets
from repro.trace.session import active_session

import reference
from layers import METRICS as LAYER_METRICS
from layers import LayerTracer
from workloads import WORKLOADS, RoundResult

SETUP_REPEATS = 5
#: Timed calls behind the percentiles at least (10 lie beyond p90).
MIN_SAMPLES = 100
#: Rounds a run completes at least, so that half of them can be kept.
MIN_ROUNDS = 4

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("point_ms_p50", "ms"),
    ("point_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
#: Unit of every end-to-end and per-layer metric.
UNITS = dict(END_TO_END) | dict(LAYER_METRICS)


class MeasurementRefused(RuntimeError):
    """The process is configured so that it would measure another program."""


def ensure_honest() -> None:
    """Refuse to measure when results could be served or the model altered.

    A result cache would return reports without simulating, an ambient
    trace session would instrument every machine, and active preset
    overrides would change the modelled hardware.
    """
    problems = []
    if os.environ.get("REPRO_BENCH_CACHE", "") not in ("", "0"):
        problems.append("REPRO_BENCH_CACHE enables the repro.runner result cache")
    if active_session() is not None:
        problems.append("a repro.trace session is active")
    # presets exposes no accessor for its ambient overrides.
    if presets._AMBIENT:
        problems.append("repro.system.presets.preset_overrides is active")
    if problems:
        raise MeasurementRefused("; ".join(problems))


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def digest(records: list[dict]) -> str:
    """SHA-256 over the canonical JSON of simulated outputs."""
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class Round(NamedTuple):
    """Timing of one executed round."""

    work: int
    wall_s: float
    #: Host seconds of each timed call.
    samples: array


@dataclass
class Phase:
    """Consecutive rounds: their timings, failures and simulated outputs."""

    rounds: list[Round] = field(default_factory=list)
    failed: int = 0
    records: list[dict] = field(default_factory=list)
    #: Process peak RSS when the phase's last round ended.
    peak_rss_mib: float = 0.0
    #: Every host-to-nominal factor the rounds applied.
    scales: list[float] = field(default_factory=list)

    def add(self, result: RoundResult, keep_records: bool) -> None:
        """Fold one executed round in."""
        self.rounds.append(Round(result.work, result.wall_s, array("d", result.samples)))
        self.failed += result.failed
        self.scales.extend(result.scales)
        if keep_records:
            self.records.extend(result.records)
        self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    @property
    def calls(self) -> int:
        """Timed calls attempted."""
        return sum(len(round_.samples) for round_ in self.rounds)


def throughput(rounds: list[Round]) -> float:
    """Work per nominal second of executing ``rounds``."""
    wall = sum(round_.wall_s for round_ in rounds)
    return sum(round_.work for round_ in rounds) / wall if wall else 0.0


def faster_half(rounds: list[Round]) -> list[Round]:
    """The half of ``rounds`` (rounded up) with the least nominal time per work.

    Every round draws its points from the same strata, so rounds differ
    in cost mainly by interference from other tenants of the host that
    the reference bursts do not correct, which only ever adds time.  The
    end-to-end metrics use these rounds.
    """
    ranked = sorted(rounds, key=lambda round_: round_.wall_s / max(round_.work, 1))
    return ranked[:math.ceil(len(ranked) / 2)]


def run_rounds(workload, state, min_rounds: int, seconds: float = 0.0,
               min_samples: int = 0, between=None) -> tuple[Phase, Phase]:
    """Run whole rounds; returns (every round, the prefix rounds).

    Stops once ``min_rounds`` rounds are done, ``seconds`` have passed
    and ``min_samples`` calls were timed.  Designs are generated, and the
    workload settles, between rounds, outside the timed region.  Only the
    prefix rounds record simulated outputs.  ``between(elapsed_s)`` is
    called after each later round, also outside the timed region.
    """
    total, prefix = Phase(), Phase()
    started = perf_counter()
    while (len(total.rounds) < min_rounds or total.calls < min_samples
           or perf_counter() - started < seconds):
        index = len(total.rounds)
        if index == 0 and "first_design" in state:
            design = state.pop("first_design")
        else:
            design = workload.design(state, index)
        in_prefix = index < workload.prefix_rounds
        result = workload.execute(state, design, record=in_prefix)
        result.failed += workload.settle(state, design)
        total.add(result, keep_records=False)
        if in_prefix:
            prefix.add(result, keep_records=True)
        elif between is not None:
            between(perf_counter() - started)
    return total, prefix


@dataclass
class Report:
    """Everything one run measured."""

    workload: str
    seed: int
    attempted: int
    failed: int
    digest: str
    rounds: int
    #: Timed calls behind the percentiles (those of the faster rounds).
    samples: int
    metrics: dict[str, float]
    #: Median factor from host to nominal seconds over every round.
    host_scale: float
    #: Set by a traced run.
    traced_digest: str | None = None
    traced_wall_s: float | None = None
    layer_metrics: dict[str, float] | None = None

    @property
    def correct(self) -> bool:
        """No failed point, and tracing left the simulated outputs unchanged."""
        return self.failed == 0 and self.traced_digest in (None, self.digest)


def set_up(workload, seed: int, tiny: bool, time_import) -> tuple[dict, float]:
    """A fresh state, and the nominal seconds of ``time_import()`` plus its set-up."""
    scale = reference.scale()
    imported = time_import()
    gc.collect()
    start = perf_counter()
    state = workload.setup(seed, tiny)
    return state, (imported + perf_counter() - start) * scale


def run(name: str, seed: int, seconds: float, trace: bool, time_import=lambda: 0.0,
        tiny: bool = False) -> Report:
    """Run workload ``name`` once; see the module docstring.

    ``time_import()`` returns the host seconds of one import of the
    benchmark and the simulator.
    """
    ensure_honest()
    runner_loaded = "repro.runner" in sys.modules
    workload = WORKLOADS[name]()
    state, first = set_up(workload, seed, tiny, time_import)
    setup_times = [first]

    def resample(elapsed: float) -> None:
        due = len(setup_times) * seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and elapsed >= due:
            setup_times.append(set_up(workload, seed, tiny, time_import)[1])

    # The faster half must still hold MIN_SAMPLES calls.
    total, prefix = run_rounds(workload, state, max(workload.prefix_rounds, MIN_ROUNDS), seconds,
                               0 if tiny else 2 * MIN_SAMPLES, resample)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(set_up(workload, seed, tiny, time_import)[1])
    setup_s = min(setup_times)
    failed = total.failed + workload.verify(state)
    attempted = total.calls
    fast = faster_half(total.rounds)
    samples = [sample for round_ in fast for sample in round_.samples]
    metrics = {
        "ops_per_s": throughput(fast),
        "point_ms_p50": 1000 * percentile(samples, 0.50),
        "point_ms_p90": 1000 * percentile(samples, 0.90),
        "setup_s": setup_s,
        # After the prefix rounds, whose work is fixed: the samples kept
        # for later rounds grow with the simulator's speed, not its memory.
        "peak_rss_mib": prefix.peak_rss_mib,
    }
    report = Report(name, seed, attempted, min(failed, attempted), digest(prefix.records),
                    len(total.rounds), len(samples), metrics, statistics.median(total.scales))

    if trace:
        state = None
        gc.collect()
        replay = workload.setup(seed, tiny)
        with LayerTracer() as tracer:
            start = perf_counter()
            _, traced = run_rounds(workload, replay, workload.prefix_rounds)
            report.traced_wall_s = perf_counter() - start
        traced_failed = traced.failed + workload.verify(replay)
        report.failed = min(report.failed + traced_failed, attempted)
        report.traced_digest = digest(traced.records)
        untraced = throughput(prefix.rounds)
        overhead = throughput(traced.rounds) / untraced if untraced else 0.0
        report.layer_metrics = tracer.metrics(traced.records, overhead)

    if not runner_loaded and "repro.runner" in sys.modules:
        raise MeasurementRefused("the run imported repro.runner; results may be cached")
    return report
