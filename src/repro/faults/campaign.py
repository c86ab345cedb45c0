"""Crash-point campaigns: one workload × one fault mode × one schedule.

The driver first replays the workload uncut to count persistence
events, picks which event indexes get a power cut (:func:`crash_points`),
then for each point replays from scratch, stops at the point, pulls the
plug via :class:`~repro.persist.crash.CrashSimulator`, and asks the
workload to :meth:`~repro.faults.workloads.CrashWorkload.classify` what
recovery found.

A campaign's result is an
:class:`~repro.experiments.common.ExperimentReport` — x-axis = crash
points, one series per status code (:data:`STATUS_CODES`), loss counts
and drain counts, with the summary and the first violation (the
pinpointed crash event) in the notes — so campaigns flow through the
runner, the result cache and the CLI like the figure experiments do.
:func:`run_crashtest` has the runner's uniform shape — module-level,
picklable, ``(generation, profile, **overrides) -> list[ExperimentReport]``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.common.errors import ConfigError
from repro.common.rng import DEFAULT_SEED, DeterministicRng
from repro.experiments.common import ExperimentReport, check_profile
from repro.faults.hooks import CrashPointReached, EventTap
from repro.faults.workloads import WORKLOADS, CrashWorkload
from repro.persist.crash import CrashSimulator, FaultMode

#: Campaign-level fault modes: the CrashSimulator modes plus "eadr",
#: which is a *machine* variant (caches join the persistence domain)
#: crashed with a clean power loss.
FAULT_MODES = tuple(mode.value for mode in FaultMode) + ("eadr",)

#: Numeric encoding of per-point status for ExperimentReport series.
STATUS_CODES = {"ok": 0.0, "beyond-adr-loss": 1.0, "violation": 2.0}


def parse_points(text: str) -> int | None:
    """Parse a crash-point schedule: ``exhaustive`` (None) or ``sample:N`` (N)."""
    if text == "exhaustive":
        return None
    if text.startswith("sample:"):
        try:
            size = int(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad sample size in schedule {text!r}")
        if size <= 0:
            raise ConfigError("sample size must be positive")
        return size
    raise ConfigError(
        f"unknown injection schedule {text!r}; use 'exhaustive' or 'sample:N'"
    )


def crash_points(sample: int | None, total_events: int, seed: int) -> list[int]:
    """Sorted crash-point indexes to inject, given the stream length.

    ``sample=None`` is exhaustive: for small workloads the campaign can
    afford to crash after every persistence event, so any
    missing-barrier window in the run contains some crash point.
    Otherwise ``sample`` distinct points are drawn without replacement,
    reproducibly from ``seed``.  A sample larger than the stream
    degrades to exhaustive: every point is tested once, never twice.
    """
    if total_events <= 0:
        return []
    if sample is None or sample >= total_events:
        return list(range(total_events))
    return sorted(DeterministicRng(seed).sample(range(total_events), sample))


def run_campaign(
    factory: Callable[[], CrashWorkload],
    name: str,
    generation: int = 1,
    points: str = "exhaustive",
    seed: int = DEFAULT_SEED,
    fault_mode: str = "power-loss",
) -> ExperimentReport:
    """Execute one crash campaign and return its report.

    ``factory`` builds a *fresh* workload per replay; ``points`` is
    schedule syntax (:func:`parse_points`); ``seed`` drives both the
    sampling draw and the per-point fault RNG (torn-xpline victims).
    """
    sample = parse_points(points)
    crash_mode = FaultMode.CLEAN if fault_mode == "eadr" else FaultMode.parse(fault_mode)
    # Dry run: replay the workload uncut to measure the event stream.
    probe = factory()
    probe_tap = EventTap(probe.checker)
    probe.run(probe_tap)
    total_events = probe_tap.count

    chosen = crash_points(sample, total_events, seed)
    report = ExperimentReport(
        experiment_id=f"crash-{name}",
        title=f"Crash campaign — {name} ({fault_mode})",
        x_label="crash point",
        x_values=chosen,
        x_is_size=False,
    )
    statuses: list[str] = []
    losses: dict[str, list[float]] = {"lost_lines": [], "torn_lines": [], "drained_xplines": []}
    first = None  # (event, problems) at the earliest violating point
    fault_rng = DeterministicRng(seed)
    for point in chosen:
        instance = factory()
        tap = EventTap(instance.checker, stop_at=point)
        try:
            instance.run(tap)
        except CrashPointReached:
            pass
        # Disarm the tap: recovery runs through the same machine and
        # must not trip the (already fired) crash point again.
        tap.stop_at = None
        crash = CrashSimulator(instance.machine).power_failure(
            now=instance.core.now if instance.core is not None else 0.0,
            mode=crash_mode,
            rng=fault_rng.fork(1_000 + point),
        )
        status, problems = instance.classify(crash)
        statuses.append(status)
        losses["lost_lines"].append(float(len(crash.lost_pm_lines)))
        losses["torn_lines"].append(float(len(crash.torn_pm_lines)))
        losses["drained_xplines"].append(float(crash.drained_xplines))
        if status == "violation" and first is None:
            last = tap.last_event
            first = (last.describe() if last is not None else "<before first event>", problems)

    report.add_series("status", [STATUS_CODES[status] for status in statuses])
    for series, values in losses.items():
        report.add_series(series, values)
    schedule = "exhaustive" if sample is None else f"sample:{sample}"
    summary = (
        f"{name} g{generation} {fault_mode} [{schedule}]: {len(chosen)}/{total_events} "
        f"points, {statuses.count('violation')} violations, "
        f"{statuses.count('beyond-adr-loss')} beyond-ADR losses"
    )
    if first is None:
        report.notes.append(summary)
    else:
        event, problems = first
        report.notes.append(f"{summary}; first violation at {event}")
        report.notes.append(f"first violation at {event}: {'; '.join(problems)}")
    return report


def run_crashtest(
    generation: int,
    profile: str,
    datastore: str,
    points: str = "exhaustive",
    seed: int = 7,
    fault_mode: str = "power-loss",
) -> list[ExperimentReport]:
    """Registry entry point: one campaign as an ExperimentReport list.

    ``points`` defaults to exhaustive — the shipped workloads are small
    enough that full coverage is the sensible default.
    """
    if datastore not in WORKLOADS:
        raise ConfigError(
            f"unknown crash datastore {datastore!r}; known: {', '.join(WORKLOADS)}"
        )
    check_profile(profile)
    if fault_mode not in FAULT_MODES:
        raise ConfigError(
            f"unknown fault mode {fault_mode!r}; known: {', '.join(FAULT_MODES)}"
        )
    factory = partial(
        WORKLOADS[datastore],
        generation=generation,
        profile=profile,
        seed=seed,
        eadr=fault_mode == "eadr",
        ait_pressure=fault_mode == "ait-miss",
    )
    return [run_campaign(factory, datastore, generation, points, seed, fault_mode)]
