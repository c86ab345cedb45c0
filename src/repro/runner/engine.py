"""Process-pool sweep engine: fan experiments out, cache what they return.

:func:`run_sweep` is the one entry point.  Given a list of
:class:`RunRequest` it

1. consults the on-disk :class:`~repro.runner.cache.ResultCache`
   (unless disabled) and serves hits without simulating anything;
2. runs each miss as one work unit — a whole experiment — over a
   ``ProcessPoolExecutor`` (``jobs > 1``) or in-process (``jobs=1``);
3. returns the results in request order.  Every experiment is a pure
   function of its request, so scheduling is deterministic: the
   reports are byte-identical whatever the completion order —
   ``--jobs 4`` output equals ``--jobs 1`` output;
4. falls back to in-process serial execution whenever a pool cannot
   be created or dies mid-flight (sandboxes without ``sem_open``,
   ``fork`` restrictions, OOM-killed workers) — the sweep always
   completes.

The engine degrades rather than aborts.  Each unit gets a per-unit
timeout (``shard_timeout``, pooled only) and a bounded retry budget
with exponential backoff (``max_retries``, ``backoff``), counted by
one routine whether the unit runs pooled or in-process.  A hung or
dead worker poisons the current pool: its processes are terminated,
the pool is abandoned without waiting, and a fresh pool re-runs
whatever had not finished.  A unit that keeps failing is
*quarantined* — the sweep completes with partial results, the failing
request's :class:`RunResult` carries ``error``, and
:class:`RunMetrics.failed_shards` records every quarantined unit so a
degraded sweep is explicit, machine-readable, and never silently
cached.

Results come back in request order together with a
:class:`RunMetrics` carrying per-experiment wall times, cache hit/miss
counters and worker utilization (busy time / (wall x jobs)).
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

from repro.experiments.common import ExperimentReport, check_profile
from repro.runner.cache import ResultCache, request_key
from repro.runner.registry import REGISTRY, ExperimentSpec

#: Exceptions that mean "no process pool here" rather than "the
#: experiment is broken": missing /dev/shm semaphores, fork limits,
#: interpreter shutdown races.  Anything else propagates.
_POOL_ERRORS = (OSError, PermissionError, ImportError, NotImplementedError,
                RuntimeError, BrokenProcessPool)


@dataclass(frozen=True)
class RunRequest:
    """One cacheable unit of sweep work.

    ``overrides`` are extra keyword arguments forwarded to the
    experiment's ``run`` callable (stored as a sorted item tuple so
    the request is hashable); they participate in the cache key, so
    distinct configurations never collide.  Override values must be
    JSON-serializable — the key is a hash of their canonical JSON.
    """

    experiment: str
    generation: int = 1
    profile: str = "fast"
    overrides: tuple = ()

    @classmethod
    def make(cls, experiment: str, generation: int = 1, profile: str = "fast",
             overrides: dict | None = None) -> "RunRequest":
        """Build a request, normalizing ``overrides`` to sorted items."""
        check_profile(profile)
        return cls(experiment, generation, profile,
                   tuple(sorted((overrides or {}).items())))

    def key(self) -> str:
        """The request's content-addressed cache key (see cache.py)."""
        return request_key(self.experiment, self.generation, self.profile,
                           dict(self.overrides))

    def describe(self) -> dict:
        """JSON-friendly form, stored as cache-entry metadata."""
        return {
            "experiment": self.experiment,
            "generation": self.generation,
            "profile": self.profile,
            "overrides": dict(self.overrides),
        }


@dataclass
class RunResult:
    """Outcome of one request: its reports plus how they were obtained.

    ``error`` is None for a successful run; on a quarantined failure
    the reports are empty, nothing is cached, and ``error`` carries the
    human-readable reason (also recorded in
    :class:`RunMetrics.failed_shards`).
    """

    request: RunRequest
    reports: list[ExperimentReport]
    wall_time: float
    cached: bool
    key: str
    error: str | None = None


@dataclass
class RunMetrics:
    """Aggregate accounting for one :func:`run_sweep` invocation."""

    jobs: int = 1
    wall_time: float = 0.0
    busy_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    pool_fallback: bool = False
    #: Re-executions of individual work units after a failure/timeout.
    retries: int = 0
    #: Units that exhausted their retry budget, one dict each:
    #: {"experiment", "attempts", "reason"}.
    failed_shards: list = field(default_factory=list)
    #: Wall seconds of each executed work unit (one experiment each).
    #: Cache hits cost no execution and are not recorded.
    unit_seconds: list[float] = field(default_factory=list, compare=False, repr=False)

    def utilization(self) -> float:
        """Worker busy fraction: busy time / (wall time x jobs)."""
        if self.wall_time <= 0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_time / (self.wall_time * self.jobs))

    def summary(self) -> str:
        """One-line human summary (the CLI prints this after a sweep)."""
        parts = [
            f"{self.wall_time:.1f}s wall",
            f"jobs={self.jobs}",
            f"utilization={self.utilization():.0%}",
            f"cache: {self.cache_hits} hit{'s' if self.cache_hits != 1 else ''}"
            f" / {self.cache_misses} miss{'es' if self.cache_misses != 1 else ''}",
        ]
        if self.retries:
            parts.append(f"{self.retries} retr{'ies' if self.retries != 1 else 'y'}")
        if self.failed_shards:
            parts.append(
                f"DEGRADED: {len(self.failed_shards)} quarantined "
                f"shard{'s' if len(self.failed_shards) != 1 else ''}"
            )
        if len(self.unit_seconds) >= 2:
            cuts = statistics.quantiles(self.unit_seconds, n=100, method="inclusive")
            parts.append(f"unit p50/p95: {cuts[49]:.1f}s/{cuts[94]:.1f}s")
        if self.pool_fallback:
            parts.append("pool unavailable -> ran serially")
        return ", ".join(parts)


def _spec_for(request: RunRequest) -> ExperimentSpec:
    try:
        return REGISTRY[request.experiment]
    except KeyError:
        raise KeyError(f"unknown experiment {request.experiment!r}; "
                       f"known: {', '.join(REGISTRY)}") from None


def _execute(request: RunRequest) -> tuple[list[dict], float]:
    """Run one whole experiment (worker-process entry point).

    Returns ``(report dicts, wall seconds)``; dicts rather than
    dataclasses so the parent deserializes through the same
    ``ExperimentReport.from_dict`` path the cache uses.
    """
    spec = _spec_for(request)
    started = time.perf_counter()
    if request.overrides:
        reports = spec.run(request.generation, request.profile, **dict(request.overrides))
    else:
        reports = spec.run(request.generation, request.profile)
    wall = time.perf_counter() - started
    return [report.to_dict() for report in reports], wall


@dataclass
class _Unit:
    """One schedulable work unit: a whole experiment."""

    request: RunRequest
    attempts: int = 0
    done: bool = False
    #: :func:`_execute`'s return value once done.
    payload: tuple[list[dict], float] | None = None
    #: Set when the unit is quarantined (retry budget exhausted).
    error: str | None = None

    @property
    def active(self) -> bool:
        """True while the unit still needs (re-)execution."""
        return not self.done and self.error is None

    def describe_failure(self) -> dict:
        """The RunMetrics.failed_shards record for this unit."""
        return {
            "experiment": self.request.experiment,
            "attempts": self.attempts,
            "reason": self.error,
        }


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Kill a pool that holds hung or dead workers, without waiting.

    ``shutdown(wait=True)`` would block on the hung worker forever, so
    the workers are terminated first and the executor is told not to
    wait.  The abandoned pool's resources are reclaimed by the OS.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _harvest(unit: _Unit, future) -> None:
    """Salvage a completed future's result while abandoning a wave."""
    if future.done() and not future.cancelled():
        try:
            unit.payload = future.result(timeout=0)
            unit.done = True
        except Exception:
            pass


def _fail(unit: _Unit, reason: str, metrics: RunMetrics,
          max_retries: int, backoff: float) -> None:
    """Count one failed attempt; quarantine or schedule a retry."""
    unit.attempts += 1
    if unit.attempts > max_retries:
        unit.error = reason
        metrics.failed_shards.append(unit.describe_failure())
    else:
        metrics.retries += 1
        time.sleep(backoff * (2 ** (unit.attempts - 1)))


def _run_pooled(units: list[_Unit], jobs: int, metrics: RunMetrics,
                shard_timeout: float | None, max_retries: int,
                backoff: float) -> None:
    """Run the active ``units`` over process pools until none is left.

    Units run in waves: each wave owns one pool; a timeout or worker
    death poisons the wave (the pool is abandoned and survivors re-run
    in the next wave), while an exception from the experiment itself
    costs only that unit an attempt.  Raises one of ``_POOL_ERRORS``
    only when no pool can be created or pools die without making any
    progress — the caller then runs the still-active units in-process.
    """
    while any(unit.active for unit in units):
        wave = [unit for unit in units if unit.active]
        progressed = False
        poisoned = False
        pool = ProcessPoolExecutor(max_workers=jobs)
        try:
            submitted: list[tuple[_Unit, object]] = []
            try:
                submitted = [(unit, pool.submit(_execute, unit.request)) for unit in wave]
            except BrokenProcessPool:
                poisoned = True
            for unit, future in submitted:
                if poisoned:
                    # The pool is gone; salvage anything that finished.
                    _harvest(unit, future)
                    progressed = progressed or unit.done
                    continue
                try:
                    unit.payload = future.result(timeout=shard_timeout)
                    unit.done = True
                    progressed = True
                except FuturesTimeout:
                    _fail(unit,
                          f"no result within shard_timeout={shard_timeout}s "
                          f"(attempt {unit.attempts + 1})",
                          metrics, max_retries, backoff)
                    progressed = True
                    poisoned = True  # a hung worker can only be killed
                except BrokenProcessPool as error:
                    _fail(unit, f"worker process died: {error}",
                          metrics, max_retries, backoff)
                    progressed = True
                    poisoned = True
                except Exception as error:  # the experiment itself raised
                    _fail(unit, f"{type(error).__name__}: {error}",
                          metrics, max_retries, backoff)
                    progressed = True
        finally:
            if poisoned:
                _abandon_pool(pool)
            else:
                pool.shutdown(wait=True)
        if not progressed:
            # Pools die before accepting work: no way forward here.
            raise BrokenProcessPool("process pool kept dying without progress")


def run_sweep(
    requests: list[RunRequest],
    jobs: int = 1,
    cache: ResultCache | None = None,
    force: bool = False,
    progress: Callable[[RunResult], None] | None = None,
    shard_timeout: float | None = None,
    max_retries: int = 2,
    backoff: float = 0.25,
) -> tuple[list[RunResult], RunMetrics]:
    """Execute ``requests``, returning results in request order.

    ``cache=None`` disables caching entirely.  ``force=True`` drops
    any cached entry for each request before running, so everything is
    recomputed (and re-stored).  ``jobs`` caps the worker processes; 1
    means in-process serial execution with no pool at all.
    ``progress`` is invoked once per completed request, in request
    order, as results become available.

    Hardening knobs: ``shard_timeout`` (seconds a pooled unit may run
    before its worker is presumed hung and killed; None = no limit —
    it needs a pool, so it has no effect at ``jobs=1``),
    ``max_retries`` (re-executions granted to a failing unit before it
    is quarantined), and ``backoff`` (base of the exponential sleep
    between retries).  A sweep never aborts on a failing experiment:
    the affected request comes back as a ``RunResult`` with empty
    reports and ``error`` set, the rest of the sweep completes, and
    ``metrics.failed_shards`` itemizes the damage.  Failed results are
    never written to the cache.  Unknown experiment names still raise
    ``KeyError`` immediately — a typo is a usage error, not degraded
    execution.

    Determinism: every experiment is a pure function of its request
    and runs as one unit, so the returned reports are identical for
    any ``jobs`` value.  Under an ambient :mod:`repro.trace` session,
    in-process runs are traced like any other code: the session holds
    the time series (``sess.timeseries()``) and the reports stay
    byte-identical to untraced ones.
    """
    for request in requests:
        _spec_for(request)  # surface unknown names before any work runs
    metrics = RunMetrics(jobs=max(1, jobs))
    started = time.perf_counter()

    def emit(result: RunResult) -> None:
        if progress is not None:
            progress(result)

    results: dict[RunRequest, RunResult] = {}
    units: list[_Unit] = []
    for request in requests:
        key = request.key()
        if cache is not None and force:
            cache.invalidate(key)
        hit = cache.load(key) if cache is not None and not force else None
        if hit is not None:
            metrics.cache_hits += 1
            results[request] = RunResult(request, hit, 0.0, True, key)
            emit(results[request])
        else:
            metrics.cache_misses += 1
            units.append(_Unit(request))

    def finish(unit: _Unit) -> None:
        request, key = unit.request, unit.request.key()
        if unit.error is not None:
            error = (f"{unit.error} after {unit.attempts} attempt"
                     + ("s" if unit.attempts != 1 else ""))
            results[request] = RunResult(request, [], 0.0, False, key, error=error)
        else:
            dicts, wall = unit.payload
            reports = [ExperimentReport.from_dict(d) for d in dicts]
            if cache is not None:
                cache.store(key, reports, request.describe(), wall)
            metrics.unit_seconds.append(wall)
            metrics.busy_time += wall
            results[request] = RunResult(request, reports, wall, False, key)
        emit(results[request])

    if units and metrics.jobs > 1:
        try:
            _run_pooled(units, metrics.jobs, metrics, shard_timeout, max_retries, backoff)
        except _POOL_ERRORS:
            metrics.pool_fallback = True
    for unit in units:
        while unit.active:  # jobs=1, or the pool died under us: run in-process
            try:
                unit.payload = _execute(unit.request)
                unit.done = True
            except Exception as error:
                _fail(unit, f"{type(error).__name__}: {error}", metrics, max_retries, backoff)
        finish(unit)

    metrics.wall_time = time.perf_counter() - started
    return [results[request] for request in requests], metrics
