"""repro.runner — parallel sweep engine with an on-disk result cache.

The scheduling/caching substrate for every experiment in the
repository.  Three pieces:

* :mod:`repro.runner.registry` — every paper figure/table as an
  :class:`ExperimentSpec` (the single registration site, picklable
  for worker processes);
* :mod:`repro.runner.cache` — a content-addressed on-disk store of
  ``ExperimentReport`` JSON, keyed by SHA-256 of ``(experiment,
  generation, profile, overrides, code version)``;
* :mod:`repro.runner.engine` — :func:`run_sweep`, the process-pool
  fan-out (one work unit per experiment) with cache consultation,
  results in request order, metrics (wall time, worker utilization,
  hit/miss counters) and graceful serial fallback when no pool can be
  created.

Typical use::

    from repro.runner import ResultCache, RunRequest, run_sweep

    requests = [RunRequest.make("fig2", generation=1),
                RunRequest.make("fig7", generation=2)]
    results, metrics = run_sweep(requests, jobs=4, cache=ResultCache())
    for result in results:
        for report in result.reports:
            print(report.render())
    print(metrics.summary())

The CLI (``python -m repro run all --jobs 8``) and the claim oracle
(``python -m repro validate``) are thin layers over exactly this API.
"""

from repro.runner.cache import ResultCache, code_version, default_cache_dir, request_key
from repro.runner.engine import RunMetrics, RunRequest, RunResult, run_sweep
from repro.runner.registry import REGISTRY, ExperimentSpec, resolve_names

__all__ = [
    "REGISTRY",
    "ExperimentSpec",
    "ResultCache",
    "RunMetrics",
    "RunRequest",
    "RunResult",
    "code_version",
    "default_cache_dir",
    "request_key",
    "resolve_names",
    "run_sweep",
]

