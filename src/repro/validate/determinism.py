"""Differential determinism checks for the sweep machinery.

Claim checking is only as trustworthy as the reports it reads, so the
fidelity gate also verifies the machinery's core invariants
differentially:

* **serial vs parallel** — a ``--jobs N`` sweep must produce
  byte-identical report JSON to a serial sweep (each experiment is
  one work unit and a pure function of its request);
* **cached vs fresh** — replaying a sweep from the on-disk cache must
  reproduce the freshly computed reports byte-for-byte;
* **seed shift** — shape claims must hold under a different machine
  seed: the paper's conclusions cannot hinge on one lucky RNG stream
  (the write buffer's random eviction is the only stochastic piece);
* **grid refinement** — shape claims must hold on the full profile's
  finer grid: a knee that only exists between coarse grid points is
  an artifact, not a finding.

Each check returns a :class:`DeterminismResult`; ``repro validate
--determinism`` runs the suite and folds failures into the exit code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.runner import ResultCache, RunRequest, run_sweep
from repro.system.presets import preset_overrides


@dataclass(frozen=True)
class DeterminismResult:
    """One differential check's outcome."""

    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        """JSON-friendly form (appended to the fidelity artifact)."""
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _sweep_json(requests: list[RunRequest], **kwargs) -> tuple[str, object]:
    """Canonical JSON of a sweep's reports, plus its metrics."""
    results, metrics = run_sweep(requests, **kwargs)
    for result in results:
        if result.error is not None:
            raise RuntimeError(f"{result.request.experiment}: {result.error}")
    payload = [
        [report.to_dict() for report in result.reports] for result in results
    ]
    return json.dumps(payload, sort_keys=True), metrics


def check_parallel_determinism(
    experiments: tuple = ("fig2", "fig7"),
    generation: int = 1,
    profile: str = "fast",
    jobs: int = 4,
) -> DeterminismResult:
    """Serial and process-pool sweeps produce byte-identical reports.

    When no pool can be created (sandboxes without semaphores) the
    engine falls back to serial execution; the check then passes
    trivially but says so in its detail.
    """
    requests = [RunRequest.make(name, generation=generation, profile=profile)
                for name in experiments]
    serial, _ = _sweep_json(requests, jobs=1, cache=None)
    pooled, metrics = _sweep_json(requests, jobs=jobs, cache=None)
    identical = serial == pooled
    detail = f"{', '.join(experiments)} @ jobs=1 vs jobs={jobs}: " + (
        "byte-identical" if identical else "REPORTS DIFFER"
    )
    if metrics.pool_fallback:
        detail += " (pool unavailable; parallel leg ran serially)"
    return DeterminismResult("serial-vs-parallel", identical, detail)


def check_cache_determinism(
    cache_dir,
    experiment: str = "fig2",
    generation: int = 1,
    profile: str = "fast",
) -> DeterminismResult:
    """A cache replay reproduces the fresh reports byte-for-byte."""
    cache = ResultCache(cache_dir)
    requests = [RunRequest.make(experiment, generation=generation, profile=profile)]
    fresh, first = _sweep_json(requests, jobs=1, cache=cache, force=True)
    replay, second = _sweep_json(requests, jobs=1, cache=cache)
    if second.cache_hits != len(requests):
        return DeterminismResult(
            "cached-vs-fresh", False,
            f"{experiment}: replay was not served from cache "
            f"({second.cache_hits} hits / {second.cache_misses} misses)",
        )
    identical = fresh == replay
    return DeterminismResult(
        "cached-vs-fresh", identical,
        f"{experiment}: fresh vs cache replay " +
        ("byte-identical" if identical else "DIFFER"),
    )


def check_seed_stability(
    experiments: tuple = ("fig3", "fig4"),
    generations: tuple = (1, 2),
    profile: str = "fast",
    seed: int = 4242,
) -> DeterminismResult:
    """Shape claims still pass with the machine RNG seeded differently.

    Runs the named experiments' claims under an ambient seed override
    (serial and uncached — the override is process-local and mutated
    results must not be cached) and requires every claim to pass.
    """
    from repro.validate.oracle import validate

    with preset_overrides(seed=seed):
        fidelity = validate(experiments=list(experiments), generations=generations,
                            profile=profile, jobs=1, cache=None)
    failed = [v.claim_id for v in fidelity.failed]
    return DeterminismResult(
        "seed-stability",
        not failed and not fidelity.run_errors,
        f"seed={seed}, {len(fidelity.passed)}/{len(fidelity.verdicts)} claims pass"
        + (f"; failing: {', '.join(failed)}" if failed else ""),
    )


def check_grid_refinement(
    experiments: tuple = ("fig2", "fig3"),
    generations: tuple = (1, 2),
    cache: ResultCache | None = None,
) -> DeterminismResult:
    """Shape claims hold on the full profile's finer sweep grid.

    Claims are written grid-independent (knee windows, plateaus,
    orderings), so the same claim set must pass when the fast
    profile's 2 KB steps refine to the full profile's 1 KB steps.
    """
    from repro.validate.oracle import validate

    fidelity = validate(experiments=list(experiments), generations=generations,
                        profile="full", jobs=1, cache=cache)
    failed = [v.claim_id for v in fidelity.failed]
    return DeterminismResult(
        "grid-refinement",
        not failed and not fidelity.run_errors,
        f"full-profile grid, {len(fidelity.passed)}/{len(fidelity.verdicts)} claims pass"
        + (f"; failing: {', '.join(failed)}" if failed else ""),
    )


def run_determinism_suite(cache_dir=None, jobs: int = 4) -> list[DeterminismResult]:
    """The full differential suite, cheapest checks first."""
    import tempfile

    results = [
        check_cache_determinism(cache_dir or tempfile.mkdtemp(prefix="repro-det-")),
        check_parallel_determinism(jobs=jobs),
        check_seed_stability(),
        check_grid_refinement(),
    ]
    return results
