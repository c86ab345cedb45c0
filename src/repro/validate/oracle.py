"""The validation engine: run experiments, evaluate claims, aggregate.

:func:`validate` is the one entry point (the ``repro validate`` CLI
and the CI gate are thin layers over it).  It derives the minimal set
of ``(experiment, generation)`` sweep requests from the selected
claims, executes them through the PR-1 runner — so a repeat
validation on an unchanged tree is one cached sweep — and evaluates
every claim against the resulting reports into a
:class:`~repro.validate.report.FidelityReport`.

In mutation-smoke mode (``mutation="knob=value"``) the run is scoped
to the ``(experiment, generation)`` pairs the mutation's expected
failures touch, executed serially, uncached, inside
:func:`repro.system.presets.preset_overrides` — mutated results must
never pollute the cache, and pool workers would not see the ambient
override.
"""

from __future__ import annotations

from typing import Callable

from repro.runner import ResultCache, RunRequest, run_sweep
from repro.system.presets import preset_overrides
from repro.validate.claims import all_claims
from repro.validate.mutations import parse_mutation, resolve_expected
from repro.validate.report import ClaimVerdict, FidelityReport
from repro.validate.spec import Claim


def select_claims(
    experiments: list[str] | None = None,
    generations: tuple = (1, 2),
    profile: str = "fast",
) -> list[Claim]:
    """The registered claims in scope for one validation run."""
    claims = [
        claim
        for claim in all_claims()
        if claim.generation in generations
        and profile in claim.profiles
        and (experiments is None or claim.experiment in experiments)
    ]
    return claims


def _requests_for(claims: list[Claim], profile: str) -> list[RunRequest]:
    """Deduplicated sweep requests covering every selected claim."""
    seen: dict[tuple, RunRequest] = {}
    for claim in claims:
        key = (claim.experiment, claim.generation)
        if key not in seen:
            seen[key] = RunRequest.make(claim.experiment, generation=claim.generation,
                                        profile=profile)
    return list(seen.values())


def validate(
    experiments: list[str] | None = None,
    generations: tuple = (1, 2),
    profile: str = "fast",
    jobs: int = 1,
    cache: ResultCache | None = None,
    force: bool = False,
    mutation: str | None = None,
    progress: Callable[[ClaimVerdict], None] | None = None,
) -> FidelityReport:
    """Evaluate the selected paper claims; returns the fidelity report.

    ``experiments=None`` means every experiment with registered
    claims.  ``mutation`` switches to mutation-smoke mode: the named
    knob is flipped, scope narrows to the ``(experiment, generation)``
    pairs the mutation's expected failures belong to (their other
    claims ride along as collateral-damage controls), and the report's
    ``ok()`` demands the failure set match the expectation exactly.  ``progress`` is called
    once per verdict as claims are evaluated.
    """
    claims = select_claims(experiments, generations, profile)
    fidelity = FidelityReport(profile=profile, generations=tuple(generations))

    overrides = None
    if mutation is not None:
        resolved = parse_mutation(mutation)
        expected = resolve_expected(resolved, [claim.id for claim in claims])
        affected = {(claim.experiment, claim.generation)
                    for claim in claims if claim.id in set(expected)}
        claims = [claim for claim in claims
                  if (claim.experiment, claim.generation) in affected]
        fidelity.mutation = resolved.spec
        fidelity.expected_failures = expected
        overrides = resolved.overrides
        jobs, cache, force = 1, None, False  # serial, uncached, by construction

    requests = _requests_for(claims, profile)

    def sweep():
        return run_sweep(requests, jobs=jobs, cache=cache, force=force)

    if overrides is not None:
        with preset_overrides(**overrides):
            results, metrics = sweep()
    else:
        results, metrics = sweep()
    fidelity.sweep_summary = metrics.summary()

    reports_by_key: dict[tuple, list] = {}
    for result in results:
        key = (result.request.experiment, result.request.generation)
        if result.error is not None:
            fidelity.run_errors[f"{key[0]}:g{key[1]}"] = result.error
        else:
            reports_by_key[key] = result.reports

    for claim in claims:
        key = (claim.experiment, claim.generation)
        if key in reports_by_key:
            verdict = ClaimVerdict.from_result(claim, claim.evaluate(reports_by_key[key]))
        else:
            error = fidelity.run_errors.get(f"{key[0]}:g{key[1]}", "experiment did not run")
            verdict = ClaimVerdict(
                claim_id=claim.id, experiment=claim.experiment,
                generation=claim.generation, claim=claim.claim,
                citation=claim.citation, passed=False,
                measured=f"sweep error: {error}", expected=claim.claim,
                allowance=claim.allowance,
            )
        fidelity.verdicts.append(verdict)
        if progress is not None:
            progress(verdict)
    return fidelity
