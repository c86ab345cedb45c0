"""Command-line runner: regenerate any of the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig2 --generation 1
    python -m repro run fig7 fig8 --profile full
    python -m repro run all --jobs 8          # parallel sweep
    python -m repro run all                   # second time: served from cache
    python -m repro run fig3 --force          # recompute + refresh cache
    python -m repro run fig3 --no-cache       # bypass the cache entirely
    python -m repro crashtest                 # crash campaigns, all datastores
    python -m repro crashtest btree --points exhaustive
    python -m repro crashtest linkedlist --fault-mode torn-xpline
    python -m repro trace fig7 --interval 1000 --out trace.json \
        --timeline occupancy.csv              # Perfetto-loadable trace
    python -m repro validate                  # check every paper claim
    python -m repro validate --profile fast --json fidelity.json
    python -m repro validate --expect-fail read_buffer=off   # oracle smoke
    python -m repro validate --determinism    # differential checks too

Mirrors the original artifact's ``run.py`` — one command reruns an
experiment and prints the series/rows the corresponding paper figure
plots — but schedules everything through :mod:`repro.runner`: runs
fan out across a process pool (``--jobs``) and results are served
from the content-addressed on-disk cache when the same
``(experiment, generation, profile, code version)`` configuration has
already been computed.  The sweep summary line reports wall time,
worker utilization and cache hit/miss counters.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.errors import ConfigError
from repro.faults.campaign import FAULT_MODES, STATUS_CODES, parse_points
from repro.faults.workloads import DATASTORES
from repro.runner import REGISTRY, ResultCache, RunRequest, run_sweep
from repro.runner.registry import resolve_names


def _bounded(kind: type, minimum: float, strict: bool = False):
    """An argparse ``type``: a ``kind`` value >= ``minimum`` (> if ``strict``)."""

    def parse(text: str):
        value = kind(text)
        if not (value > minimum if strict else value >= minimum):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {minimum}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in parse errors
    return parse


def build_parser() -> argparse.ArgumentParser:
    """Construct the `repro` argument parser (list / run subcommands).

    ``run`` exposes the runner's scheduling knobs: ``--jobs`` (process
    fan-out; 1 = serial, no pool), ``--cache/--no-cache`` (consult and
    populate the on-disk result cache — the default — or bypass it),
    ``--force`` (invalidate then recompute the selected entries) and
    ``--cache-dir`` (cache root; also settable via ``REPRO_CACHE_DIR``).
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rerun the EuroSys'22 Optane buffering experiments in simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("experiments", nargs="+", help="experiment ids or 'all'")
    _add_common_run_arguments(run)
    run.add_argument(
        "--chart", action="store_true", help="render ASCII charts alongside the tables"
    )
    trace = sub.add_parser(
        "trace",
        help="run one experiment under the telemetry tracer and export "
             "a Chrome trace (Perfetto-loadable) plus a time-series CSV",
    )
    trace.add_argument("experiment", help="experiment id to trace")
    trace.add_argument("--generation", "-g", type=int, default=1, choices=(1, 2))
    trace.add_argument("--profile", "-p", default="fast", choices=("fast", "full"))
    trace.add_argument(
        "--interval", type=float, default=1000.0, metavar="CYCLES",
        help="telemetry sampling interval in simulated cycles (default 1000); "
             "0 disables sampling and records events only",
    )
    trace.add_argument(
        "--out", default="trace.json", metavar="FILE",
        help="Chrome trace_event JSON output path (default trace.json)",
    )
    trace.add_argument(
        "--timeline", default=None, metavar="FILE",
        help="also dump the sampled time-series (.csv or .json by extension)",
    )
    trace.add_argument(
        "--categories", default=None, metavar="CAT[,CAT...]",
        help="record only these event categories (default: all)",
    )
    trace.add_argument(
        "--cycles-per-us", type=float, default=1000.0, metavar="N",
        help="simulated cycles per exported microsecond (default 1000)",
    )
    crashtest = sub.add_parser(
        "crashtest",
        help="crash-point fault-injection campaigns with recovery validation",
    )
    crashtest.add_argument(
        "datastores", nargs="*", default=["all"], metavar="DATASTORE",
        help=f"datastores to campaign over: {', '.join(DATASTORES)} (default: all)",
    )
    crashtest.add_argument(
        "--points", default="sample:50", metavar="SCHEDULE",
        help="crash-point schedule: 'exhaustive' or 'sample:N' (default sample:50)",
    )
    crashtest.add_argument(
        "--seed", type=int, default=7,
        help="seed for sampling and fault placement (default 7)",
    )
    crashtest.add_argument(
        "--fault-mode", default="power-loss", choices=FAULT_MODES,
        help="fault injected at each crash point (default power-loss)",
    )
    _add_common_run_arguments(crashtest)
    validate = sub.add_parser(
        "validate",
        help="check the paper's claims (EXPERIMENTS.md) against experiment "
             "reports and print/export a fidelity report",
    )
    validate.add_argument(
        "--experiments", "-e", nargs="+", default=None, metavar="EXP",
        help="restrict to these experiments (default: every one with claims)",
    )
    validate.add_argument(
        "--generation", "-g", type=int, default=None, choices=(1, 2),
        help="restrict to one generation (default: both; a mutation "
             "runs only the generations its expected failures name)",
    )
    validate.add_argument("--profile", "-p", default="fast", choices=("fast", "full"))
    validate.add_argument(
        "--jobs", "-j", type=_bounded(int, 1), default=1, metavar="N",
        help="worker processes for the underlying sweep (default 1)",
    )
    validate.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the fidelity report as JSON (the CI artifact)",
    )
    validate.add_argument(
        "--expect-fail", default=None, metavar="KNOB=VALUE",
        help="mutation-smoke mode: flip one design knob and require exactly "
             "the declared claims to fail (e.g. read_buffer=off); runs "
             "serially and uncached",
    )
    validate.add_argument(
        "--determinism", action="store_true",
        help="also run the differential determinism suite (serial vs "
             "parallel, cached vs fresh, seed shift, grid refinement)",
    )
    validate.add_argument(
        "--list", action="store_true", dest="list_claims",
        help="list the registered claims and exit",
    )
    _add_cache_arguments(validate)
    return parser


def _add_common_run_arguments(command: argparse.ArgumentParser) -> None:
    """Attach the scheduling/cache flags shared by run and crashtest."""
    command.add_argument("--generation", "-g", type=int, default=1, choices=(1, 2))
    command.add_argument("--profile", "-p", default="fast", choices=("fast", "full"))
    command.add_argument(
        "--jobs", "-j", type=_bounded(int, 1), default=1, metavar="N",
        help="worker processes for the sweep (default 1 = serial)",
    )
    command.add_argument(
        "--shard-timeout", type=_bounded(float, 0, strict=True), default=None,
        metavar="SECONDS",
        help="presume a pooled worker hung after this long and retry elsewhere",
    )
    command.add_argument(
        "--retries", type=_bounded(int, 0), default=2, metavar="N",
        help="re-executions granted to a failing work unit before quarantine (default 2)",
    )
    _add_cache_arguments(command)


def _add_cache_arguments(command: argparse.ArgumentParser) -> None:
    """Attach the result-cache flags shared by run, crashtest and validate."""
    cache_group = command.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache", dest="cache", action="store_true", default=True,
        help="serve/populate the on-disk result cache (default)",
    )
    cache_group.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="bypass the result cache entirely",
    )
    command.add_argument(
        "--force", action="store_true",
        help="invalidate cached entries for the selected runs and recompute",
    )
    command.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    ``run`` builds one :class:`~repro.runner.RunRequest` per selected
    experiment and hands the whole batch to
    :func:`~repro.runner.run_sweep`, so ``--jobs N`` runs up to N
    experiments at once.  Reports print in request order as they
    resolve; cached results are marked and cost no simulation time.
    """
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in REGISTRY)
        for name, spec in REGISTRY.items():
            print(f"{name.ljust(width)}  {spec.title}")
        return 0

    if args.command == "trace":
        return _trace_command(args)

    if args.command == "validate":
        return _validate_command(args)

    if args.command == "crashtest":
        try:
            parse_points(args.points)
        except ConfigError as error:
            print(f"bad --points value: {error}", file=sys.stderr)
            return 2
        datastores = list(DATASTORES) if "all" in args.datastores else list(args.datastores)
        unknown = [name for name in datastores if name not in DATASTORES]
        if unknown:
            print(f"unknown datastore(s): {', '.join(unknown)}", file=sys.stderr)
            print(f"available: {', '.join(DATASTORES)}", file=sys.stderr)
            return 2
        requests = [
            RunRequest.make(
                f"crash-{datastore}",
                generation=args.generation,
                profile=args.profile,
                overrides={
                    "points": args.points,
                    "seed": args.seed,
                    "fault_mode": args.fault_mode,
                },
            )
            for datastore in datastores
        ]
    else:
        try:
            names = resolve_names(args.experiments)
        except KeyError as error:
            print(f"unknown experiment(s): {error.args[0]}", file=sys.stderr)
            print(f"available: {', '.join(REGISTRY)}", file=sys.stderr)
            return 2
        requests = [
            RunRequest.make(name, generation=args.generation, profile=args.profile)
            for name in names
        ]

    cache = ResultCache(args.cache_dir) if args.cache else None

    def show(result) -> None:
        spec = REGISTRY[result.request.experiment]
        print(f"### {spec.title} (G{args.generation}, {args.profile} profile)")
        if result.error is not None:
            print(f"[{result.request.experiment} FAILED: {result.error}]\n")
            return
        for report in result.reports:
            print(report.render())
            if getattr(args, "chart", False):
                from repro.experiments.plotting import chart

                print()
                print(chart(report))
            print()
        if result.cached:
            print(f"[{result.request.experiment} served from cache]\n")
        else:
            print(f"[{result.request.experiment} done in {result.wall_time:.1f}s]\n")

    results, metrics = run_sweep(
        requests,
        jobs=args.jobs,
        cache=cache,
        force=args.force,
        progress=show,
        shard_timeout=args.shard_timeout,
        max_retries=args.retries,
    )
    print(f"[sweep: {len(requests)} experiment{'s' if len(requests) != 1 else ''}, "
          f"{metrics.summary()}]")
    if cache is not None and cache.write_errors:
        print(f"warning: {cache.write_errors} result(s) could not be written to "
              f"the cache at {cache.root} (ran uncached)", file=sys.stderr)
    failed = [result for result in results if result.error is not None]
    if failed:
        print(f"warning: {len(failed)} experiment(s) failed and were quarantined: "
              + ", ".join(result.request.experiment for result in failed),
              file=sys.stderr)
        return 1
    if args.command == "crashtest":
        return _crashtest_verdict(results)
    return 0


def _validate_command(args) -> int:
    """Run the fidelity oracle; exit 0 only when it holds.

    Normal mode: every selected claim must pass.  Mutation-smoke mode
    (``--expect-fail knob=value``): the observed failures must match
    the mutation's declared expectation exactly — a claim that fails
    to fail means the oracle has no teeth for that property.  The
    ``--determinism`` suite folds into the exit code the same way.
    """
    from repro.validate import run_determinism_suite, select_claims, validate

    if args.list_claims:
        generations = (args.generation,) if args.generation else (1, 2)
        claims = select_claims(args.experiments, generations, args.profile)
        width = max((len(claim.id) for claim in claims), default=0)
        for claim in claims:
            print(f"{claim.id.ljust(width)}  [{claim.experiment} G{claim.generation}] "
                  f"{claim.claim}")
        print(f"[{len(claims)} claims]")
        return 0

    generations = (args.generation,) if args.generation else (1, 2)
    cache = ResultCache(args.cache_dir) if args.cache and not args.expect_fail else None

    def progress(verdict) -> None:
        marker = "ok" if verdict.passed else "FAIL"
        print(f"  [{marker}] {verdict.claim_id}: {verdict.measured}")

    try:
        fidelity = validate(
            experiments=args.experiments,
            generations=generations,
            profile=args.profile,
            jobs=args.jobs,
            cache=cache,
            force=args.force,
            mutation=args.expect_fail,
            progress=progress,
        )
    except ConfigError as error:
        print(f"validate: {error}", file=sys.stderr)
        return 2
    print()
    print(fidelity.render())

    determinism = []
    if args.determinism:
        print()
        determinism = run_determinism_suite(cache_dir=args.cache_dir, jobs=max(args.jobs, 2))
        for result in determinism:
            marker = "ok" if result.passed else "FAIL"
            print(f"  [{marker}] {result.name}: {result.detail}")

    if args.json is not None:
        payload = fidelity.to_dict()
        if determinism:
            payload["determinism"] = [result.to_dict() for result in determinism]
        import json as _json
        import pathlib

        path = pathlib.Path(args.json)
        path.write_text(_json.dumps(payload, indent=2))
        print(f"[fidelity report written to {path}]")

    ok = fidelity.ok() and all(result.passed for result in determinism)
    return 0 if ok else 1


def _trace_command(args) -> int:
    """Run one experiment inside an ambient trace session and export.

    The experiment runs serially in-process (trace sessions are
    per-process; a worker pool would build its machines out of the
    session's sight) and bypasses the result cache — a cached replay
    simulates nothing and would produce an empty trace.
    """
    from repro.common.errors import ReproError
    from repro.trace import session
    from repro.trace.emit import (
        write_chrome_trace,
        write_timeseries_csv,
        write_timeseries_json,
    )

    if args.experiment not in REGISTRY:
        print(f"unknown experiment: {args.experiment}", file=sys.stderr)
        print(f"available: {', '.join(REGISTRY)}", file=sys.stderr)
        return 2
    spec = REGISTRY[args.experiment]
    categories = args.categories.split(",") if args.categories else None
    interval = args.interval if args.interval > 0 else None
    try:
        with session(interval=interval, categories=categories) as sess:
            reports = spec.run(args.generation, args.profile)
    except (ConfigError, ReproError) as error:
        print(f"trace failed: {error}", file=sys.stderr)
        return 2
    series = sess.timeseries()
    for report in reports:
        if series.rows and report is reports[0]:
            report.timeseries = series.to_obj()
        print(report.render())
        print()
    out = write_chrome_trace(args.out, sess.tracer, args.cycles_per_us)
    print(f"[chrome trace: {out} — load it at https://ui.perfetto.dev]")
    if args.timeline is not None:
        if args.timeline.endswith(".json"):
            timeline = write_timeseries_json(args.timeline, series)
        else:
            timeline = write_timeseries_csv(args.timeline, series)
        print(f"[time-series: {timeline} ({len(series)} rows)]")
    print(f"[trace: {sess.summary()}]")
    return 0


def _violations_in(result) -> int:
    """Count crash points a campaign result flagged as violations."""
    violation_code = STATUS_CODES["violation"]
    count = 0
    for report in result.reports:
        try:
            values = report.get("status")
        except KeyError:
            continue
        count += sum(1 for value in values if value == violation_code)
    return count


def _crashtest_verdict(results) -> int:
    """Exit code for crashtest: 1 if any campaign found a violation."""
    total = 0
    for result in results:
        violations = _violations_in(result)
        if violations:
            print(f"{result.request.experiment}: {violations} crash-consistency "
                  f"violation(s) found", file=sys.stderr)
        total += violations
    if total:
        return 1
    print("crashtest: no crash-consistency violations found")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
