"""Run one benchmark workload against the simulator in ``src/``.

Usage, from the repository root::

    python3 perfbench/run.py --workload dimm_sweep --seed 1 --seconds 50 --trace 0

Prints every metric with its unit and sample count, the digest of the
simulated outputs and, as the last line, one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from functools import partial
from pathlib import Path

WORKLOAD_NAMES = ("dimm_sweep", "cceh_insert")
#: Times one import of the benchmark, and through it the simulator.
TIME_IMPORT = ("import sys, time; sys.path[:0] = sys.argv[1:]; start = time.perf_counter(); "
               "import harness; print(time.perf_counter() - start)")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(paths: list[str]) -> float:
    """Host seconds of one import in a fresh interpreter.

    A child process keeps the repeated imports' module copies out of
    this process's peak RSS.
    """
    child = subprocess.run([sys.executable, "-c", TIME_IMPORT, *paths],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(child.stdout)


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:28s} {value:>16.6g} {unit:8s}{note}"


def main(argv=None) -> int:
    """Parse arguments, run the workload, print the report."""
    args = _parse(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: simulator sources not found under {src}", file=sys.stderr)
        return 2
    paths = [str(Path(__file__).resolve().parent), str(src)]
    sys.path[:0] = paths
    import harness
    try:
        report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             partial(import_seconds, paths))
    except harness.MeasurementRefused as error:
        print(f"perfbench: refusing to measure: {error}", file=sys.stderr)
        return 2

    n, kept = report.attempted, report.samples
    notes = {
        "ops_per_s": "(faster half of the rounds)",
        "point_ms_p50": f"(n={kept})",
        "point_ms_p90": f"(n={kept}, {kept - math.ceil(0.9 * kept)} above)",
        "setup_s": f"(fastest of {harness.SETUP_REPEATS} imports + set-ups)",
    }
    print(f"workload {report.workload} seed {report.seed}: {report.rounds} rounds, "
          f"{n} timed calls, host at {report.host_scale:.3f}x nominal speed (median)")
    for name, value in report.metrics.items():
        print(_line(name, value, harness.UNITS[name], notes.get(name, "")))
    print(_line("failed_frac", report.failed / n, "ratio", f"({report.failed}/{n})"))
    print(f"digest {report.digest}")
    result = report.metrics
    if report.layer_metrics is not None:
        print(f"traced replay: {report.traced_wall_s:.3f} s, digest {report.traced_digest}")
        for name, value in report.layer_metrics.items():
            print(_line(name, value, harness.UNITS[name]))
        result = report.layer_metrics
    metrics = {name: {"value": value, "unit": harness.UNITS[name]}
               for name, value in result.items()}
    print(json.dumps({"correct": report.correct, "attempted": n, "failed": report.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
