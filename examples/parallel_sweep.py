#!/usr/bin/env python3
"""Drive a paper sweep through the parallel runner and its result cache.

Demonstrates the `repro.runner` public API — the same substrate behind
``python -m repro run all --jobs 8``:

1. build one `RunRequest` per (experiment, generation) configuration;
2. hand the batch to `run_sweep` with a process pool and the on-disk
   `ResultCache` (content-addressed: any source change invalidates);
3. read the metrics: per-experiment wall time, worker utilization and
   cache hit/miss counters.

Run it twice to watch the second invocation come back from cache:

    python examples/parallel_sweep.py
    python examples/parallel_sweep.py      # all hits, near-instant

Environment: REPRO_JOBS (default 4), REPRO_CACHE_DIR (default
~/.cache/repro).
"""

import os

from repro.runner import ResultCache, RunRequest, run_sweep


def main() -> None:
    jobs = int(os.environ.get("REPRO_JOBS", "4"))
    requests = [
        RunRequest.make("fig4"),                    # generation-independent
        RunRequest.make("sec33", generation=1),
        RunRequest.make("sec33", generation=2),
        RunRequest.make("fig2", generation=1),
    ]
    cache = ResultCache()

    def show(result):
        status = "cache" if result.cached else f"{result.wall_time:.1f}s"
        for report in result.reports:
            print(report.render())
            print()
        print(f"[{result.request.experiment} g{result.request.generation}: {status}]\n")

    _, metrics = run_sweep(requests, jobs=jobs, cache=cache, progress=show)
    print(f"sweep finished: {metrics.summary()}")
    print(f"cache root: {cache.root} ({len(cache)} entries)")


if __name__ == "__main__":
    main()
