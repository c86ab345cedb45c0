"""Speculative helper-thread prefetching (paper Section 4.1).

The optimization: a helper thread, bound to the sibling hyperthread of
the worker's core, executes *only the loads* needed to index a data
structure for keys the worker has not processed yet.  Because it skips
all stores, computation and persistence barriers, it runs ahead of the
worker and pulls the needed XPLines into the AIT buffer, the on-DIMM
read buffer and the CPU caches — a 100%-accurate prefetcher.

Model notes (documented deviations in DESIGN.md):

* The helper is a second :class:`Core` on the same machine, so it
  shares the cache hierarchy (its fills are visible to the worker) and
  competes for the same media read ports (real bandwidth contention).
* Running too far ahead overflows the small on-DIMM buffers, so the
  run-ahead depth (:data:`RUN_AHEAD_DEPTH`) is bounded; the paper
  empirically chose 8.
* Hyperthread resource sharing is modeled as a fixed cycle tax charged
  to the worker per helper operation (:data:`SMT_OVERHEAD`): the two
  hardware threads share issue slots, so helper work is only free
  while the worker is stalled.  On Optane the worker is stalled most
  of the time (long media reads, fence waits) and the tax is far below
  the saved media latency; on DRAM, loads are short and the tax
  exceeds the savings — reproducing the paper's finding that the
  helper *hurts* on DRAM (Figure 10 c/d).
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.system.machine import Core, Machine

WorkItem = TypeVar("WorkItem")

#: Executes the load-only slice of processing one item.
TraceFunction = Callable[[Core, WorkItem], None]


#: How many items the helper runs ahead of the worker.
RUN_AHEAD_DEPTH = 8
#: Cycles of shared-pipeline capacity each helper op costs the worker.
SMT_OVERHEAD = 230.0


class HelperThread:
    """Depth-bounded run-ahead prefetcher over a known work stream."""

    def __init__(self, machine: Machine, trace: TraceFunction, name: str = "helper") -> None:
        self.machine = machine
        self.trace = trace
        self.core = machine.new_core(name)
        self._next_index = 0
        self.items_prefetched = 0

    def sync_before(self, worker: Core, items: Sequence[WorkItem], worker_index: int) -> None:
        """Bring the helper :data:`RUN_AHEAD_DEPTH` items ahead of ``worker_index``.

        Called by the harness right before the worker processes item
        ``worker_index``.  The helper's clock never lags the worker's
        (it has nothing else to do), and each helper item charges the
        SMT tax to the worker.
        """
        target = min(worker_index + RUN_AHEAD_DEPTH, len(items))
        while self._next_index < target:
            # The helper cannot act before the worker reaches "now".
            if self.core.now < worker.now:
                self.core.now = worker.now
            self.trace(self.core, items[self._next_index])
            self.items_prefetched += 1
            worker.now += SMT_OVERHEAD
            self._next_index += 1

    def reset(self) -> None:
        """Restart the run-ahead cursor (e.g. for a new key stream)."""
        self._next_index = 0
        self.items_prefetched = 0
