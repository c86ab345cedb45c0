"""Tracking of in-flight (accepted but incomplete) persists.

Under DDR-T, a cacheline flush or non-temporal store *returns* once it
is accepted into the iMC's write pending queue (the ADR domain), long
before the data lands on the 3D-XPoint media.  The paper's
read-after-persist experiments (Section 3.5) hinge on this gap: a load
to a line whose persist is still in flight — and which cannot be served
from the CPU caches — must wait for the persist to complete.

:class:`InflightPersists` records, per cacheline, the absolute time at
which the most recent persist to that line completes.
"""

from __future__ import annotations

from repro.sim.clock import Cycles


class InflightPersists:
    """Completion times of outstanding persists, keyed by cacheline index."""

    def __init__(self) -> None:
        #: Cacheline index -> completion time of its latest persist.
        #: Public so the hot path can test membership before it calls
        #: :meth:`completion_for`: a line that is not a key has no
        #: persist in flight and nothing to prune.
        self.completion_by_line: dict[int, Cycles] = {}

    def __len__(self) -> int:
        return len(self.completion_by_line)

    def add(self, line_index: int, completion: Cycles) -> None:
        """Record that ``line_index`` has a persist completing at ``completion``.

        A newer persist to the same line supersedes the old entry only
        if it completes later (persists to one line drain in order).
        """
        previous = self.completion_by_line.get(line_index, 0.0)
        if completion > previous:
            self.completion_by_line[line_index] = completion

    def completion_for(self, line_index: int, now: Cycles) -> Cycles | None:
        """Completion time of an in-flight persist to ``line_index``.

        Returns ``None`` if there is no persist still in flight at
        ``now``.  Entries whose completion has passed are pruned lazily.
        """
        completion = self.completion_by_line.get(line_index)
        if completion is None:
            return None
        if completion <= now:
            del self.completion_by_line[line_index]
            return None
        return completion

    def clear(self) -> None:
        """Forget all in-flight persists (e.g. simulated power cycle)."""
        self.completion_by_line.clear()
