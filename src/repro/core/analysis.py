"""Read/write decoupling analysis (the paper's central proposition).

The paper argues performance work on persistent programs should
*decouple* reads from writes: loads from the media are synchronous and
expensive; persists are asynchronous with flat latency; fences gate on
acceptance only.  :class:`InstrumentedCore` makes that decomposition
measurable for any workload written against the Core API: every
operation's cycles are charged to a named bucket, optionally scoped to
a phase label (how Table 1's "segment metadata vs persists vs misc"
columns are produced).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.datastores.base import OP_CLASSES, CoreProxy
from repro.stats.latency import TimeBreakdown
from repro.system.machine import Core


class InstrumentedCore(CoreProxy):
    """A core proxy that attributes every cycle to a breakdown bucket.

    Buckets default to the operation's
    :data:`~repro.datastores.base.OP_CLASSES` bucket (``load``,
    ``store``, ``flush``, ``fence``, ``nt_store``, ``stream_load``,
    ``compute``); ``persist`` is charged as its ``flush`` and ``fence``.
    While :attr:`phase_label` is set, it is used instead, so data
    structures can mark their semantically interesting regions: either
    by assigning the label directly (the CCEH operations do, and restore
    it on exit) or inside a ``with instrumented.phase("indexing"):``
    block, which sets the same label and restores the outer one.
    """

    def __init__(self, core: Core) -> None:
        super().__init__(core)
        self.breakdown = TimeBreakdown()
        #: The bucket charged instead of the op's own (None: the op's).
        self.phase_label: str | None = None

    @contextmanager
    def phase(self, label: str):
        """Attribute cycles spent inside the block to ``label``."""
        previous = self.phase_label
        self.phase_label = label
        try:
            yield self
        finally:
            self.phase_label = previous

    def observe(self, op: str, addr: int, size: int, cycles: float) -> None:
        """Charge ``cycles`` to the current phase or the op's bucket."""
        self.breakdown.charge(self.phase_label or OP_CLASSES[op].bucket, cycles)


def read_write_summary(breakdown: TimeBreakdown) -> dict[str, float]:
    """Fold fine-grained buckets into the paper's read/write/order view.

    * ``read``  — synchronous data loads (load, stream_load),
    * ``write`` — stores and nt-stores,
    * ``order`` — flushes, fences and persist barriers,
    * ``other`` — everything else (compute, custom phases).
    """
    mapping = {
        "load": "read",
        "stream_load": "read",
        "store": "write",
        "nt_store": "write",
        "flush": "order",
        "fence": "order",
        "persist": "order",
    }
    folded = breakdown.merged(mapping)
    fractions = folded.fractions()
    out = {"read": 0.0, "write": 0.0, "order": 0.0, "other": 0.0}
    for name, value in fractions.items():
        out[name if name in out else "other"] += value
    return out
