"""Replayable crash workloads over the shipped persistent datastores.

A crash campaign realizes "crash at event k" by *replaying* the
workload from scratch and stopping at k — the simulator is fully
deterministic, so a fresh build with the same seed reproduces the
identical event stream every time.  Each :class:`CrashWorkload`
therefore owns everything a replay needs: a private machine, the
datastore under test, and the operation sequence.

Workloads are deliberately small: exhaustive campaigns replay the
whole workload once per persistence event, so the event count sets the
campaign's cost quadratically.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import XPLINE_SIZE
from repro.common.errors import ConfigError
from repro.common.rng import DEFAULT_SEED, DeterministicRng
from repro.datastores.btree.fastfair import FastFairTree
from repro.datastores.cceh.hashtable import CcehHashTable
from repro.datastores.linkedlist import PersistentLinkedList
from repro.dimm.config import OptaneDimmConfig
from repro.faults.hooks import EventTap, HookedCore
from repro.media.ait import AitConfig
from repro.persist.allocator import PmHeap, RegionAllocator
from repro.persist.crash import DurabilityChecker
from repro.system.presets import machine_for

#: Datastores a campaign can target.
DATASTORES = ("linkedlist", "btree", "cceh")

#: Operation counts per (datastore, profile) — small on purpose; see
#: the module docstring for why exhaustive cost is quadratic in these.
_SIZES = {
    ("linkedlist", "fast"): 6,
    ("linkedlist", "full"): 12,
    ("btree", "fast"): 6,
    ("btree", "full"): 12,
    ("cceh", "fast"): 8,
    ("cceh", "full"): 16,
}


class CrashWorkload:
    """One replayable unit: private machine + datastore + op sequence.

    Instances are single-use: construct, :meth:`run` (possibly cut
    short by :class:`~repro.faults.hooks.CrashPointReached`), then hand
    to a validator.  Subclasses implement :meth:`_build` (allocate and
    populate the structure at zero simulated cost) and :meth:`_ops`
    (execute the measured operations through the hooked core).
    """

    name = "base"

    def __init__(
        self,
        generation: int = 1,
        profile: str = "fast",
        seed: int = DEFAULT_SEED,
        eadr: bool = False,
        ait_pressure: bool = False,
        size: int | None = None,
    ) -> None:
        """Build the machine and the structure; no events fire yet."""
        self.generation = generation
        self.seed = seed
        self.size = size if size is not None else _SIZES[(self.name, profile)]
        overrides: dict = {}
        if ait_pressure:
            # The ait-miss fault mode needs translation misses *during
            # the ADR drain*, which a workload this small can never
            # produce against the real 16 MB AIT cache — every granule
            # it touched is resident.  The pressure variant shrinks the
            # cache to a single XPLine-sized granule so drained lines
            # genuinely miss, making the fault observable.  Timing
            # changes, but the event stream (program order) does not.
            base = OptaneDimmConfig.g1() if generation == 1 else OptaneDimmConfig.g2()
            overrides["optane"] = replace(
                base,
                media=replace(
                    base.media,
                    ait=AitConfig(coverage_bytes=XPLINE_SIZE, granule_bytes=XPLINE_SIZE),
                ),
            )
        self.machine = machine_for(
            generation, prefetchers=PrefetcherConfig.none(), seed=seed, eadr=eadr, **overrides
        )
        self.checker = DurabilityChecker()
        self.core: HookedCore | None = None
        #: Keys whose operation ran to completion before the crash —
        #: what recovery validators assert is still reachable.
        self.completed_keys: list[int] = []
        self._build()

    def run(self, tap: EventTap) -> None:
        """Execute the op sequence through ``tap`` (may stop mid-op)."""
        self.core = HookedCore(self.machine.new_core(), tap)
        self._ops(self.core, tap)

    def _build(self) -> None:
        """Allocate and pre-populate the datastore (subclass hook)."""
        raise NotImplementedError

    def _ops(self, core: HookedCore, tap: EventTap) -> None:
        """Run the measured operations (subclass hook)."""
        raise NotImplementedError


class LinkedListWorkload(CrashWorkload):
    """Figure 8's pointer-chase-and-update pass over the circular list.

    Each operation updates (and persists) one element's pad cacheline.
    The pointers are never modified, so the structural invariant — the
    chain is one Hamiltonian cycle — must hold at every crash point.
    """

    name = "linkedlist"

    def _build(self) -> None:
        """Allocate the circular list (layout only, no events)."""
        allocator = RegionAllocator(self.machine, "pm")
        self.datastore = PersistentLinkedList(allocator, count=self.size, sequential=True)

    def _ops(self, core: HookedCore, tap: EventTap) -> None:
        """One persisted pad update per element, chasing the chain."""
        cursor = 0
        for _ in range(self.size):
            cursor = self.datastore.update_pass(
                core, start=cursor, steps=1, persist=True, fence="sfence"
            )
            self.completed_keys.append(cursor)
            tap.next_op()


class BtreeRedoWorkload(CrashWorkload):
    """Sorted-insert batch into the redo-logging FAST & FAIR B+-tree.

    Exercises the paper's Figure 11 protocol end to end: out-of-place
    log appends, per-cacheline commit flags, and plain-store write-back
    — the path whose crash window is covered by log replay, not by
    flushes of the home locations.
    """

    name = "btree"

    def _build(self) -> None:
        """Create the tree and draw a shuffled key sequence."""
        self.heap = PmHeap(self.machine)
        self.datastore = FastFairTree(self.heap, mode="redo", fence="sfence")
        self.keys = DeterministicRng(self.seed).shuffled(
            [index * 7 + 1 for index in range(self.size)]
        )

    def _ops(self, core: HookedCore, tap: EventTap) -> None:
        """Insert each key; a key counts as completed when insert returns."""
        for key in self.keys:
            self.datastore.insert(key, key + 100, core)
            self.completed_keys.append(key)
            tap.next_op()


class CcehWorkload(CrashWorkload):
    """Insert batch into the CCEH hash table (paper Section 4.1).

    Covers bucket stores, the per-insert persistence barrier, and —
    with enough keys — lazy segment splits and directory updates.
    """

    name = "cceh"

    def _build(self) -> None:
        """Create the table and draw a shuffled key sequence."""
        allocator = RegionAllocator(self.machine, "pm")
        self.datastore = CcehHashTable(allocator, initial_depth=1, fence="mfence")
        self.keys = DeterministicRng(self.seed).shuffled(
            [index * 13 + 5 for index in range(self.size)]
        )

    def _ops(self, core: HookedCore, tap: EventTap) -> None:
        """Insert each key; a key counts as completed when insert returns."""
        for key in self.keys:
            self.datastore.insert(key, key + 1, core)
            self.completed_keys.append(key)
            tap.next_op()


_WORKLOADS = {
    "linkedlist": LinkedListWorkload,
    "btree": BtreeRedoWorkload,
    "cceh": CcehWorkload,
}


def make_workload(
    datastore: str,
    generation: int = 1,
    profile: str = "fast",
    seed: int = DEFAULT_SEED,
    eadr: bool = False,
    ait_pressure: bool = False,
) -> CrashWorkload:
    """Build a fresh workload instance for ``datastore``.

    Module-level and partial-friendly so campaign configs built from it
    stay picklable for the process-pool runner.
    """
    try:
        cls = _WORKLOADS[datastore]
    except KeyError:
        raise ConfigError(
            f"unknown crash datastore {datastore!r}; known: {', '.join(DATASTORES)}"
        )
    return cls(
        generation=generation,
        profile=profile,
        seed=seed,
        eadr=eadr,
        ait_pressure=ait_pressure,
    )
