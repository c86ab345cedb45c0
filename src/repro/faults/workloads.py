"""Replayable crash workloads over the shipped persistent datastores.

A crash campaign realizes "crash at event k" by *replaying* the
workload from scratch and stopping at k — the simulator is fully
deterministic, so a fresh build with the same seed reproduces the
identical event stream every time.  Each :class:`CrashWorkload`
therefore owns everything a replay needs: a private machine, the
datastore under test, the operation sequence, and the recovery check
that runs after the power cut.

Recovery is judged on two questions:

1. **No lost committed update** — did the crash destroy any cacheline
   the workload had claimed durable (flush accepted before a fence)?
   This comes straight from the
   :class:`~repro.persist.crash.DurabilityChecker` ledger the event
   tap maintained, compared against the crash report.
2. **Structural integrity** — after running the datastore's recovery
   procedure (e.g. redo-log replay), do its invariants hold and is
   every operation that completed before the crash still visible?

The two losses a crash report can carry are classified differently:
committed lines lost from the *CPU caches* mean the datastore claimed
durability it never had — a missing persistence barrier, status
``violation``.  Committed lines destroyed *inside* the ADR domain by
an injected fault (torn XPLine, exhausted drain budget) are platform
damage no barrier discipline can prevent — status ``beyond-adr-loss``.

Workloads are deliberately small: exhaustive campaigns replay the
whole workload once per persistence event, so the event count sets the
campaign's cost quadratically.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import XPLINE_SIZE
from repro.common.errors import DataStoreError, KeyNotFoundError
from repro.common.rng import DEFAULT_SEED, DeterministicRng
from repro.datastores.btree.fastfair import FastFairTree
from repro.datastores.cceh.hashtable import CcehHashTable
from repro.datastores.linkedlist import PersistentLinkedList
from repro.dimm.config import OptaneDimmConfig
from repro.faults.hooks import EventTap, HookedCore
from repro.media.ait import AitConfig
from repro.persist.allocator import PmHeap, RegionAllocator
from repro.persist.crash import CrashReport, DurabilityChecker
from repro.system.presets import machine_for


class CrashWorkload:
    """One replayable unit: private machine + datastore + op sequence.

    Instances are single-use: construct, :meth:`run` (possibly cut
    short by :class:`~repro.faults.hooks.CrashPointReached`), crash,
    then :meth:`classify`.  Subclasses declare :attr:`name`,
    :attr:`title` and :attr:`sizes`, and implement :meth:`_build`
    (allocate and populate the structure at zero simulated cost),
    :meth:`_ops` (execute the measured operations through the hooked
    core) and :meth:`recover_and_check`.
    """

    #: Datastore name: the ``crash-<name>`` experiment and CLI argument.
    name = "base"
    #: Title of the ``crash-<name>`` registry entry.
    title = ""
    #: Operation count per profile — small on purpose; see the module
    #: docstring for why exhaustive cost is quadratic in these.
    sizes: dict[str, int] = {}

    def __init__(
        self,
        generation: int = 1,
        profile: str = "fast",
        seed: int = DEFAULT_SEED,
        eadr: bool = False,
        ait_pressure: bool = False,
    ) -> None:
        """Build the machine and the structure; no events fire yet."""
        self.generation = generation
        self.seed = seed
        self.size = self.sizes[profile]
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
                base, ait=AitConfig(coverage_bytes=XPLINE_SIZE, granule_bytes=XPLINE_SIZE)
            )
        self.machine = machine_for(
            generation, prefetchers=PrefetcherConfig.none(), seed=seed, eadr=eadr, **overrides
        )
        self.checker = DurabilityChecker()
        self.core: HookedCore | None = None
        #: Keys whose operation ran to completion before the crash —
        #: what :meth:`recover_and_check` asserts is still reachable.
        self.completed_keys: list[int] = []
        self._build()

    def run(self, tap: EventTap) -> None:
        """Execute the op sequence through ``tap`` (may stop mid-op)."""
        self.core = HookedCore(self.machine.new_core(), tap)
        self._ops(self.core, tap)

    def classify(self, report: CrashReport) -> tuple[str, tuple[str, ...]]:
        """Classify one crash point; returns ``(status, problems)``.

        ``status`` is ``"ok"``, ``"violation"`` (datastore bug), or
        ``"beyond-adr-loss"`` (injected platform damage).  The ledger
        is checked *before* recovery runs, since recovery legitimately
        commits new lines.
        """
        violations = self.checker.violations_against(report)
        cache_lost = violations & report.lost_pm_lines
        torn_lost = violations & report.torn_pm_lines
        problems: list[str] = []
        if cache_lost:
            problems.append(
                f"{len(cache_lost)} committed cacheline(s) lost from the CPU "
                f"caches (missing barrier): {sorted(cache_lost)[:4]}"
            )
        if torn_lost:
            problems.append(
                f"{len(torn_lost)} committed cacheline(s) destroyed by the "
                f"injected {report.mode} fault: {sorted(torn_lost)[:4]}"
            )
        structural = self.recover_and_check(report)
        problems.extend(structural)
        if cache_lost or (structural and not report.torn_pm_lines):
            status = "violation"
        elif torn_lost or structural:
            status = "beyond-adr-loss"
        else:
            status = "ok"
        return status, tuple(problems)

    def recover_and_check(self, report: CrashReport) -> list[str]:
        """Run recovery and check invariants; returns problem strings."""
        raise NotImplementedError

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
    title = "Crash campaign — persistent linked list"
    sizes = {"fast": 6, "full": 12}

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

    def recover_and_check(self, report: CrashReport) -> list[str]:
        """No recovery needed: check the Hamiltonian-cycle invariant."""
        try:
            self.datastore.verify_cycle()
        except DataStoreError as error:
            return [f"linked list structure broken: {error}"]
        return []


class BtreeRedoWorkload(CrashWorkload):
    """Sorted-insert batch into the redo-logging FAST & FAIR B+-tree.

    Exercises the paper's Figure 11 protocol end to end: out-of-place
    log appends, per-cacheline commit flags, and plain-store write-back
    — the path whose crash window is covered by log replay, not by
    flushes of the home locations.
    """

    name = "btree"
    title = "Crash campaign — B+-tree redo logging"
    sizes = {"fast": 6, "full": 12}

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

    def recover_and_check(self, report: CrashReport) -> list[str]:
        """Replay committed-but-unapplied logs, then audit the tree."""
        problems: list[str] = []
        recovery_core = self.machine.new_core("recovery")
        for log in self.datastore._logs.values():
            # The workload's core died with the crash; recovery replays
            # the log's pending records through a fresh core.
            log.core = recovery_core
            log.recover()
        try:
            self.datastore.check_invariants()
        except DataStoreError as error:
            problems.append(f"B+-tree invariants violated: {error}")
        for key in self.completed_keys:
            try:
                self.datastore.get(key)
            except KeyNotFoundError:
                problems.append(f"completed insert of key {key} not found after recovery")
        return problems


class CcehWorkload(CrashWorkload):
    """Insert batch into the CCEH hash table (paper Section 4.1).

    Covers bucket stores, the per-insert persistence barrier, and —
    with enough keys — lazy segment splits and directory updates.
    """

    name = "cceh"
    title = "Crash campaign — CCEH hash table"
    sizes = {"fast": 8, "full": 16}

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

    def recover_and_check(self, report: CrashReport) -> list[str]:
        """Check CCEH invariants and that completed inserts are visible."""
        problems: list[str] = []
        try:
            self.datastore.check_invariants()
        except DataStoreError as error:
            problems.append(f"CCEH invariants violated: {error}")
        for key in self.completed_keys:
            if not self.datastore.contains(key):
                problems.append(f"completed insert of key {key} not found after recovery")
        return problems


#: Datastore name -> workload, in registry order: the datastores a
#: campaign can target.
WORKLOADS: dict[str, type[CrashWorkload]] = {
    cls.name: cls for cls in (LinkedListWorkload, BtreeRedoWorkload, CcehWorkload)
}

#: Their names, for argument checks and help text.
DATASTORES = tuple(WORKLOADS)
