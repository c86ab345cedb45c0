"""Persistence-event tapping for crash-point fault injection.

A crash campaign needs two things from a running workload: the ordered
stream of *persistence-relevant* events (stores, flushes, nt-stores,
fences — loads cannot change what survives a crash), and the ability
to stop execution dead at a chosen event so a power failure can be
injected at exactly that point.

:class:`HookedCore` wraps a real :class:`~repro.system.machine.Core`
as a :class:`~repro.datastores.base.CoreProxy`, so any shipped data
store runs on it unmodified.  Each persistence event is forwarded to
an :class:`EventTap`, which

* assigns the event its global index (the campaign's crash-point id),
* maintains a :class:`~repro.persist.crash.DurabilityChecker` ledger
  from the event stream itself — a cacheline becomes *claimed durable*
  when a flush of it is followed by a fence, and the claim is retracted
  when the line is re-dirtied by a later store (the cached new version
  is legitimately volatile until the next barrier), and
* raises :class:`CrashPointReached` once the configured stop point has
  executed, freezing the machine in exactly the state an adversarial
  power cut would find.

Because the simulator is fully deterministic, "snapshot at event k" is
implemented as "replay the workload from scratch and stop at k" —
no machine deep-copying required.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.constants import CACHELINE_SIZE
from repro.common.errors import ReproError
from repro.datastores.base import OP_CLASSES, CoreProxy
from repro.persist.crash import DurabilityChecker, cacheline_span


class CrashPointReached(ReproError):
    """Raised by :class:`EventTap` when the stop event has executed.

    Control-flow exception, not an error: the campaign catches it to
    inject the power failure while the workload is frozen mid-flight.
    """


@dataclass(frozen=True)
class PersistEvent:
    """One persistence-relevant operation in program order."""

    #: Global index in the event stream — the crash-point identifier.
    index: int
    #: "store" | "nt_store" | "clwb" | "clflushopt" | "clflush" | "fence".
    kind: str
    #: Target byte address (0 for fences).
    addr: int
    #: Bytes touched (0 for fences).
    size: int
    #: Which workload operation (insert #, list step #) issued it.
    op_index: int

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        if self.kind == "fence":
            return f"#{self.index} fence (op {self.op_index})"
        return f"#{self.index} {self.kind} {self.addr:#x}+{self.size} (op {self.op_index})"


class EventTap:
    """Records persistence events and arms one crash point.

    ``stop_at=None`` records the full stream (the campaign's dry run,
    used to count events); ``stop_at=k`` raises
    :class:`CrashPointReached` immediately *after* event ``k`` has
    taken effect on the machine and on the ledger — a crash at point
    ``k`` means "power failed just after event k".
    """

    def __init__(self, checker: DurabilityChecker | None = None, stop_at: int | None = None) -> None:
        """Create a tap feeding ``checker`` (a fresh one if None)."""
        self.checker = checker if checker is not None else DurabilityChecker()
        self.stop_at = stop_at
        self.events: list[PersistEvent] = []
        self.op_index = 0
        #: Cachelines flushed (or nt-stored) since the last fence:
        #: accepted toward durability but not yet claimed.
        self._pending_lines: set[int] = set()

    @property
    def count(self) -> int:
        """Number of events recorded so far."""
        return len(self.events)

    @property
    def last_event(self) -> PersistEvent | None:
        """The most recent event (None before the first)."""
        return self.events[-1] if self.events else None

    def next_op(self) -> None:
        """Advance the workload-operation counter (called between ops)."""
        self.op_index += 1

    # -- event intake (called by HookedCore) -------------------------------

    def on_store(self, addr: int, size: int) -> None:
        """A cached store: re-dirties lines, retracting their claims."""
        for line in cacheline_span(addr, size):
            self._pending_lines.discard(line)
        self.checker.retract(addr, size)
        self._record("store", addr, size)

    def on_flush(self, kind: str, addr: int, size: int) -> None:
        """A clwb/clflushopt/clflush/nt-store: lines head toward durability.

        Like the others, a serializing clflush is claimed only at the
        next fence, which under-claims rather than over-claims.
        """
        self._pending_lines.update(cacheline_span(addr, size))
        self._record(kind, addr, size)

    def on_fence(self) -> None:
        """A fence: everything flushed since the last fence is durable."""
        for line in self._pending_lines:
            self.checker.commit(line * CACHELINE_SIZE, CACHELINE_SIZE)
        self._pending_lines.clear()
        self._record("fence", 0, 0)

    def _record(self, kind: str, addr: int, size: int) -> None:
        event = PersistEvent(
            index=len(self.events), kind=kind, addr=addr, size=size, op_index=self.op_index
        )
        self.events.append(event)
        if self.stop_at is not None and event.index >= self.stop_at:
            raise CrashPointReached(event.describe())


class HookedCore(CoreProxy):
    """A :class:`~repro.datastores.base.CoreProxy` that feeds a tap.

    Every operation executes on the wrapped core *first* (so the
    machine state is exactly what the real workload produces), then its
    persistence event, per :data:`~repro.datastores.base.OP_CLASSES`,
    is reported.  Loads, stream loads and ticks pass through silently:
    they cannot change what a crash destroys, and skipping them keeps
    the crash-point space small enough to enumerate exhaustively.
    """

    def __init__(self, core, tap: EventTap) -> None:
        """Wrap ``core``, reporting its persistence events to ``tap``."""
        super().__init__(core)
        self.tap = tap

    def observe(self, op: str, addr: int, size: int, cycles: float) -> None:
        """Report one executed op to the tap as its persistence event."""
        event = OP_CLASSES[op].event
        if event == "store":
            self.tap.on_store(addr, size)
        elif event == "flush":
            self.tap.on_flush(op, addr, size)
        elif event == "fence":
            self.tap.on_fence()
