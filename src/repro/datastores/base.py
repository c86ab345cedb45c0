"""Shared plumbing for the persistent data stores.

The case studies need tables/trees far larger than the CPU caches
(otherwise the random reads the paper studies would be cache hits).
Building a 30+ MB structure through the timed simulation would
dominate experiment runtime, so population is structure-only: a data
store operation called with ``core=None`` changes the structure (same
probe, placement, split and allocation code as a timed call) and makes
no simulated-memory call at all.  Measured phases pass any object
implementing the :class:`CoreLike` protocol: a real
:class:`~repro.system.machine.Core`, or a :class:`CoreProxy` subclass
that observes every operation of one.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol


class CoreLike(Protocol):
    """The slice of the Core API data stores consume."""

    now: float

    def load(self, addr: int, size: int = 8) -> float: ...  # pragma: no cover

    def store(self, addr: int, size: int = 8) -> float: ...  # pragma: no cover

    def nt_store(self, addr: int, size: int = 64) -> float: ...  # pragma: no cover

    def clwb(self, addr: int, size: int = 64) -> float: ...  # pragma: no cover

    def fence(self, kind: str = "sfence") -> float: ...  # pragma: no cover

    def tick(self, cycles: float) -> None: ...  # pragma: no cover


class OpClass(NamedTuple):
    """How the observers of a :class:`CoreProxy` classify one Core op."""

    #: Time-breakdown bucket (:class:`~repro.core.analysis.InstrumentedCore`).
    bucket: str
    #: Persistence event (:class:`~repro.faults.hooks.HookedCore`):
    #: "store", "flush", "fence", or None for ops a crash cannot see.
    event: str | None


#: Every op a :class:`CoreProxy` reports, and its classification.
#: ``persist`` is absent: the proxy runs it as its own clwb + fence.
OP_CLASSES: dict[str, OpClass] = {
    "load": OpClass("load", None),
    "stream_load": OpClass("stream_load", None),
    "store": OpClass("store", "store"),
    "nt_store": OpClass("nt_store", "flush"),
    "clwb": OpClass("flush", "flush"),
    "clflushopt": OpClass("flush", "flush"),
    "clflush": OpClass("flush", "flush"),
    "sfence": OpClass("fence", "fence"),
    "mfence": OpClass("fence", "fence"),
    "tick": OpClass("compute", None),
}


class CoreProxy:
    """The whole Core API over a wrapped core, with one observation hook.

    Each operation runs on the wrapped core *first*, so the machine
    state and clock are exactly what the bare core would produce; then
    :meth:`observe` sees ``(op, addr, size, cycles)``, with ``op`` a key
    of :data:`OP_CLASSES` (fences by kind; ``addr``/``size`` are 0 for
    fences and ticks).  ``persist`` runs as this proxy's own ``clwb`` +
    ``fence``, so observers see the two primitives.  Subclasses
    override :meth:`observe` only.
    """

    def __init__(self, core) -> None:
        self.core = core

    @property
    def now(self) -> float:
        """The wrapped core's local clock."""
        return self.core.now

    def observe(self, op: str, addr: int, size: int, cycles: float) -> None:
        """Called after ``op`` executed on the wrapped core (no-op here)."""

    def load(self, addr: int, size: int = 8) -> float:
        cycles = self.core.load(addr, size)
        self.observe("load", addr, size, cycles)
        return cycles

    def store(self, addr: int, size: int = 8) -> float:
        cycles = self.core.store(addr, size)
        self.observe("store", addr, size, cycles)
        return cycles

    def nt_store(self, addr: int, size: int = 64) -> float:
        cycles = self.core.nt_store(addr, size)
        self.observe("nt_store", addr, size, cycles)
        return cycles

    def stream_load(self, addr: int, size: int = 64) -> float:
        cycles = self.core.stream_load(addr, size)
        self.observe("stream_load", addr, size, cycles)
        return cycles

    def clwb(self, addr: int, size: int = 64) -> float:
        cycles = self.core.clwb(addr, size)
        self.observe("clwb", addr, size, cycles)
        return cycles

    def clflushopt(self, addr: int, size: int = 64) -> float:
        cycles = self.core.clflushopt(addr, size)
        self.observe("clflushopt", addr, size, cycles)
        return cycles

    def clflush(self, addr: int, size: int = 64) -> float:
        cycles = self.core.clflush(addr, size)
        self.observe("clflush", addr, size, cycles)
        return cycles

    def sfence(self) -> float:
        cycles = self.core.sfence()
        self.observe("sfence", 0, 0, cycles)
        return cycles

    def mfence(self) -> float:
        cycles = self.core.mfence()
        self.observe("mfence", 0, 0, cycles)
        return cycles

    def fence(self, kind: str = "sfence") -> float:
        cycles = self.core.fence(kind)
        self.observe(kind, 0, 0, cycles)
        return cycles

    def persist(self, addr: int, size: int = 64, fence: str = "sfence") -> float:
        start = self.now
        self.clwb(addr, size)
        self.fence(fence)
        return self.now - start

    def tick(self, cycles: float) -> None:
        self.core.tick(cycles)
        self.observe("tick", 0, 0, cycles)
