"""Every core wrapper exposes the whole Core API and is transparent.

Each ``CoreProxy`` subclass (``InstrumentedCore``, ``HookedCore``) must
leave the wrapped core's clock and op counters exactly where a bare
``Core`` would be.
"""

import pytest

from repro.core.analysis import InstrumentedCore
from repro.datastores.base import OP_CLASSES, CoreProxy
from repro.faults.hooks import EventTap, HookedCore
from repro.persist.allocator import PmHeap
from repro.system.machine import Core
from repro.system.presets import machine_for

#: The public Core operations (bookkeeping hooks Machine calls excluded).
CORE_OPS = (
    "load", "store", "nt_store", "stream_load", "clwb", "clflushopt", "clflush",
    "sfence", "mfence", "fence", "persist", "tick",
)

WRAPPERS = {
    "CoreProxy": CoreProxy,
    "InstrumentedCore": InstrumentedCore,
    "HookedCore": lambda core: HookedCore(core, EventTap()),
}


def _run_sequence(core, base: int) -> None:
    """A fixed sequence touching every op, over two XPLines."""
    other = base + 256
    core.store(base, 8)
    core.clwb(base)
    core.sfence()
    core.load(other, 128)
    core.stream_load(other + 128, 64)
    core.nt_store(other, 64)
    core.mfence()
    core.store(base + 64, 8)
    core.clflushopt(base + 64)
    core.fence("mfence")
    core.store(base, 8)
    core.clflush(base)
    core.tick(37.0)
    core.persist(other, 64)
    core.persist(base, 128, fence="mfence")
    core.load(base, 8)


def _state(core: Core) -> tuple:
    return (core.now, core.loads, core.stores, core.flushes, core.fences)


def test_core_ops_are_the_public_core_surface():
    public = {
        name for name, value in vars(Core).items()
        if callable(value) and not name.startswith("_")
    }
    assert public == set(CORE_OPS)
    assert set(OP_CLASSES) == set(CORE_OPS) - {"fence", "persist"}


@pytest.mark.parametrize("name", list(WRAPPERS))
def test_exposes_every_core_op(name):
    core = WRAPPERS[name](machine_for(1).new_core())
    for op in CORE_OPS:
        assert callable(getattr(core, op, None)), f"{name} lacks {op}"
    assert core.now == 0.0


@pytest.mark.parametrize("generation", [1, 2])
@pytest.mark.parametrize("name", list(WRAPPERS))
def test_wrapper_leaves_core_state_as_bare_core(name, generation):
    bare_machine = machine_for(generation)
    bare = bare_machine.new_core()
    _run_sequence(bare, PmHeap(bare_machine).pm.alloc_xpline(1024))

    machine = machine_for(generation)
    inner = machine.new_core()
    wrapped = WRAPPERS[name](inner)
    _run_sequence(wrapped, PmHeap(machine).pm.alloc_xpline(1024))

    assert _state(inner) == _state(bare)
    assert wrapped.now == bare.now


def test_hooked_core_reports_persist_as_clwb_and_fence():
    machine = machine_for(1)
    addr = PmHeap(machine).pm.alloc_xpline()
    hooked = HookedCore(machine.new_core(), EventTap())
    hooked.stream_load(addr)
    hooked.store(addr, 8)
    hooked.clflush(addr)
    hooked.persist(addr)
    assert [e.kind for e in hooked.tap.events] == ["store", "clflush", "clwb", "fence"]
    assert hooked.tap.checker.committed_count == 1


def test_instrumented_core_charges_persist_to_flush_and_fence():
    machine = machine_for(1)
    addr = PmHeap(machine).pm.alloc_xpline()
    core = InstrumentedCore(machine.new_core())
    core.store(addr, 8)
    cycles = core.persist(addr)
    buckets = core.breakdown
    assert set(buckets.fractions()) == {"store", "flush", "fence"}
    assert buckets.cycles("flush") + buckets.cycles("fence") == pytest.approx(cycles)
    assert buckets.total == pytest.approx(core.now)
