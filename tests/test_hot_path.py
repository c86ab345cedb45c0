"""Frame budget of the simulated hot paths.

Counts the Python ``call`` events (``sys.setprofile``) per simulated
operation of one small G1 point each of three paper kernels with the
prefetchers off: strided reads with a clflushopt per load (Figure 2),
the read-after-persist loop with clwb + mfence (Figure 7) and partial
nt-store writes (Figure 3).  An operation is one load, store, flush,
fence or nt-store, counted as the benchmark counts them.  Two points
run with the prefetchers on: a Figure 8 pointer chase (per chain step)
and fresh-key CCEH inserts on a plain core (per insert, Figure 10).
One point has no core at all: structure-only CCEH population (per
key), which calls only the hash, plus the split, directory doubling
and allocator when a segment splits.

The budgets pin what the flattened paths reach: each op calls the
layer boundaries (machine, iMC, cache hierarchy, prefetch engine, DIMM,
buffers, media, ports, in-flight persists) and the constructors of
their grant records, nothing in between; an access with prefetch
candidates makes one issue call for all of them.  A layer is entered
only when it has work: a load asks for a read-after-persist stall only
for a line the in-flight tracker holds, and the DIMM polls its write
buffer only once a periodic write-back may be due and asks its read
buffer only for an XPLine the buffer holds.  A change that puts a
helper back on a path fails here; one that takes more calls off should
lower the pin.
"""

import functools
import gc
import sys
from collections import Counter

import pytest

from repro.buffers.write_buffer import WriteBuffer
from repro.cache.prefetch import PrefetcherConfig
from repro.core import microbench
from repro.core.microbench.pointer_chase import PointerChaseBench
from repro.datastores.cceh import CcehHashTable
from repro.persist.allocator import PmHeap
from repro.persist.persistency import FenceKind, FlushKind, PersistencyModel
from repro.sim.inflight import InflightPersists
from repro.system.imc import IMCChannel
from repro.system.presets import machine_for
from repro.workloads.ycsb import insert_only_stream

WSS = 8 * 1024
XPLINES = WSS // 256
CHASE_STEPS = 2_000
CCEH_PREPOPULATE = 5_000
CCEH_INSERTS = 500


def _kernel(kernel, **kwargs):
    """A paper kernel on a fresh G1 machine with the prefetchers off."""
    machine = machine_for(1, seed=1, prefetchers=PrefetcherConfig.none())
    return functools.partial(kernel, machine, **kwargs)


def _pointer_chase():
    """Figure 8's G1 point at 1 MiB: random chain, clwb, strict, prefetchers on."""
    bench = PointerChaseBench(machine_for(1, seed=1), 1 << 20, sequential=False)
    return functools.partial(bench.run, "clwb", PersistencyModel.STRICT,
                             max_ops=CHASE_STEPS, warmup_cap=CHASE_STEPS)


def _cceh_inserts():
    """Fresh-key inserts into a pre-populated one-DIMM G1 table, plain core."""
    machine = machine_for(1, pm_dimms=1, seed=1)
    table = CcehHashTable(PmHeap(machine).pm)
    keys = list(insert_only_stream(CCEH_PREPOPULATE + CCEH_INSERTS, seed=5))
    for key in keys[:CCEH_PREPOPULATE]:
        table.insert(key, key)
    core = machine.new_core()

    def run():
        for key in keys[CCEH_PREPOPULATE:]:
            table.insert(key, key, core)

    return run


def _cceh_populate():
    """Structure-only population of a fresh one-DIMM G1 table (no core)."""
    table = CcehHashTable(PmHeap(machine_for(1, pm_dimms=1, seed=1)).pm)
    keys = list(insert_only_stream(CCEH_PREPOPULATE, seed=5))
    insert = table.insert

    def run():
        for key in keys:
            insert(key, key)

    return run


#: name -> (builder of the timed call, simulated ops, pinned calls per op).
POINTS = {
    "strided_read": (
        lambda: _kernel(microbench.run_strided_read,
                        wss=WSS, cachelines_per_xpline=2, cycles_over_region=4),
        2 * 4 * XPLINES * 2,  # one load + one clflushopt per address
        6.24,
    ),
    "rap_clwb_mfence": (
        lambda: _kernel(microbench.run_rap_iterations, region="pm", flush=FlushKind.CLWB,
                        fence=FenceKind.MFENCE, distance=3, passes=4),
        4 * 64 * 4,  # store + clwb + mfence + load per iteration
        6.11,
    ),
    "write_amplification": (
        lambda: _kernel(microbench.run_write_amplification,
                        wss=WSS, written_cachelines=2, passes=4),
        4 * XPLINES * 2,
        8.96,
    ),
    "pointer_chase_prefetch": (
        _pointer_chase,
        2 * CHASE_STEPS,  # warm-up + measured chain steps
        48.97,
    ),
    "cceh_insert": (
        _cceh_inserts,
        CCEH_INSERTS,
        66.81,
    ),
    "cceh_populate": (
        _cceh_populate,
        CCEH_PREPOPULATE,
        2.01,
    ),
}


def calls_by_code(name: str) -> Counter:
    """Python calls of one timed call on a fresh setup, per code object.

    The timed call is a ``functools.partial`` where it can be, so the
    count holds the kernel's own frames only.
    """
    timed = POINTS[name][0]()
    calls = Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    # A collection inside the kernel would run finalizers of unrelated
    # garbage and count their calls.
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        timed()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls


def calls_per_op(name: str) -> float:
    """Python calls per simulated op of one timed call on a fresh setup."""
    return sum(calls_by_code(name).values()) / POINTS[name][1]


@pytest.mark.parametrize("name", list(POINTS))
def test_calls_per_op_within_pinned_budget(name):
    assert calls_per_op(name) <= POINTS[name][2]


def test_strided_read_enters_no_idle_layer():
    # The clflushopt after each load finds a clean line, so nothing is
    # ever persisted: no line is tracked and no write-back comes due.
    calls = calls_by_code("strided_read")
    for idle in (IMCChannel.persist_stall, InflightPersists.completion_for, WriteBuffer.poll):
        assert calls[idle.__code__] == 0, idle.__qualname__
