"""Frame budget of the 64 B hot path.

Counts the Python ``call`` events (``sys.setprofile``) per simulated
operation of one small G1 point of three paper kernels: strided reads
with a clflushopt per load (Figure 2), the read-after-persist loop with
clwb + mfence (Figure 7) and partial nt-store writes (Figure 3).  An
operation is one load, store, flush, fence or nt-store, counted as the
benchmark counts them.

The budgets pin what the flattened path reaches: each op calls the
layer boundaries (machine, iMC, cache hierarchy, DIMM, buffers, media,
ports, in-flight persists) and the constructors of their result
records, nothing in between.  A change that puts a helper back on the
path fails here; one that takes more calls off should lower the pin.
"""

import gc
import sys

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.core import microbench
from repro.persist.persistency import FenceKind, FlushKind
from repro.system.presets import machine_for

WSS = 8 * 1024
XPLINES = WSS // 256

#: name -> (kernel, keyword arguments, simulated ops, pinned calls per op).
POINTS = {
    "strided_read": (
        microbench.run_strided_read,
        {"wss": WSS, "cachelines_per_xpline": 2, "cycles_over_region": 4},
        2 * 4 * XPLINES * 2,  # one load + one clflushopt per address
        8.30,
    ),
    "rap_clwb_mfence": (
        microbench.run_rap_iterations,
        {"region": "pm", "flush": FlushKind.CLWB, "fence": FenceKind.MFENCE,
         "distance": 3, "passes": 4},
        4 * 64 * 4,  # store + clwb + mfence + load per iteration
        7.59,
    ),
    "write_amplification": (
        microbench.run_write_amplification,
        {"wss": WSS, "written_cachelines": 2, "passes": 4},
        4 * XPLINES * 2,
        10.21,
    ),
}


def calls_per_op(name: str) -> float:
    """Python calls per simulated op of one kernel call on a fresh machine."""
    kernel, kwargs, ops, _ = POINTS[name]
    machine = machine_for(1, seed=1, prefetchers=PrefetcherConfig.none())
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection inside the kernel would run finalizers of unrelated
    # garbage and count their calls.
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        kernel(machine, **kwargs)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls / ops


@pytest.mark.parametrize("name", list(POINTS))
def test_calls_per_op_within_pinned_budget(name):
    assert calls_per_op(name) <= POINTS[name][3]
