"""Property-based tests: system-level invariants under random op streams.

A randomized program of loads, stores, nt-stores, flushes and fences
is executed against a small machine; afterwards the telemetry, timing
and cache-state invariants that every correct configuration must
satisfy are checked.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import CACHELINE_SIZE, XPLINE_SIZE
from repro.common.units import kib
from repro.system.presets import g1_machine, g2_machine

#: Ops the generator can emit: (kind, line_offset).
_OPS = st.tuples(
    st.sampled_from(["load", "store", "nt_store", "clwb", "clflushopt", "sfence", "mfence"]),
    st.integers(min_value=0, max_value=255),
)


def _run_program(machine, program):
    core = machine.new_core()
    base = machine.region_spec("pm").base
    timestamps = []
    for kind, line in program:
        addr = base + line * CACHELINE_SIZE
        if kind == "load":
            core.load(addr, 8)
        elif kind == "store":
            core.store(addr, 8)
        elif kind == "nt_store":
            core.nt_store(addr, CACHELINE_SIZE)
        elif kind == "clwb":
            core.clwb(addr)
        elif kind == "clflushopt":
            core.clflushopt(addr)
        elif kind == "sfence":
            core.sfence()
        else:
            core.mfence()
        timestamps.append(core.now)
    return core, timestamps


@settings(max_examples=30, deadline=None)
@given(st.lists(_OPS, max_size=200), st.sampled_from([1, 2]))
def test_time_is_monotone(program, generation):
    maker = g1_machine if generation == 1 else g2_machine
    machine = maker(prefetchers=PrefetcherConfig.none())
    _, timestamps = _run_program(machine, program)
    assert timestamps == sorted(timestamps)


@settings(max_examples=30, deadline=None)
@given(st.lists(_OPS, max_size=200))
def test_telemetry_invariants(program):
    machine = g1_machine(prefetchers=PrefetcherConfig.none())
    _run_program(machine, program)
    counters = machine.pm_counters()
    # Media moves whole XPLines; the iMC moves whole cachelines.
    assert counters.media_read_bytes % XPLINE_SIZE == 0
    assert counters.media_write_bytes % XPLINE_SIZE == 0
    assert counters.imc_read_bytes % CACHELINE_SIZE == 0
    assert counters.imc_write_bytes % CACHELINE_SIZE == 0
    # Demand reads are a subset of iMC reads.
    assert counters.demand_read_bytes <= counters.imc_read_bytes
    # Write amplification is bounded by the granularity ratio: every
    # media write-back carries at least one iMC write since the last
    # write-back of that XPLine.
    if counters.imc_write_bytes:
        assert counters.media_write_bytes / counters.imc_write_bytes <= 4.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(_OPS, max_size=150))
def test_with_prefetchers_demand_still_bounded(program):
    machine = g1_machine()  # default prefetchers on
    _run_program(machine, program)
    counters = machine.pm_counters()
    assert counters.demand_read_bytes <= counters.imc_read_bytes


@settings(max_examples=20, deadline=None)
@given(st.lists(_OPS, max_size=150))
def test_buffer_capacities_respected(program):
    machine = g1_machine(prefetchers=PrefetcherConfig.none())
    _run_program(machine, program)
    for region in machine.regions:
        if region.spec.kind != "pm":
            continue
        for channel in region.channels:
            device = channel.device
            assert len(device.read_buffer) <= device.read_buffer.capacity_lines
            assert len(device.write_buffer) <= device.write_buffer.capacity_lines


@settings(max_examples=20, deadline=None)
@given(st.lists(_OPS, max_size=100), st.lists(_OPS, max_size=100))
def test_two_cores_share_state_consistently(program_a, program_b):
    """Interleaving two cores never violates the single-core invariants."""
    machine = g1_machine(prefetchers=PrefetcherConfig.none())
    base = machine.region_spec("pm").base
    cores = [machine.new_core("a"), machine.new_core("b")]
    programs = [list(program_a), list(program_b)]
    while any(programs):
        index = 0 if (programs[0] and (not programs[1] or cores[0].now <= cores[1].now)) else 1
        kind, line = programs[index].pop(0)
        core = cores[index]
        addr = base + line * CACHELINE_SIZE
        if kind == "load":
            core.load(addr, 8)
        elif kind == "store":
            core.store(addr, 8)
        elif kind == "nt_store":
            core.nt_store(addr, CACHELINE_SIZE)
        elif kind == "clwb":
            core.clwb(addr)
        elif kind == "clflushopt":
            core.clflushopt(addr)
        elif kind == "sfence":
            core.sfence()
        else:
            core.mfence()
    counters = machine.pm_counters()
    assert counters.demand_read_bytes <= counters.imc_read_bytes
    assert counters.media_read_bytes % XPLINE_SIZE == 0


@settings(max_examples=15, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=120), st.sampled_from([1, 2]))
def test_determinism(program, generation):
    """The same program on the same seed yields identical timing."""
    maker = g1_machine if generation == 1 else g2_machine
    machine_a = maker(prefetchers=PrefetcherConfig.none(), seed=11)
    machine_b = maker(prefetchers=PrefetcherConfig.none(), seed=11)
    _, times_a = _run_program(machine_a, program)
    _, times_b = _run_program(machine_b, program)
    assert times_a == times_b
