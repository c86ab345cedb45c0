"""Generation-difference and flush-variant tests not covered elsewhere."""

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import cacheline_index
from repro.common.units import kib
from repro.core.microbench.pointer_chase import PointerChaseBench
from repro.persist import PmHeap
from repro.persist.persistency import PersistencyModel
from repro.system.imc import IMCChannel
from repro.system.machine import SFENCE_COST
from repro.system.presets import g1_machine, g2_machine, machine_for


def quiet(generation, **kwargs):
    kwargs.setdefault("prefetchers", PrefetcherConfig.none())
    return machine_for(generation, **kwargs)


class TestClflushVariants:
    def test_clflushopt_always_invalidates_on_g2(self):
        machine = quiet(2)
        core = machine.new_core()
        addr = machine.region_spec("pm").base
        core.store(addr, 8)
        core.clflushopt(addr)
        assert not machine.caches.contains(cacheline_index(addr))

    def test_clflush_waits_for_acceptance(self):
        machine = quiet(1)
        core = machine.new_core()
        addr = machine.region_spec("pm").base
        core.store(addr, 8)
        cost = core.clflush(addr)
        # Legacy clflush is ordered: its cost already includes the
        # acceptance wait, so a following fence adds almost nothing.
        assert cost >= IMCChannel.ACCEPT_LATENCY
        assert core.sfence() <= SFENCE_COST + 1

    def test_clflushopt_cheaper_than_clflush(self):
        machine = quiet(1)
        core = machine.new_core()
        base = machine.region_spec("pm").base
        core.store(base, 8)
        opt_cost = core.clflushopt(base)
        core.store(base + 4096, 8)
        legacy_cost = core.clflush(base + 4096)
        assert opt_cost < legacy_cost


class TestGenerationContrasts:
    def test_g2_buffer_hit_latency_higher(self):
        # §3.5: "significant increase in the latency of hitting the
        # on-DIMM buffers" on G2.
        def buffer_hit_latency(machine):
            core = machine.new_core()
            addr = machine.region_spec("pm").base
            core.load(addr, 8)  # install XPLine in read buffer
            core.clflushopt(addr)
            core.sfence()
            core.mfence()
            return core.load(addr + 64, 8)  # sibling slot: buffer hit

        g1_latency = buffer_hit_latency(quiet(1))
        g2_latency = buffer_hit_latency(quiet(2))
        assert g2_latency > g1_latency

    def test_g2_dram_slower_in_cycles(self):
        # The G2 server clocks higher; DRAM costs more cycles.
        def dram_load(machine):
            core = machine.new_core()
            return core.load(machine.region_spec("dram").base, 8)

        assert dram_load(quiet(2)) > dram_load(quiet(1))

    def test_clwb_nt_convergence_below_llc_g2(self):
        # §3.6: on G2 "the performance of clwb and nt-store converges
        # when the WSS is smaller than the L3 cache size".
        machine = quiet(2)
        clwb = PointerChaseBench(machine, kib(256), False).run(
            "clwb", PersistencyModel.STRICT, max_ops=3000
        )
        machine = quiet(2)
        nt = PointerChaseBench(machine, kib(256), False).run(
            "nt-store", PersistencyModel.STRICT, max_ops=3000
        )
        assert clwb.cycles_per_element == pytest.approx(nt.cycles_per_element, rel=0.35)

    def test_eadr_flag_defaults_off(self):
        assert not g1_machine().config.eadr
        assert not g2_machine().config.eadr

    def test_g1_has_no_eadr_parameter_effect(self):
        # eADR is a G2-platform feature; the G1 preset does not take it.
        machine = g1_machine()
        assert machine.config.eadr is False


class TestWindowEdgeCases:
    def test_window_survives_sfence_but_not_mfence(self):
        machine = quiet(1)
        core = machine.new_core()
        addr = machine.region_spec("pm").base
        core.store(addr, 8)
        core.clwb(addr)
        core.sfence()
        assert cacheline_index(addr) in core.recent_flushes
        core.mfence()
        assert cacheline_index(addr) not in core.recent_flushes

    def test_window_is_bounded(self):
        machine = quiet(1)
        core = machine.new_core()
        base = machine.region_spec("pm").base
        lines = []
        for index in range(4):
            addr = base + index * 4096
            core.store(addr, 8)
            core.clwb(addr)
            lines.append(cacheline_index(addr))
        core.sfence()
        # Only the last `window` (=2) flushes remain overtakable.
        assert lines[0] not in core.recent_flushes
        assert lines[1] not in core.recent_flushes
        assert lines[2] in core.recent_flushes
        assert lines[3] in core.recent_flushes
