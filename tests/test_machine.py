"""Tests for the Machine/Core execution model — the DDR-T semantics.

These tests pin the paper-critical behaviours: asynchronous stores,
fence-waits-for-acceptance, read-after-persist stalls, the sfence
reorder window, clwb generation semantics, NUMA adders and routing.
"""

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import CACHELINE_SIZE, cacheline_index
from repro.common.errors import AddressError, ConfigError
from repro.common.units import kib
from repro.system.imc import IMCChannel
from repro.system.machine import SFENCE_COST, MachineConfig, RegionSpec
from repro.system.presets import g1_machine, g2_machine, machine_for


def quiet_machine(generation=1, **kwargs):
    kwargs.setdefault("prefetchers", PrefetcherConfig.none())
    return machine_for(generation, **kwargs)


def pm_addr(machine, offset=0):
    return machine.region_spec("pm").base + offset


def dram_addr(machine, offset=0):
    return machine.region_spec("dram").base + offset


class TestRouting:
    def test_pm_and_dram_regions_exist(self):
        machine = quiet_machine()
        assert machine.region_spec("pm").kind == "pm"
        assert machine.region_spec("dram").kind == "dram"

    def test_unmapped_address_raises(self):
        machine = quiet_machine()
        with pytest.raises(AddressError):
            machine.region_of(12345)

    def test_unknown_region_name_raises(self):
        with pytest.raises(AddressError):
            quiet_machine().region_spec("nope")

    def test_remote_regions_optional(self):
        machine = quiet_machine()
        with pytest.raises(AddressError):
            machine.region_spec("pm_remote")
        machine = quiet_machine(remote_pm=True)
        assert machine.region_spec("pm_remote").remote

    def test_interleaving_spreads_across_dimms(self):
        machine = quiet_machine(pm_dimms=6)
        core = machine.new_core()
        base = pm_addr(machine)
        for page in range(6):
            core.load(base + page * 4096, 8)
        names = [name for name in machine.registry.names() if name.startswith("pm")]
        touched = [name for name in names if machine.registry.get(name).imc_read_bytes > 0]
        assert len(touched) == 6

    def test_overlapping_regions_rejected(self):
        config = MachineConfig(
            regions=(
                RegionSpec("a", "pm", 0, kib(64)),
                RegionSpec("b", "dram", kib(32), kib(64)),
            )
        )
        with pytest.raises(ConfigError):
            config.validate()


class TestLoadStore:
    def test_load_miss_slower_than_hit(self):
        machine = quiet_machine()
        core = machine.new_core()
        addr = pm_addr(machine)
        miss = core.load(addr, 8)
        hit = core.load(addr, 8)
        assert miss > hit

    def test_pm_load_slower_than_dram_load(self):
        machine = quiet_machine()
        core = machine.new_core()
        pm = core.load(pm_addr(machine), 8)
        dram = core.load(dram_addr(machine), 8)
        assert pm > dram

    def test_store_miss_does_not_stall(self):
        # Stores retire from the store buffer: a PM store miss must not
        # cost media latency (Figure 8's flat write latency).
        machine = quiet_machine()
        core = machine.new_core()
        cost = core.store(pm_addr(machine), 8)
        assert cost < 100

    def test_store_miss_issues_rfo_traffic(self):
        machine = quiet_machine()
        core = machine.new_core()
        core.store(pm_addr(machine), 8)
        assert machine.pm_counters().imc_read_bytes == 64

    def test_multi_line_load(self):
        machine = quiet_machine()
        core = machine.new_core()
        core.load(pm_addr(machine), 256)
        assert core.loads == 4

    def test_load_returns_elapsed_cycles(self):
        machine = quiet_machine()
        core = machine.new_core()
        before = core.now
        cost = core.load(pm_addr(machine), 8)
        assert core.now - before == cost


class TestFlushFence:
    def test_clwb_of_clean_line_is_cheap(self):
        machine = quiet_machine()
        core = machine.new_core()
        cost = core.clwb(pm_addr(machine))
        assert cost < 50
        assert machine.pm_counters().imc_write_bytes == 0

    def test_clwb_of_dirty_line_reaches_wpq(self):
        machine = quiet_machine()
        core = machine.new_core()
        addr = pm_addr(machine)
        core.store(addr, 8)
        core.clwb(addr)
        assert machine.pm_counters().imc_write_bytes == 64

    def test_g1_clwb_invalidates(self):
        machine = quiet_machine(1)
        core = machine.new_core()
        addr = pm_addr(machine)
        core.store(addr, 8)
        core.clwb(addr)
        assert not machine.caches.contains(cacheline_index(addr))

    def test_g2_clwb_retains(self):
        machine = quiet_machine(2)
        core = machine.new_core()
        addr = pm_addr(machine)
        core.store(addr, 8)
        core.clwb(addr)
        line = cacheline_index(addr)
        assert machine.caches.contains(line)
        assert not machine.caches.is_dirty(line)

    def test_g2_clwb_costs_coherence(self):
        g1 = quiet_machine(1)
        g2 = quiet_machine(2)
        core1, core2 = g1.new_core(), g2.new_core()
        addr1, addr2 = pm_addr(g1), pm_addr(g2)
        core1.store(addr1, 8)
        core2.store(addr2, 8)
        assert core2.clwb(addr2) > core1.clwb(addr1)

    def test_fence_waits_for_acceptance(self):
        machine = quiet_machine()
        core = machine.new_core()
        addr = pm_addr(machine)
        core.store(addr, 8)
        core.clwb(addr)
        fence_cost = core.sfence()
        assert fence_cost >= IMCChannel.ACCEPT_LATENCY * 0.5

    def test_fence_without_pending_flushes_is_cheap(self):
        machine = quiet_machine()
        core = machine.new_core()
        assert core.sfence() <= SFENCE_COST

    def test_fence_does_not_wait_for_persist_completion(self):
        machine = quiet_machine()
        core = machine.new_core()
        addr = pm_addr(machine)
        core.store(addr, 8)
        core.clwb(addr)
        core.sfence()
        drain = machine.config.optane.persist_drain_latency
        assert core.now < drain  # returned long before the flush completed

    def test_persist_helper(self):
        machine = quiet_machine()
        core = machine.new_core()
        addr = pm_addr(machine)
        core.store(addr, 8)
        core.persist(addr)
        assert machine.pm_counters().imc_write_bytes == 64


class TestNtStore:
    def test_nt_store_bypasses_cache(self):
        machine = quiet_machine()
        core = machine.new_core()
        addr = pm_addr(machine)
        core.nt_store(addr, 64)
        assert not machine.caches.contains(cacheline_index(addr))
        assert machine.pm_counters().imc_write_bytes == 64

    def test_nt_store_invalidates_stale_copy(self):
        machine = quiet_machine()
        core = machine.new_core()
        addr = pm_addr(machine)
        core.load(addr, 8)
        core.nt_store(addr, 64)
        assert not machine.caches.contains(cacheline_index(addr))

    def test_nt_store_no_rfo(self):
        machine = quiet_machine()
        core = machine.new_core()
        core.nt_store(pm_addr(machine), 64)
        assert machine.pm_counters().imc_read_bytes == 0


class TestRap:
    """Read-after-persist stalls (Section 3.5)."""

    def _persist_then_read(self, machine, fence):
        core = machine.new_core()
        addr = pm_addr(machine)
        core.store(addr, 8)
        core.clwb(addr)
        core.fence(fence)
        # Push the line out of the reorder window with unrelated flushes.
        for offset in (4096, 8192, 12288):
            other = pm_addr(machine, offset)
            core.store(other, 8)
            core.clwb(other)
            core.fence(fence)
        return core.load(addr, 8)

    def test_g1_read_after_persist_stalls(self):
        machine = quiet_machine(1)
        latency = self._persist_then_read(machine, "mfence")
        assert latency > 800  # must wait for the in-flight persist

    def test_g2_clwb_read_hits_cache(self):
        machine = quiet_machine(2)
        latency = self._persist_then_read(machine, "mfence")
        assert latency < 100  # line retained in cache

    def test_sfence_window_allows_immediate_readback(self):
        machine = quiet_machine(1)
        core = machine.new_core()
        addr = pm_addr(machine)
        core.store(addr, 8)
        core.clwb(addr)
        core.sfence()
        assert core.load(addr, 8) < 100  # distance 0: load overtakes flush

    def test_mfence_closes_the_window(self):
        machine = quiet_machine(1)
        core = machine.new_core()
        addr = pm_addr(machine)
        core.store(addr, 8)
        core.clwb(addr)
        core.mfence()
        assert core.load(addr, 8) > 800

    def test_reflush_of_inflight_line_closes_window(self):
        # The B+-tree shifting pattern: flush, read, flush again — the
        # second flush must not leave the line readable via reordering.
        machine = quiet_machine(1)
        core = machine.new_core()
        addr = pm_addr(machine)
        for _ in range(2):
            core.store(addr, 8)
            core.clwb(addr)
            core.sfence()
        assert core.load(addr, 8) > 500

    def test_nt_store_rap_on_both_generations(self):
        for generation in (1, 2):
            machine = quiet_machine(generation)
            core = machine.new_core()
            addr = pm_addr(machine)
            core.nt_store(addr, 64)
            core.mfence()
            assert core.load(addr, 8) > 500, f"G{generation}"


class TestNuma:
    def test_remote_pm_read_slower(self):
        machine = quiet_machine(remote_pm=True)
        core = machine.new_core()
        local = core.load(pm_addr(machine), 8)
        remote = core.load(machine.region_spec("pm_remote").base, 8)
        assert remote > local

    def test_remote_persist_completion_later(self):
        machine = quiet_machine(remote_pm=True)
        core = machine.new_core()
        local, remote = pm_addr(machine), machine.region_spec("pm_remote").base
        core.store(local, 8)
        core.clwb(local)
        core.mfence()
        local_rap = core.load(local, 8)
        core2 = machine.new_core()
        core2.store(remote, 8)
        core2.clwb(remote)
        core2.mfence()
        remote_rap = core2.load(remote, 8)
        assert remote_rap > local_rap


class TestStreamLoad:
    def test_stream_load_does_not_fill_cache(self):
        machine = quiet_machine()
        core = machine.new_core()
        addr = pm_addr(machine)
        core.stream_load(addr, 64)
        assert not machine.caches.contains(cacheline_index(addr))

    def test_stream_load_counts_demand(self):
        machine = quiet_machine()
        core = machine.new_core()
        core.stream_load(pm_addr(machine), 64)
        assert machine.pm_counters().demand_read_bytes == 64

    def test_stream_load_invisible_to_prefetchers(self):
        machine = machine_for(1, prefetchers=PrefetcherConfig.only("dcu"))
        core = machine.new_core()
        base = pm_addr(machine)
        for line in range(8):  # perfectly sequential
            core.stream_load(base + line * CACHELINE_SIZE, CACHELINE_SIZE)
        assert machine.prefetch_issued == 0


class TestPrefetchIntegration:
    def test_sequential_loads_trigger_prefetch(self):
        machine = machine_for(1, prefetchers=PrefetcherConfig.only("dcu"))
        core = machine.new_core()
        base = pm_addr(machine)
        for line in range(8):
            core.load(base + line * CACHELINE_SIZE, 8)
        assert machine.prefetch_issued > 0

    def test_prefetched_line_is_cached(self):
        machine = machine_for(1, prefetchers=PrefetcherConfig.only("dcu"))
        core = machine.new_core()
        base = pm_addr(machine)
        core.load(base, 8)
        core.load(base + CACHELINE_SIZE, 8)  # fires prefetch of line 2
        assert machine.caches.contains(cacheline_index(base) + 2)

    def test_prefetch_counts_imc_but_not_demand(self):
        machine = machine_for(1, prefetchers=PrefetcherConfig.only("dcu"))
        core = machine.new_core()
        base = pm_addr(machine)
        core.load(base, 8)
        core.load(base + CACHELINE_SIZE, 8)
        counters = machine.pm_counters()
        assert counters.imc_read_bytes > counters.demand_read_bytes


class TestFences:
    def test_fence_dispatch(self):
        machine = quiet_machine()
        core = machine.new_core()
        core.fence("sfence")
        core.fence("mfence")
        with pytest.raises(ValueError):
            core.fence("lfence")

    def test_tick_advances_clock(self):
        machine = quiet_machine()
        core = machine.new_core()
        core.tick(123)
        assert core.now == 123

    def test_reset_memory_system(self):
        machine = quiet_machine()
        core = machine.new_core()
        addr = pm_addr(machine)
        core.load(addr, 8)
        machine.reset_memory_system()
        assert not machine.caches.contains(cacheline_index(addr))
