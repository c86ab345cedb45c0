"""Integration tests: the Section 3 microbenchmark kernels reproduce
the paper's findings (shape assertions, small scales)."""

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.common.units import kib, mib
from repro.core.microbench.interleave import run_separation_probe, run_transition_probe
from repro.core.microbench.pointer_chase import PointerChaseBench
from repro.core.microbench.prefetch_probe import run_prefetch_probe
from repro.core.microbench.rap import run_rap_iterations
from repro.core.microbench.strided_read import run_strided_read
from repro.core.microbench.write_amp import run_write_amplification, run_write_hit_ratio
from repro.persist.persistency import FenceKind, FlushKind, PersistencyModel
from repro.system.presets import machine_for


def quiet(generation=1, **kwargs):
    kwargs.setdefault("prefetchers", PrefetcherConfig.none())
    return machine_for(generation, **kwargs)


class TestFig2ReadBuffer:
    """C1: RA = 4/CpX below capacity, 4 beyond, never below 1."""

    @pytest.mark.parametrize("cpx,expected", [(1, 4.0), (2, 2.0), (3, 4 / 3), (4, 1.0)])
    def test_below_capacity(self, cpx, expected):
        result = run_strided_read(quiet(), kib(8), cpx)
        assert result.read_amplification == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize("cpx", [1, 2, 3, 4])
    def test_above_capacity_jumps_to_4(self, cpx):
        result = run_strided_read(quiet(), kib(24), cpx)
        assert result.read_amplification == pytest.approx(4.0, rel=0.05)

    def test_ra_never_below_one(self):
        for cpx in (1, 4):
            for wss in (kib(4), kib(16), kib(32)):
                result = run_strided_read(quiet(), wss, cpx)
                assert result.read_amplification >= 0.99

    def test_g2_larger_read_buffer(self):
        # 20 KB fits G2's 22 KB buffer but not G1's 16 KB.
        g1 = run_strided_read(quiet(1), kib(20), 4)
        g2 = run_strided_read(quiet(2), kib(20), 4)
        assert g1.read_amplification == pytest.approx(4.0, rel=0.05)
        assert g2.read_amplification == pytest.approx(1.0, rel=0.05)


class TestFig3WriteAmplification:
    """C3: partial writes absorbed below 12 KB; full writes WA ≈ 1 on G1."""

    def test_partial_writes_absorbed_below_capacity(self):
        for written in (1, 2, 3):
            result = run_write_amplification(quiet(), kib(8), written)
            assert result.write_amplification == 0.0

    def test_partial_writes_approach_theoretical_beyond(self):
        for written in (1, 2):
            result = run_write_amplification(quiet(), kib(32), written, passes=10)
            assert result.write_amplification > result.theoretical_max * 0.75
            assert result.write_amplification <= result.theoretical_max * 1.05

    def test_g1_full_writes_hit_wa_one_at_small_wss(self):
        result = run_write_amplification(quiet(1), kib(4), 4)
        assert result.write_amplification > 0.8

    def test_g2_full_writes_absorbed_at_small_wss(self):
        result = run_write_amplification(quiet(2), kib(8), 4)
        assert result.write_amplification < 0.1

    def test_wa_independent_of_access_order(self):
        seq = run_write_amplification(quiet(), kib(24), 1, passes=8)
        rnd = run_write_amplification(quiet(), kib(24), 1, passes=8, random_across_xplines=True)
        assert seq.write_amplification == pytest.approx(rnd.write_amplification, rel=0.15)


class TestFig4HitRatio:
    """C4: graceful decay; G1 knee at 12 KB, G2 knee past 16 KB."""

    def test_full_hit_below_capacity(self):
        assert run_write_hit_ratio(quiet(1), kib(8)).inferred_hit_ratio > 0.95
        assert run_write_hit_ratio(quiet(2), kib(14)).inferred_hit_ratio > 0.95

    def test_graceful_decay(self):
        ratios = [run_write_hit_ratio(quiet(1), wss).inferred_hit_ratio for wss in
                  (kib(12), kib(16), kib(24), kib(32))]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        assert 0.2 < ratios[-1] < 0.9  # graceful, not a cliff

    def test_g2_knee_later_than_g1(self):
        g1 = run_write_hit_ratio(quiet(1), kib(16)).inferred_hit_ratio
        g2 = run_write_hit_ratio(quiet(2), kib(16)).inferred_hit_ratio
        assert g2 > g1


class TestSec33Separation:
    """Separate buffers; XPLine transition avoids RMW."""

    def test_buffers_separate(self):
        result = run_separation_probe(1)
        assert result.buffers_are_separate
        assert result.interleaved_read_amplification == pytest.approx(1.0, rel=0.05)
        assert result.interleaved_media_write_bytes == 0

    def test_transition_traffic_far_below_imc(self):
        for generation in (1, 2):
            result = run_transition_probe(generation)
            assert result.media_traffic_fraction < 0.5, generation

    def test_read_first_transition_avoids_rmw(self):
        result = run_transition_probe(1, write_first=False)
        assert result.rmw_avoided > 0


class TestFig6Prefetch:
    """C2: no on-DIMM prefetching by itself; CPU prefetch wastes media reads."""

    def test_no_prefetch_ratios_are_one(self):
        machine = machine_for(1, prefetchers=PrefetcherConfig.none())
        result = run_prefetch_probe(machine, kib(256), visits=2000)
        assert result.pm_read_ratio == pytest.approx(1.0, abs=0.1)
        assert result.imc_read_ratio == pytest.approx(1.0, abs=0.1)

    def test_dcu_wastes_media_bandwidth_at_large_wss(self):
        machine = machine_for(1, prefetchers=PrefetcherConfig.only("dcu"))
        result = run_prefetch_probe(machine, mib(64), visits=2000)
        assert result.pm_read_ratio > 1.5
        assert result.pm_read_ratio > result.imc_read_ratio

    def test_small_wss_prefetch_is_harmless(self):
        machine = machine_for(1, prefetchers=PrefetcherConfig.only("dcu"))
        result = run_prefetch_probe(machine, kib(8), visits=2000)
        assert result.pm_read_ratio < 1.25

    def test_streamer_mildest(self):
        machine = machine_for(1, prefetchers=PrefetcherConfig.only("streamer"))
        streamer = run_prefetch_probe(machine, mib(64), visits=2000)
        machine = machine_for(1, prefetchers=PrefetcherConfig.only("dcu"))
        dcu = run_prefetch_probe(machine, mib(64), visits=2000)
        assert streamer.pm_read_ratio < dcu.pm_read_ratio

    def test_redirect_restores_ratio(self):
        machine = machine_for(1, prefetchers=PrefetcherConfig.only("dcu"))
        baseline = run_prefetch_probe(machine, mib(64), visits=2000)
        machine = machine_for(1, prefetchers=PrefetcherConfig.only("dcu"))
        optimized = run_prefetch_probe(machine, mib(64), visits=2000, redirect=True)
        assert optimized.pm_read_ratio < baseline.pm_read_ratio
        assert optimized.pm_read_ratio == pytest.approx(1.0, abs=0.15)


class TestFig7Rap:
    """C5: RAP costs ~10x on G1; sfence window; G2 clwb immune."""

    def _rap(self, generation, region, flush, fence, distance):
        machine = machine_for(
            generation,
            prefetchers=PrefetcherConfig.none(),
            remote_pm=True,
            remote_dram=True,
        )
        return run_rap_iterations(machine, region, flush, fence, distance, passes=15)

    def test_g1_clwb_mfence_distance_zero_expensive(self):
        near = self._rap(1, "pm", FlushKind.CLWB, FenceKind.MFENCE, 0)
        far = self._rap(1, "pm", FlushKind.CLWB, FenceKind.MFENCE, 32)
        assert near > far * 4

    def test_g1_sfence_window(self):
        d0 = self._rap(1, "pm", FlushKind.CLWB, FenceKind.SFENCE, 0)
        d1 = self._rap(1, "pm", FlushKind.CLWB, FenceKind.SFENCE, 1)
        d3 = self._rap(1, "pm", FlushKind.CLWB, FenceKind.SFENCE, 3)
        assert d0 < 300 and d1 < 300
        assert d3 > 400

    def test_remote_worse_than_local(self):
        local = self._rap(1, "pm", FlushKind.CLWB, FenceKind.MFENCE, 0)
        remote = self._rap(1, "pm_remote", FlushKind.CLWB, FenceKind.MFENCE, 0)
        assert remote > local

    def test_dram_gap_much_smaller(self):
        pm_near = self._rap(1, "pm", FlushKind.CLWB, FenceKind.MFENCE, 0)
        dram_near = self._rap(1, "dram", FlushKind.CLWB, FenceKind.MFENCE, 0)
        assert dram_near < pm_near / 2

    def test_g2_clwb_fixed_nt_store_not(self):
        clwb = self._rap(2, "pm", FlushKind.CLWB, FenceKind.MFENCE, 0)
        nt = self._rap(2, "pm", FlushKind.NT_STORE, FenceKind.MFENCE, 0)
        assert clwb < 500
        assert nt > 1000


@pytest.mark.slow
class TestFig8PointerChase:
    """C6: three latency levels; flat writes; reads dominate at scale.

    Each chase walks multi-MB working sets (10-20 s apiece), so the
    class is tier-2; the E6 claims in ``repro.validate`` re-assert the
    same shapes from the experiment's reports.
    """

    def _chase(self, wss, mode, sequential=True, model=PersistencyModel.STRICT):
        machine = machine_for(1)
        bench = PointerChaseBench(machine, wss, sequential)
        return bench.run(mode, model, max_ops=4000).cycles_per_element

    def test_three_latency_levels(self):
        small = self._chase(kib(4), "clwb")
        plateau = self._chase(kib(256), "clwb")
        large = self._chase(mib(64), "clwb", sequential=False)
        assert small < plateau < large

    def test_write_latency_flat(self):
        values = [self._chase(wss, "write", sequential=False) for wss in
                  (kib(64), mib(1), mib(64))]
        assert max(values) < min(values) * 1.4

    def test_read_dominates_beyond_caches(self):
        read = self._chase(mib(64), "read", sequential=False)
        write = self._chase(mib(64), "write", sequential=False)
        assert read > write

    def test_sequential_reads_cheaper_than_random(self):
        seq = self._chase(mib(64), "read", sequential=True)
        rand = self._chase(mib(64), "read", sequential=False)
        assert seq < rand * 0.8

    def test_relaxed_cheaper_at_small_wss(self):
        strict = self._chase(kib(4), "clwb", model=PersistencyModel.STRICT)
        relaxed = self._chase(kib(4), "clwb", model=PersistencyModel.RELAXED)
        assert relaxed < strict

    def test_models_converge_at_plateau(self):
        strict = self._chase(mib(1), "clwb", model=PersistencyModel.STRICT)
        relaxed = self._chase(mib(1), "clwb", model=PersistencyModel.RELAXED)
        assert relaxed == pytest.approx(strict, rel=0.25)
