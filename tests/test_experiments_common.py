"""Tests for the experiment harness machinery and the machine presets."""

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.common.units import kib, mib
from repro.experiments.common import (
    ExperimentReport,
    buffer_wss_grid,
    check_profile,
    interleave_workers,
    split_round_robin,
    wide_wss_grid,
)
from repro.system.presets import g1_machine, g2_machine, machine_for


class TestExperimentReport:
    def make(self):
        report = ExperimentReport("t1", "title", "WSS", [kib(4), kib(8)], x_is_size=True)
        report.add_series("a", [1.0, 2.0])
        report.add_series("b", [3.0, 4.0])
        return report

    def test_get_series(self):
        assert self.make().get("a") == [1.0, 2.0]

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            self.make().get("zzz")

    def test_value_lookup(self):
        assert self.make().value("b", kib(8)) == 4.0

    def test_mismatched_length_rejected(self):
        report = ExperimentReport("t", "t", "x", [1, 2, 3])
        with pytest.raises(ValueError):
            report.add_series("bad", [1.0])

    def test_render_contains_everything(self):
        report = self.make()
        report.notes.append("a note")
        text = report.render()
        assert "t1" in text and "4KB" in text and "8KB" in text
        assert "a note" in text
        assert "3.00" in text

    def test_render_formats_sizes(self):
        report = ExperimentReport("t", "t", "WSS", [mib(16)], x_is_size=True)
        report.add_series("s", [1.0])
        assert "16MB" in report.render()


class TestGridsAndProfiles:
    def test_buffer_grid_monotone(self):
        grid = buffer_wss_grid()
        assert grid == sorted(grid)
        assert grid[0] >= 1024

    def test_wide_grid_profiles(self):
        assert len(wide_wss_grid("full")) > len(wide_wss_grid("fast"))

    def test_check_profile(self):
        assert check_profile("fast") == "fast"
        with pytest.raises(ValueError):
            check_profile("turbo")


class TestInterleaveWorkers:
    def test_round_robin_split(self):
        assert split_round_robin([1, 2, 3, 4, 5], 2) == [[1, 3, 5], [2, 4]]

    def test_workers_share_machine_resources(self):
        machine = g1_machine(prefetchers=PrefetcherConfig.none())
        base = machine.region_spec("pm").base
        cores = [machine.new_core(f"w{i}") for i in range(2)]

        def stream(core, offset):
            for index in range(20):
                def task(index=index):
                    core.nt_store(base + offset + index * 256, 64)
                yield task

        makespan = interleave_workers(
            [(cores[0], stream(cores[0], 0)), (cores[1], stream(cores[1], 1 << 20))]
        )
        assert makespan > 0
        assert all(core.stores == 20 for core in cores)

    def test_makespan_is_max_elapsed(self):
        machine = g1_machine(prefetchers=PrefetcherConfig.none())
        core = machine.new_core()

        def stream():
            for _ in range(3):
                def task():
                    core.tick(100)
                yield task

        assert interleave_workers([(core, stream())]) == pytest.approx(300)

    def test_empty_workers(self):
        assert interleave_workers([]) == 0.0

    def test_causal_order(self):
        # Tasks must be dispatched in nondecreasing *start* time order:
        # a worker whose local clock is behind always runs first.
        machine = g1_machine(prefetchers=PrefetcherConfig.none())
        cores = [machine.new_core(f"w{i}") for i in range(2)]
        starts = []

        def stream(core, steps, stride):
            for _ in range(steps):
                def task():
                    starts.append(core.now)
                    core.tick(stride)
                yield task

        interleave_workers([(cores[0], stream(cores[0], 5, 1)), (cores[1], stream(cores[1], 2, 100))])
        assert len(starts) == 7
        assert starts == sorted(starts)


class TestPresets:
    def test_machine_for_dispatch(self):
        assert not machine_for(1).config.clwb_retains
        assert machine_for(2).config.clwb_retains
        with pytest.raises(ValueError):
            machine_for(3)

    def test_g1_g2_differences(self):
        g1 = g1_machine()
        g2 = g2_machine()
        assert not g1.config.clwb_retains
        assert g2.config.clwb_retains
        assert g2.config.optane.read_buffer_bytes > g1.config.optane.read_buffer_bytes
        assert g1.config.optane.periodic_writeback
        assert not g2.config.optane.periodic_writeback
        assert g2.config.frequency_ghz > g1.config.frequency_ghz

    def test_dimm_counts(self):
        machine = g1_machine(pm_dimms=6)
        names = [name for name in machine.registry.names() if name.startswith("pm")]
        assert len(names) == 6

    def test_config_overrides_passthrough(self):
        machine = g1_machine(frequency_ghz=3.5)
        assert machine.config.frequency_ghz == 3.5

    def test_seed_changes_rng(self):
        a = g1_machine(seed=1)
        b = g1_machine(seed=2)
        assert a.rng.seed != b.rng.seed
