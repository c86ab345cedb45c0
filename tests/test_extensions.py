"""Tests for the extension features: automatic helper-trace extraction
(§4.1 future work) and eADR (§6 discussion)."""

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.common.constants import cacheline_index
from repro.core.helper import HelperConfig, HelperThread
from repro.core.trace_helper import ExtractedTrace, RecordingCore, extract_lookup_trace
from repro.datastores.cceh import CcehHashTable
from repro.persist import CrashSimulator, PmHeap
from repro.system.presets import g1_machine, g2_machine
from repro.workloads import insert_only_stream


def cceh_setup(n=20_000):
    machine = g1_machine(prefetchers=PrefetcherConfig.none())
    table = CcehHashTable(PmHeap(machine).pm)
    for key in insert_only_stream(n, seed=5):
        table.insert(key, key)
    return machine, table


class TestRecordingCore:
    def test_records_loads_only(self):
        core = RecordingCore()
        core.load(100, 8)
        core.store(200, 8)
        core.clwb(200)
        core.sfence()
        assert core.load_trace == [(100, 8)]

    def test_records_stream_loads(self):
        core = RecordingCore()
        core.stream_load(256, 64)
        assert core.load_trace == [(256, 64)]


class TestExtractedTrace:
    def test_extracted_matches_manual_trace(self):
        machine, table = cceh_setup()
        manual = machine.new_core("manual")
        table.prefetch_trace(manual, 123)

        auto_core = machine.new_core("auto")
        trace = extract_lookup_trace(table)
        trace(auto_core, 123)
        # The automatic trace covers at least the manual loads
        # (directory + home bucket) and stays load-only.
        assert auto_core.loads >= manual.loads
        assert auto_core.stores == 0
        assert auto_core.flushes == 0

    def test_probe_misses_still_record_prefix(self):
        machine, table = cceh_setup()
        trace = extract_lookup_trace(table)
        helper = machine.new_core("helper")
        trace(helper, 999_999_999)  # absent key
        assert helper.loads >= 2  # directory + probed buckets

    def test_prefix_limit(self):
        machine, table = cceh_setup()
        trace = extract_lookup_trace(table, prefix_loads=1)
        helper = machine.new_core("helper")
        trace(helper, 5)
        assert helper.loads == 1

    def test_rejects_traceless_objects(self):
        with pytest.raises(TypeError):
            extract_lookup_trace(object())

    def test_extracted_trace_drives_helper_thread(self):
        """End-to-end: the auto-extracted helper speeds up inserts like
        the hand-written one."""
        machine, table = cceh_setup()
        keys = [key + (1 << 41) for key in insert_only_stream(3_000, seed=9)]
        worker = machine.new_core("worker")
        start = worker.now
        for key in keys:
            table.insert(key, key, worker)
        baseline = (worker.now - start) / len(keys)

        machine2, table2 = cceh_setup()
        keys2 = list(keys)
        worker2 = machine2.new_core("worker")
        helper = HelperThread(machine2, extract_lookup_trace(table2), HelperConfig(depth=8))
        start = worker2.now
        for index, key in enumerate(keys2):
            helper.sync_before(worker2, keys2, index)
            table2.insert(key, key, worker2)
        helped = (worker2.now - start) / len(keys2)
        assert helped < baseline


class TestEadr:
    def test_dirty_pm_lines_survive_crash(self):
        machine = g2_machine(prefetchers=PrefetcherConfig.none(), eadr=True)
        core = machine.new_core()
        heap = PmHeap(machine)
        addr = heap.pm.alloc(64)
        core.store(addr, 8)  # no flush at all
        report = CrashSimulator(machine).power_failure(core.now)
        assert cacheline_index(addr) not in report.lost_pm_lines

    def test_without_eadr_same_store_is_lost(self):
        machine = g2_machine(prefetchers=PrefetcherConfig.none(), eadr=False)
        core = machine.new_core()
        heap = PmHeap(machine)
        addr = heap.pm.alloc(64)
        core.store(addr, 8)
        report = CrashSimulator(machine).power_failure(core.now)
        assert cacheline_index(addr) in report.lost_pm_lines

    def test_eadr_flush_reaches_dimm(self):
        machine = g2_machine(prefetchers=PrefetcherConfig.none(), eadr=True)
        core = machine.new_core()
        heap = PmHeap(machine)
        addr = heap.pm.alloc(64)
        core.store(addr, 8)
        before = machine.pm_counters().imc_write_bytes
        CrashSimulator(machine).power_failure(core.now)
        assert machine.pm_counters().imc_write_bytes > before
