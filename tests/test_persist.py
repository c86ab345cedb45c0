"""Tests for redo logging."""

import pytest

from repro.cache.prefetch import PrefetcherConfig
from repro.common.errors import DataStoreError
from repro.persist.allocator import PmHeap
from repro.persist.log import RedoLog
from repro.system.presets import g1_machine


def setup():
    machine = g1_machine(prefetchers=PrefetcherConfig.none())
    return machine, machine.new_core(), PmHeap(machine)


class TestRedoLog:
    def test_append_persists_entry(self):
        machine, core, heap = setup()
        log = RedoLog(core, heap, capacity_entries=8)
        log.append(heap.pm.alloc(64))
        assert log.pending_count == 1
        assert machine.pm_counters().imc_write_bytes >= 64

    def test_overflow_rejected(self):
        machine, core, heap = setup()
        log = RedoLog(core, heap, capacity_entries=2)
        log.append(heap.pm.alloc(64))
        log.append(heap.pm.alloc(64))
        with pytest.raises(DataStoreError):
            log.append(heap.pm.alloc(64))

    def test_commit_counts(self):
        machine, core, heap = setup()
        log = RedoLog(core, heap, capacity_entries=8)
        log.append(heap.pm.alloc(64))
        log.commit()
        assert log.committed_batches == 1

    def test_apply_and_reclaim_clears_pending(self):
        machine, core, heap = setup()
        log = RedoLog(core, heap, capacity_entries=8)
        target = heap.pm.alloc(64)
        log.append(target)
        log.commit()
        applied = log.apply_and_reclaim()
        assert [record.target_addr for record in applied] == [target]
        assert log.pending_count == 0

    def test_append_writes_fresh_cachelines(self):
        # The core of the optimization: log entries never reuse a line
        # within a batch, so no append ever RAP-stalls on a prior one.
        machine, core, heap = setup()
        log = RedoLog(core, heap, capacity_entries=8)
        costs = []
        for _ in range(8):
            start = core.now
            log.append(heap.pm.alloc(64))
            costs.append(core.now - start)
        # All appends cost about the same — no RAP blowup.
        assert max(costs) < min(costs) * 2 + 100

    def test_recover_replays_pending(self):
        machine, core, heap = setup()
        log = RedoLog(core, heap, capacity_entries=8)
        targets = [heap.pm.alloc(64) for _ in range(3)]
        for target in targets:
            log.append(target)
        log.commit()
        replayed = log.recover()
        assert [record.target_addr for record in replayed] == targets
        assert log.pending_count == 0

    def test_invalid_capacity(self):
        machine, core, heap = setup()
        with pytest.raises(DataStoreError):
            RedoLog(core, heap, capacity_entries=0)

    def test_cursor_wraps_circularly(self):
        machine, core, heap = setup()
        log = RedoLog(core, heap, capacity_entries=4)
        for _ in range(3):
            for _ in range(4):
                log.append(heap.pm.alloc(64))
            log.commit()
            log.apply_and_reclaim()
        assert log.logged_updates == 12
