"""Tests for the write-combining buffer (random eviction, write-back rules)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import write_buffer
from repro.buffers.write_buffer import WriteBuffer
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.dimm.config import OptaneDimmConfig


def make(capacity_xplines=4, periodic=True, seed=1):
    return WriteBuffer(
        capacity_xplines * 256,
        rng=DeterministicRng(seed),
        periodic_writeback=periodic,
    )


@pytest.fixture
def period(monkeypatch):
    """Set the periodic write-back interval for one test: ``period(cycles)``."""
    return lambda cycles: monkeypatch.setattr(write_buffer, "WRITEBACK_PERIOD", cycles)


class TestBasicWrites:
    def test_first_write_is_miss(self):
        buffer = make()
        assert 10 not in buffer.entries
        buffer.write(0.0, 10, 0)
        assert 10 in buffer.entries

    def test_second_write_same_xpline_is_hit(self):
        buffer = make()
        buffer.write(0.0, 10, 0)
        assert 10 in buffer.entries
        assert buffer.write(1.0, 10, 1) == ()
        assert buffer.entries[10].dirty_mask == 0b0011

    def test_dirty_and_present_masks(self):
        buffer = make()
        buffer.write(0.0, 10, 2)
        entry = buffer.entries[10]
        assert entry.dirty_mask == 0b0100
        assert entry.present_mask == 0b0100

    def test_servable_only_for_present_slots(self):
        buffer = make()
        buffer.write(0.0, 10, 1)
        assert buffer.entries[10].present_mask & (1 << 1)
        assert not buffer.entries[10].present_mask & (1 << 0)

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ConfigError):
            WriteBuffer(64, rng=DeterministicRng(1))


class TestEviction:
    def test_overflow_evicts_exactly_one(self):
        buffer = make(capacity_xplines=2)
        buffer.write(0.0, 1, 0)
        buffer.write(0.0, 2, 0)
        writebacks = buffer.write(0.0, 3, 0)
        evictions = [w for w in writebacks if w.reason == "evict"]
        assert len(evictions) == 1
        assert len(buffer) == 2

    def test_eviction_never_victimizes_incoming(self):
        for seed in range(20):
            buffer = make(capacity_xplines=2, seed=seed)
            buffer.write(0.0, 1, 0)
            buffer.write(0.0, 2, 0)
            writebacks = buffer.write(0.0, 3, 0)
            assert writebacks[-1].xpline in (1, 2)
            assert 3 in buffer.entries

    def test_partial_eviction_needs_underfill(self):
        buffer = make(capacity_xplines=1, periodic=False)
        buffer.write(0.0, 1, 0)
        writebacks = buffer.write(0.0, 2, 0)
        assert writebacks[0].needs_underfill_read

    def test_fully_written_eviction_skips_underfill(self):
        buffer = make(capacity_xplines=1, periodic=False)
        for slot in range(4):
            buffer.write(0.0, 1, slot)
        writebacks = buffer.write(0.0, 2, 0)
        assert not writebacks[0].needs_underfill_read

    def test_random_eviction_varies_with_seed(self):
        victims = set()
        for seed in range(30):
            buffer = make(capacity_xplines=4, seed=seed)
            for xpline in range(4):
                buffer.write(0.0, xpline, 0)
            writebacks = buffer.write(0.0, 99, 0)
            victims.add(writebacks[-1].xpline)
        assert len(victims) > 1  # not a fixed (FIFO/LRU) victim


class TestRandomEvictionDraws:
    """The inlined victim draw is ``random.Random(seed).randrange(n)``, draw for draw.

    The reference replays the buffer's swap-remove key list with the
    interpreter's own ``randrange``, redrawing while the victim is the
    incoming line.
    """

    @staticmethod
    def _reference_victims(seed, capacity_lines, incoming):
        rng = random.Random(seed)
        keys, victims, exclude_hits = [], [], 0
        for xpline in incoming:
            keys.append(xpline)
            if len(keys) <= capacity_lines:
                continue
            while True:
                victim = keys[rng.randrange(len(keys))]
                if victim != xpline:
                    break
                exclude_hits += 1
            index = keys.index(victim)
            last = keys.pop()
            if last != victim:
                keys[index] = last
            victims.append(victim)
        return victims, exclude_hits, rng.random()

    @pytest.mark.parametrize("capacity_bytes", [
        256,
        OptaneDimmConfig.g1().write_buffer_bytes,
        OptaneDimmConfig.g2().write_buffer_bytes,
    ])
    @pytest.mark.parametrize("seed", [1, 7, 424242])
    def test_victims_match_randrange(self, seed, capacity_bytes):
        incoming = list(range(3_000))
        buffer = WriteBuffer(capacity_bytes, rng=DeterministicRng(seed), periodic_writeback=False)
        victims = []
        for xpline in incoming:
            victims += [w.xpline for w in buffer.write(0.0, xpline, 0)]
        expected, exclude_hits, next_draw = self._reference_victims(
            seed, buffer.capacity_lines, incoming
        )
        assert exclude_hits > 0
        assert victims == expected
        assert buffer._rng.random() == next_draw

    @pytest.mark.parametrize("seed", [1, 7, 424242])
    def test_single_line_draw_matches_randrange(self, seed):
        # n = 1: the only line is evicted even though it is excluded,
        # after the same rejection draws randrange(1) makes.
        buffer = WriteBuffer(256, rng=DeterministicRng(seed))
        buffer.write(0.0, 5, 0)
        assert buffer._evict_random(exclude=5).xpline == 5
        assert len(buffer) == 0 and buffer.resident_xplines() == []
        reference = random.Random(seed)
        assert reference.randrange(1) == 0
        assert buffer._rng.random() == reference.random()


class TestPeriodicWriteback:
    def test_fully_dirty_line_written_back_after_period(self, period):
        period(1000.0)
        buffer = make()
        for slot in range(4):
            buffer.write(0.0, 1, slot)
        assert buffer.poll(500.0) == ()
        due = buffer.poll(1500.0)
        assert len(due) == 1
        assert due[0].reason == "periodic"
        assert not due[0].needs_underfill_read
        assert 1 not in buffer.entries

    def test_partial_line_never_periodically_written(self, period):
        period(1000.0)
        buffer = make()
        buffer.write(0.0, 1, 0)
        assert buffer.poll(10_000.0) == ()
        assert 1 in buffer.entries

    def test_disabled_periodic_writeback(self, period):
        period(1000.0)
        buffer = make(periodic=False)
        for slot in range(4):
            buffer.write(0.0, 1, slot)
        assert buffer.poll(10_000.0) == ()
        assert 1 in buffer.entries

    def test_rewrite_of_fully_dirty_line_flushes_old_version(self, period):
        # G1 semantics: writing a fully dirty XPLine again drains the
        # completed version first — WA converges to 1 for 100% writes.
        period(100_000.0)
        buffer = make()
        for slot in range(4):
            buffer.write(0.0, 1, slot)
        assert 1 in buffer.entries
        writebacks = buffer.write(1.0, 1, 0)
        rewrites = [w for w in writebacks if w.reason == "rewrite"]
        assert len(rewrites) == 1
        assert 1 in buffer.entries  # fresh version resident
        assert buffer.entries[1].dirty_mask == 0b0001

    def test_rewrite_without_periodic_mode_coalesces(self):
        buffer = make(periodic=False)
        for slot in range(4):
            buffer.write(0.0, 1, slot)
        assert 1 in buffer.entries
        writebacks = buffer.write(1.0, 1, 0)
        assert writebacks == ()
        assert buffer.entries[1].dirty_mask == 0b1111

    # The due-time bound lets polls skip the scan; it must not change
    # which lines leave, in what order, or when.
    def test_due_lines_leave_in_insertion_order(self, period):
        period(1000.0)
        buffer = make()
        buffer.write(0.0, 1, 0)
        buffer.write(0.0, 2, 0)
        for slot in (1, 2, 3):
            buffer.write(10.0, 2, slot)  # line 2 full first
        for slot in (1, 2, 3):
            buffer.write(20.0, 1, slot)
        due = buffer.poll(2000.0)
        assert [writeback.xpline for writeback in due] == [1, 2]

    def test_stale_bound_still_drains_at_due_time(self, period):
        period(1000.0)
        buffer = WriteBuffer(2 * 256, rng=DeterministicRng(1), eviction="fifo")
        for slot in range(4):
            buffer.write(0.0, 1, slot)  # due at 1000
        for slot in range(4):
            buffer.write(500.0, 2, slot)  # due at 1500
        writebacks = buffer.write(600.0, 3, 0)  # evicts line 1: the bound is stale
        assert [writeback.xpline for writeback in writebacks] == [1]
        assert buffer.poll(1200.0) == ()
        assert buffer.poll(1499.0) == ()
        due = buffer.poll(1500.0)
        assert [(writeback.xpline, writeback.reason) for writeback in due] == [(2, "periodic")]

    def test_clear_resets_bound(self, period):
        period(1000.0)
        buffer = make()
        for slot in range(4):
            buffer.write(0.0, 1, slot)
        assert buffer.due_bound == 1000.0
        buffer.clear()
        assert buffer.due_bound == float("inf")


class TestTransition:
    def test_adopted_line_fully_present(self):
        buffer = make()
        assert buffer.adopt_from_read_buffer(0.0, 7, 2) == ()
        entry = buffer.entries[7]
        assert entry.present_mask == 0b1111
        assert entry.dirty_mask == 0b0100

    def test_adopted_line_eviction_skips_underfill(self):
        buffer = make(capacity_xplines=1, periodic=False)
        buffer.adopt_from_read_buffer(0.0, 7, 0)
        writebacks = buffer.write(0.0, 8, 0)
        assert not writebacks[0].needs_underfill_read

    def test_adoption_can_trigger_eviction(self):
        buffer = make(capacity_xplines=1, periodic=False)
        buffer.write(0.0, 1, 0)
        writebacks = buffer.adopt_from_read_buffer(0.0, 2, 0)
        assert len(writebacks) == 1


class TestDrainAll:
    def test_drain_all_empties_buffer(self):
        buffer = make()
        buffer.write(0.0, 1, 0)
        buffer.write(0.0, 2, 1)
        writebacks = buffer.drain_all()
        assert len(writebacks) == 2
        assert len(buffer) == 0


@settings(max_examples=40)
@given(
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3)), max_size=300),
    st.integers(0, 10),
)
def test_capacity_invariant(writes, seed):
    buffer = make(capacity_xplines=3, seed=seed)
    clock = 0.0
    for xpline, slot in writes:
        clock += 10.0
        buffer.write(clock, xpline, slot)
        assert len(buffer) <= buffer.capacity_lines


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 3)), max_size=200))
def test_dirty_implies_present(writes):
    buffer = make(capacity_xplines=4, periodic=False)
    for xpline, slot in writes:
        buffer.write(0.0, xpline, slot)
        entry = buffer.entries[xpline]
        if entry is not None:
            assert entry.dirty_mask & ~entry.present_mask == 0
