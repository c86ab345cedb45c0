"""Tests for the on-DIMM read buffer (FIFO, CPU-cache-exclusive)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.read_buffer import ReadBuffer
from repro.common.errors import ConfigError
from repro.common.units import kib


def make(capacity_xplines=4):
    return ReadBuffer(capacity_xplines * 256)


def servable(buffer, xpline, slot):
    """True if a read of ``slot`` in ``xpline`` would hit the buffer."""
    consumed = buffer.entries.get(xpline)
    return consumed is not None and not consumed & (1 << slot)


class TestInstall:
    def test_install_makes_servable(self):
        buffer = make()
        buffer.install(10)
        assert servable(buffer, 10, 0)
        assert servable(buffer, 10, 3)

    def test_install_with_consumed_slot(self):
        buffer = make()
        buffer.install(10, consumed_slots=(1,))
        assert not servable(buffer, 10, 1)
        assert servable(buffer, 10, 0)

    def test_install_all_slots_consumed_drops_entry(self):
        buffer = make()
        buffer.install(10, consumed_slots=(0, 1, 2, 3))
        assert 10 not in buffer.entries

    def test_fifo_eviction_order(self):
        buffer = make(capacity_xplines=2)
        buffer.install(1)
        buffer.install(2)
        evicted = buffer.install(3)
        assert evicted == 1
        assert 1 not in buffer.entries
        assert 2 in buffer.entries
        assert 3 in buffer.entries

    def test_hit_does_not_refresh_fifo_position(self):
        buffer = make(capacity_xplines=2)
        buffer.install(1)
        buffer.install(2)
        buffer.deliver(1, 0)  # a hit on the oldest entry
        evicted = buffer.install(3)
        assert evicted == 1  # still evicted first: FIFO, not LRU

    def test_reinstall_resets_consumed_slots(self):
        buffer = make()
        buffer.install(10, consumed_slots=(0,))
        buffer.install(10, consumed_slots=(1,))
        assert servable(buffer, 10, 0)
        assert not servable(buffer, 10, 1)

    def test_capacity_below_one_xpline_rejected(self):
        with pytest.raises(ConfigError):
            ReadBuffer(100)


class TestDeliver:
    def test_miss_on_absent_line(self):
        assert make().deliver(5, 0) is False

    def test_exclusivity_consumes_slot(self):
        buffer = make()
        buffer.install(10)
        assert buffer.deliver(10, 2)
        assert not buffer.deliver(10, 2)  # already delivered to the CPU

    def test_fully_consumed_entry_dropped(self):
        buffer = make()
        buffer.install(10)
        for slot in range(4):
            assert buffer.deliver(10, slot)
        assert 10 not in buffer.entries

    def test_unconsumed_slot_count(self):
        buffer = make()
        buffer.install(10, consumed_slots=(0,))
        assert buffer.unconsumed_slot_count(10) == 3
        assert buffer.unconsumed_slot_count(999) == 0


class TestTake:
    def test_take_removes_for_transition(self):
        buffer = make()
        buffer.install(10)
        assert buffer.take(10)
        assert 10 not in buffer.entries

    def test_take_absent_returns_false(self):
        assert make().take(10) is False


class TestCapacitySemantics:
    def test_paper_capacity_is_64_xplines(self):
        buffer = ReadBuffer(kib(16))
        assert buffer.capacity_lines == 64

    def test_resident_order_is_fifo(self):
        buffer = make(capacity_xplines=3)
        for xpline in (7, 5, 9):
            buffer.install(xpline)
        assert buffer.resident_xplines() == [7, 5, 9]

    def test_clear(self):
        buffer = make()
        buffer.install(1)
        buffer.clear()
        assert len(buffer) == 0


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.sampled_from(["install", "deliver", "take"]),
                  st.integers(0, 20), st.integers(0, 3)),
        max_size=200,
    )
)
def test_never_exceeds_capacity(operations):
    buffer = ReadBuffer(4 * 256)
    for op, xpline, slot in operations:
        if op == "install":
            buffer.install(xpline, consumed_slots=(slot,))
        elif op == "deliver":
            buffer.deliver(xpline, slot)
        else:
            buffer.take(xpline)
        assert len(buffer) <= buffer.capacity_lines


@settings(max_examples=50)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=100))
def test_installed_line_servable_until_consumed_or_evicted(xplines):
    buffer = ReadBuffer(8 * 256)
    for xpline in xplines:
        buffer.install(xpline)
        # The just-installed line is always fully servable.
        assert all(servable(buffer, xpline, slot) for slot in range(4))
