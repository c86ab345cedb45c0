"""Property-based tests: on-DIMM buffer invariants under random streams.

Hypothesis drives the buffers (and the full DIMM front-end) with
arbitrary access streams and checks the invariants the paper's
figures rest on:

* Read buffer — FIFO eviction order (hits never refresh position),
  occupancy bounded by capacity, and RA >= 1 on the DIMM (CPU-cache
  exclusivity means every delivered byte was fetched from the media
  as part of a 256 B XPLine read, so media bytes >= iMC bytes).
* Write buffer — occupancy never exceeds capacity, and the amount of
  media work is independent of the order XPLines are visited in
  (generalizing ``test_wa_independent_of_access_order`` from the
  kernel level down to the buffer contract).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.read_buffer import ReadBuffer
from repro.buffers.write_buffer import WriteBuffer
from repro.common.constants import CACHELINE_SIZE, XPLINE_SIZE
from repro.common.rng import DeterministicRng
from repro.dimm.config import OptaneDimmConfig
from repro.dimm.optane import OptaneDimm
from repro.stats.counters import TelemetryCounters

#: A read-buffer access: install or deliver one (xpline, slot) pair
#: drawn from a small id space so streams collide with the capacity.
_RBUF_OPS = st.lists(
    st.tuples(
        st.sampled_from(["install", "deliver"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=120,
)


class TestReadBufferProperties:
    @settings(max_examples=60, deadline=None)
    @given(_RBUF_OPS, st.integers(min_value=1, max_value=6))
    def test_fifo_eviction_order_and_capacity(self, ops, capacity_lines):
        """Evictions always pick the oldest-installed resident line.

        A shadow FIFO model tracks install order; hits must never
        refresh a line's position (that would be LRU, and would erase
        the sharp capacity step of Figure 2).
        """
        buffer = ReadBuffer(capacity_lines * XPLINE_SIZE)
        model: list[int] = []  # resident xplines, oldest first
        for kind, xpline, slot in ops:
            if kind == "install":
                evicted = buffer.install(xpline, consumed_slots=(slot,))
                if xpline not in model:
                    model.append(xpline)
                if evicted is not None:
                    assert evicted == model.pop(0)
            else:
                buffer.deliver(xpline, slot)
                # A fully consumed entry is dropped, not evicted.
                if xpline not in buffer.entries and xpline in model:
                    model.remove(xpline)
            assert len(buffer) <= capacity_lines
            assert buffer.resident_xplines() == model

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=511), min_size=1, max_size=150))
    def test_read_amplification_at_least_one(self, line_offsets):
        """RA >= 1 on the DIMM for *any* read stream (exclusivity).

        Every iMC read is served either by a fresh 256 B media fetch or
        by a buffered slot that a previous fetch paid for and that is
        consumed on delivery — so media read bytes can never fall below
        iMC read bytes, whatever the access pattern.
        """
        counters = TelemetryCounters()
        dimm = OptaneDimm(OptaneDimmConfig.g1(), counters, DeterministicRng(7))
        now = 0.0
        for offset in line_offsets:
            now, _ = dimm.read_line(now, offset * CACHELINE_SIZE)
        assert counters.imc_read_bytes == len(line_offsets) * CACHELINE_SIZE
        assert counters.media_read_bytes >= counters.imc_read_bytes


class TestWriteBufferProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=120,
        ),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_occupancy_never_exceeds_capacity(self, writes, capacity_lines, seed):
        buffer = WriteBuffer(
            capacity_lines * XPLINE_SIZE, rng=DeterministicRng(seed)
        )
        now = 0.0
        for xpline, slot in writes:
            buffer.write(now, xpline, slot)
            now += 1.0
            assert len(buffer) <= capacity_lines
            assert len(buffer.resident_xplines()) == len(buffer)

    @settings(max_examples=40, deadline=None)
    @given(
        st.permutations(list(range(12))),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_media_work_independent_of_visit_order(self, order, capacity_lines, seed):
        """Total write-backs depend only on the footprint, not the order.

        Writing one slot in each of N distinct XPLines overflows the
        buffer max(0, N - capacity) times during the run, and draining
        flushes the rest — N write-backs in total, every one a partial
        line needing an underfill read, for *every* visit order and
        eviction seed.  This is the buffer-level contract behind
        Figure 3's order-insensitive write amplification.
        """
        buffer = WriteBuffer(
            capacity_lines * XPLINE_SIZE,
            rng=DeterministicRng(seed),
            periodic_writeback=False,
        )
        evictions = []
        for position, xpline in enumerate(order):
            assert xpline not in buffer.entries  # each XPLine visited exactly once
            evictions.extend(buffer.write(float(position), xpline, slot=0))
        drained = buffer.drain_all()
        assert len(evictions) == max(0, len(order) - capacity_lines)
        assert len(evictions) + len(drained) == len(order)
        assert all(wb.needs_underfill_read for wb in list(evictions) + list(drained))

    @settings(max_examples=30, deadline=None)
    @given(
        st.permutations(list(range(10))),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_full_line_writes_never_need_underfill(self, order, seed):
        """Fully written XPLines evict as pure 256 B media writes."""
        buffer = WriteBuffer(
            4 * XPLINE_SIZE, rng=DeterministicRng(seed), periodic_writeback=False
        )
        writebacks = []
        now = 0.0
        for xpline in order:
            for slot in range(4):
                writebacks.extend(buffer.write(now, xpline, slot))
                now += 1.0
        writebacks.extend(buffer.drain_all())
        assert len(writebacks) == len(order)
        assert not any(wb.needs_underfill_read for wb in writebacks)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=100,
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_same_seed_same_stream_is_deterministic(self, writes, seed):
        """Random eviction is reproducible: the seed fixes the victims."""
        def run():
            buffer = WriteBuffer(3 * XPLINE_SIZE, rng=DeterministicRng(seed))
            out = []
            for position, (xpline, slot) in enumerate(writes):
                out.extend(buffer.write(float(position), xpline, slot))
            out.extend(buffer.drain_all())
            return out

        assert run() == run()
