"""Tests for access patterns, zipfian generators and the YCSB engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.common.units import kib
from repro.workloads.patterns import (
    circular_chain,
    partial_write_addresses,
    random_block_sequence,
    strided_read_addresses,
)
from repro.workloads.ycsb import (
    STANDARD_WORKLOADS,
    OpType,
    WorkloadSpec,
    YcsbConfig,
    YcsbWorkload,
    insert_only_stream,
)
from repro.workloads.zipf import (
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    fnv1a_64,
    perfect_skew_check,
)


class TestStridedRead:
    def test_one_pass_per_cacheline(self):
        addrs = list(strided_read_addresses(0, 1024, 2))
        assert len(addrs) == 2 * 4  # 4 XPLines, 2 passes

    def test_pass_structure(self):
        addrs = list(strided_read_addresses(0, 512, 2))
        assert addrs == [0, 256, 64, 320]

    def test_base_offset_applied(self):
        addrs = list(strided_read_addresses(1 << 20, 512, 1))
        assert all(addr >= 1 << 20 for addr in addrs)

    def test_invalid_cpx(self):
        with pytest.raises(ConfigError):
            list(strided_read_addresses(0, 1024, 5))

    def test_tiny_wss_rejected(self):
        with pytest.raises(ConfigError):
            list(strided_read_addresses(0, 128, 1))


class TestPartialWrite:
    def test_sequential_order(self):
        addrs = list(partial_write_addresses(0, 512, 2))
        assert addrs == [0, 64, 256, 320]

    def test_random_order_is_permutation_of_sequential(self):
        seq = list(partial_write_addresses(0, kib(4), 3))
        rnd = list(partial_write_addresses(0, kib(4), 3, DeterministicRng(5)))
        assert sorted(seq) == sorted(rnd)
        assert seq != rnd

    def test_written_lines_bounded(self):
        with pytest.raises(ConfigError):
            list(partial_write_addresses(0, 1024, 0))


class TestRandomBlocks:
    def test_alignment_and_range(self):
        rng = DeterministicRng(1)
        for addr in random_block_sequence(1024, kib(4), 100, rng):
            assert addr % 256 == 0
            assert 1024 <= addr < 1024 + kib(4)

    def test_count(self):
        rng = DeterministicRng(1)
        assert len(list(random_block_sequence(0, kib(4), 57, rng))) == 57


class TestCircularChain:
    def test_sequential_chain(self):
        assert circular_chain(4, sequential=True) == [1, 2, 3, 0]

    def test_random_needs_rng(self):
        with pytest.raises(ConfigError):
            circular_chain(4, sequential=False)

    @given(st.integers(min_value=1, max_value=300), st.integers(0, 5))
    @settings(max_examples=40)
    def test_random_chain_is_hamiltonian_cycle(self, count, seed):
        chain = circular_chain(count, sequential=False, rng=DeterministicRng(seed))
        cursor, seen = 0, set()
        for _ in range(count):
            assert cursor not in seen
            seen.add(cursor)
            cursor = chain[cursor]
        assert cursor == 0
        assert len(seen) == count


class TestZipf:
    def test_bounds(self):
        gen = ZipfianGenerator(1000, DeterministicRng(1))
        assert all(0 <= gen.next() < 1000 for _ in range(2000))

    def test_skew_toward_head(self):
        gen = ZipfianGenerator(10_000, DeterministicRng(1))
        samples = [gen.next() for _ in range(5000)]
        assert perfect_skew_check(samples, 10_000) > 0.3

    def test_uniform_not_skewed(self):
        gen = UniformGenerator(10_000, DeterministicRng(1))
        samples = [gen.next() for _ in range(5000)]
        assert perfect_skew_check(samples, 10_000) < 0.05

    def test_scrambled_spreads_hot_keys(self):
        gen = ScrambledZipfianGenerator(10_000, DeterministicRng(1))
        samples = [gen.next() for _ in range(5000)]
        # Scrambling moves the hot ranks away from the low end...
        assert perfect_skew_check(samples, 10_000) < 0.3
        # ...but the distribution stays skewed: few keys dominate.
        from collections import Counter

        top = Counter(samples).most_common(10)
        assert sum(count for _, count in top) > 500

    def test_determinism(self):
        a = ZipfianGenerator(1000, DeterministicRng(7))
        b = ZipfianGenerator(1000, DeterministicRng(7))
        assert [a.next() for _ in range(50)] == [b.next() for _ in range(50)]

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            ZipfianGenerator(0, DeterministicRng(1))
        with pytest.raises(ConfigError):
            ZipfianGenerator(10, DeterministicRng(1), theta=1.5)

    def test_fnv_is_deterministic_and_64bit(self):
        assert fnv1a_64(12345) == fnv1a_64(12345)
        assert 0 <= fnv1a_64(12345) < 2**64
        assert fnv1a_64(1) != fnv1a_64(2)

    def test_fnv_matches_the_byte_loop(self):
        def looped(value):
            data = value & 0xFFFFFFFFFFFFFFFF
            result = 0xCBF29CE484222325
            for _ in range(8):
                result ^= data & 0xFF
                data >>= 8
                result = (result * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            return result

        rng = random.Random(19)
        values = [0, -1, 2**64 - 1, 2**64, -(2**63), 2**200 + 7]
        while len(values) < 100_000:
            bits = rng.choice((8, 32, 62, 64, 65, 100))
            value = rng.getrandbits(bits)
            values.append(-value if rng.random() < 0.25 else value)
        assert [fnv1a_64(value) for value in values] == [looped(value) for value in values]

    def test_large_keyspace_constructs_fast(self):
        gen = ZipfianGenerator(16_000_000, DeterministicRng(1))
        assert 0 <= gen.next() < 16_000_000


class TestYcsb:
    def test_standard_workloads_valid(self):
        for spec in STANDARD_WORKLOADS.values():
            spec.validate()

    def test_bad_mix_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadSpec("bad", read=0.5).validate()

    def test_load_phase_covers_keyspace(self):
        workload = YcsbWorkload(YcsbConfig(record_count=100, operation_count=0))
        keys = [op.key for op in workload.load_phase()]
        assert keys == list(range(100))
        assert all(op.op is OpType.INSERT for op in workload.load_phase())

    def test_run_phase_counts(self):
        workload = YcsbWorkload(YcsbConfig(record_count=100, operation_count=500))
        ops = list(workload.run_phase())
        assert len(ops) == 500

    def test_workload_a_mix(self):
        config = YcsbConfig(record_count=1000, operation_count=4000)
        workload = YcsbWorkload(config)
        ops = list(workload.run_phase())
        reads = sum(1 for op in ops if op.op is OpType.READ)
        updates = sum(1 for op in ops if op.op is OpType.UPDATE)
        assert 0.4 < reads / len(ops) < 0.6
        assert 0.4 < updates / len(ops) < 0.6

    def test_workload_c_read_only(self):
        config = YcsbConfig(
            record_count=100, operation_count=200, spec=STANDARD_WORKLOADS["C"]
        )
        ops = list(YcsbWorkload(config).run_phase())
        assert all(op.op is OpType.READ for op in ops)

    def test_workload_d_inserts_extend_keyspace(self):
        config = YcsbConfig(
            record_count=100, operation_count=1000, spec=STANDARD_WORKLOADS["D"]
        )
        ops = list(YcsbWorkload(config).run_phase())
        inserts = [op for op in ops if op.op is OpType.INSERT]
        assert inserts
        assert max(op.key for op in inserts) >= 100

    def test_workload_e_scan_lengths(self):
        config = YcsbConfig(
            record_count=100, operation_count=500, spec=STANDARD_WORKLOADS["E"]
        )
        ops = list(YcsbWorkload(config).run_phase())
        scans = [op for op in ops if op.op is OpType.SCAN]
        assert scans
        assert all(1 <= op.scan_length <= 100 for op in scans)

    def test_keys_within_inserted_range(self):
        config = YcsbConfig(record_count=50, operation_count=500)
        ops = list(YcsbWorkload(config).run_phase())
        non_inserts = [op for op in ops if op.op is not OpType.INSERT]
        assert all(op.key < 50 for op in non_inserts)

    def test_determinism(self):
        config = YcsbConfig(record_count=100, operation_count=100, seed=9)
        a = [(op.op, op.key) for op in YcsbWorkload(config).run_phase()]
        b = [(op.op, op.key) for op in YcsbWorkload(config).run_phase()]
        assert a == b

    def test_insert_only_stream(self):
        keys = insert_only_stream(1000, seed=4)
        assert sorted(keys) == list(range(1000))
        assert keys != list(range(1000))  # shuffled

    def test_insert_only_stream_unshuffled(self):
        assert insert_only_stream(10, shuffled=False) == list(range(10))
