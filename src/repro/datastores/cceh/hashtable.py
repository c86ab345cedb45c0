"""Cacheline-Conscious Extendible Hashing on simulated PM (Section 4.1).

A faithful-enough CCEH [21]: a global directory of segment pointers
(2^global_depth entries), 16 KB segments of 256 cacheline buckets,
linear probing over four adjacent buckets, lazy segment splits with
per-segment local depths, and directory doubling.

Every operation issues the memory traffic the real structure would:
key insertion performs the paper's three random reads — directory
entry, segment metadata, bucket(s) — followed by a 16-byte store and a
persistence barrier (clwb + fence, as CCEH does).  Cores mark the
Table-1 phases via the optional ``phase`` context of
:class:`~repro.core.analysis.InstrumentedCore`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from repro.common.constants import CACHELINE_SIZE, XPLINE_SIZE
from repro.common.errors import DataStoreError, KeyNotFoundError
from repro.datastores.base import CoreLike, NullCore
from repro.datastores.cceh.segment import (
    BUCKET_SLOTS,
    PAIR_SIZE,
    SEGMENT_BYTES,
    Segment,
)
from repro.persist.allocator import RegionAllocator
from repro.workloads.zipf import fnv1a_64

#: Cycles of pure compute per operation: hashing plus the call-chain
#: overhead a perf profile attributes to the operation ("Misc." in the
#: paper's Table 1), and per-slot key comparison cost.
_HASH_COST = 60.0
_COMPARE_COST = 2.0

_HASH_BITS = 64
_BUCKET_SHIFT = 8  # bits used for the in-segment bucket index
_BUCKET_MASK = 0xFF


def _phase(core: CoreLike, label: str):
    enter = getattr(core, "phase", None)
    return enter(label) if enter is not None else nullcontext()


@dataclass
class CcehStats:
    """Operation counters for experiments and tests."""

    inserts: int = 0
    lookups: int = 0
    updates: int = 0
    removes: int = 0
    segment_splits: int = 0
    directory_doublings: int = 0
    probe_steps: int = 0


class CcehHashTable:
    """The CCEH key-value store."""

    def __init__(
        self,
        allocator: RegionAllocator,
        initial_depth: int = 2,
        fence: str = "mfence",
    ) -> None:
        if initial_depth < 1:
            raise DataStoreError("initial directory depth must be >= 1")
        self._allocator = allocator
        self._fence = fence
        self.global_depth = initial_depth
        self.stats = CcehStats()
        self._segments: list[Segment] = []
        self._directory: list[Segment] = [
            self._new_segment(depth=initial_depth) for _ in range(2**initial_depth)
        ]
        self._directory_addr = self._allocator.alloc(
            (2**initial_depth) * 8, align=CACHELINE_SIZE
        )

    # -- layout helpers -------------------------------------------------------

    def _new_segment(self, depth: int) -> Segment:
        base = self._allocator.alloc(SEGMENT_BYTES, align=XPLINE_SIZE)
        segment = Segment(base_addr=base, local_depth=depth)
        self._segments.append(segment)
        return segment

    def _dir_entry_addr(self, index: int) -> int:
        return self._directory_addr + index * 8

    def _dir_index(self, hashed: int) -> int:
        return hashed >> (_HASH_BITS - self.global_depth)

    @staticmethod
    def _bucket_index(hashed: int) -> int:
        return (hashed >> _BUCKET_SHIFT) & _BUCKET_MASK

    @property
    def directory_size(self) -> int:
        """Number of directory entries (2^global_depth)."""
        return len(self._directory)

    @property
    def segment_count(self) -> int:
        """Number of distinct segments mapped by the directory."""
        return len(set(id(segment) for segment in self._directory))

    @property
    def footprint_bytes(self) -> int:
        """PM bytes occupied by segments + directory."""
        return self.segment_count * SEGMENT_BYTES + self.directory_size * 8

    def __len__(self) -> int:
        return self.stats.inserts - self.stats.removes

    # -- operations ----------------------------------------------------------------

    def insert(self, key: int, value: int, core: CoreLike | None = None) -> None:
        """Insert or update ``key``; issues CCEH's full memory traffic."""
        core = core or NullCore()
        hashed = fnv1a_64(key)
        core.tick(_HASH_COST)
        while True:
            with _phase(core, "directory"):
                # The directory entry carries the segment pointer and its
                # local depth (as in CCEH); it is small, hot, and caches well.
                dir_index = self._dir_index(hashed)
                core.load(self._dir_entry_addr(dir_index), 8)
                segment = self._directory[dir_index]
            home = self._bucket_index(hashed)
            target_bucket = -1
            target_slot = -1
            is_update = False
            first_probe = True
            for bucket_index in segment.probe_buckets(home):
                # The first touch of the segment — "accessing segment
                # metadata" in the paper's Table 1 — is the expensive
                # random read straight from the 3D-XPoint media; further
                # probes enjoy on-DIMM read-buffer locality.
                with _phase(core, "segment" if first_probe else "bucket"):
                    core.load(segment.bucket_addr(bucket_index), 8)
                first_probe = False
                self.stats.probe_steps += 1
                bucket = segment.buckets[bucket_index]
                with _phase(core, "bucket"):
                    for slot, (existing_key, _) in enumerate(bucket):
                        core.tick(_COMPARE_COST)
                        if existing_key == key:
                            target_bucket, target_slot = bucket_index, slot
                            is_update = True
                            break
                if is_update:
                    break
                if target_bucket < 0 and len(bucket) < BUCKET_SLOTS:
                    target_bucket = bucket_index
                    target_slot = len(bucket)
                    break
            if target_bucket < 0:
                self._split(segment, core)
                continue
            with _phase(core, "persist"):
                bucket = segment.buckets[target_bucket]
                if is_update:
                    bucket[target_slot] = (key, value)
                    self.stats.updates += 1
                else:
                    bucket.append((key, value))
                    self.stats.inserts += 1
                core.store(segment.slot_addr(target_bucket, target_slot), PAIR_SIZE)
                core.clwb(segment.bucket_addr(target_bucket))
                core.fence(self._fence)
            return

    def get(self, key: int, core: CoreLike | None = None) -> int:
        """Look up ``key``; raises KeyNotFoundError when absent."""
        core = core or NullCore()
        hashed = fnv1a_64(key)
        core.tick(_HASH_COST)
        self.stats.lookups += 1
        with _phase(core, "directory"):
            dir_index = self._dir_index(hashed)
            core.load(self._dir_entry_addr(dir_index), 8)
            segment = self._directory[dir_index]
        home = self._bucket_index(hashed)
        first_probe = True
        for bucket_index in segment.probe_buckets(home):
            with _phase(core, "segment" if first_probe else "bucket"):
                core.load(segment.bucket_addr(bucket_index), 8)
            first_probe = False
            self.stats.probe_steps += 1
            with _phase(core, "bucket"):
                for existing_key, value in segment.buckets[bucket_index]:
                    core.tick(_COMPARE_COST)
                    if existing_key == key:
                        return value
        raise KeyNotFoundError(key)

    def contains(self, key: int, core: CoreLike | None = None) -> bool:
        """Membership test (lookup that swallows the miss)."""
        try:
            self.get(key, core)
            return True
        except KeyNotFoundError:
            return False

    def remove(self, key: int, core: CoreLike | None = None) -> None:
        """Delete ``key``; raises KeyNotFoundError when absent."""
        core = core or NullCore()
        hashed = fnv1a_64(key)
        core.tick(_HASH_COST)
        dir_index = self._dir_index(hashed)
        core.load(self._dir_entry_addr(dir_index), 8)
        segment = self._directory[dir_index]
        home = self._bucket_index(hashed)
        for bucket_index in segment.probe_buckets(home):
            core.load(segment.bucket_addr(bucket_index), 8)
            bucket = segment.buckets[bucket_index]
            for slot, (existing_key, _) in enumerate(bucket):
                core.tick(_COMPARE_COST)
                if existing_key == key:
                    bucket.pop(slot)
                    core.store(segment.slot_addr(bucket_index, slot), PAIR_SIZE)
                    core.clwb(segment.bucket_addr(bucket_index))
                    core.fence(self._fence)
                    self.stats.removes += 1
                    return
        raise KeyNotFoundError(key)

    # -- prefetch trace (helper thread, Section 4.1) ---------------------------------

    def prefetch_trace(self, core: CoreLike, key: int) -> None:
        """The load-only slice of :meth:`insert` for the helper thread.

        Retains exactly the indexing loads — directory entry and the
        segment's home bucket — and the hash computation; all stores,
        probing logic, synchronization and persistence are stripped, as
        in the paper.
        """
        hashed = fnv1a_64(key)
        core.tick(_HASH_COST)
        dir_index = self._dir_index(hashed)
        core.load(self._dir_entry_addr(dir_index), 8)
        segment = self._directory[dir_index]
        core.load(segment.bucket_addr(self._bucket_index(hashed)), 8)

    # -- resizing -------------------------------------------------------------------

    def _split(self, segment: Segment, core: CoreLike) -> None:
        """Split ``segment``; doubles the directory when depths collide."""
        with _phase(core, "split"):
            if segment.local_depth == self.global_depth:
                self._double_directory(core)
            self.stats.segment_splits += 1
            new_depth = segment.local_depth + 1
            sibling = self._new_segment(depth=new_depth)
            segment.local_depth = new_depth

            # Redistribute pairs whose next depth bit is 1.
            discriminant = _HASH_BITS - new_depth
            for bucket_index, bucket in enumerate(segment.buckets):
                if not bucket:
                    continue
                core.load(segment.bucket_addr(bucket_index), 8)
                keep: list[tuple[int, int]] = []
                for key, value in bucket:
                    hashed = fnv1a_64(key)
                    core.tick(_COMPARE_COST)
                    if (hashed >> discriminant) & 1:
                        target = self._bucket_index(hashed)
                        moved = False
                        for candidate in sibling.probe_buckets(target):
                            if len(sibling.buckets[candidate]) < BUCKET_SLOTS:
                                sibling.buckets[candidate].append((key, value))
                                core.store(
                                    sibling.slot_addr(candidate, len(sibling.buckets[candidate]) - 1),
                                    PAIR_SIZE,
                                )
                                moved = True
                                break
                        if not moved:
                            # Extremely unlikely; keep in place rather than
                            # recursing mid-split.
                            keep.append((key, value))
                    else:
                        keep.append((key, value))
                segment.buckets[bucket_index] = keep
            # Persist the sibling wholesale (streaming flush).
            core.clwb(sibling.base_addr, SEGMENT_BYTES)
            core.fence(self._fence)

            # Repoint the directory entries that now map to the sibling.
            prefix_bits = self.global_depth - new_depth
            for dir_index in range(len(self._directory)):
                if self._directory[dir_index] is segment:
                    local_prefix = dir_index >> prefix_bits if prefix_bits >= 0 else dir_index
                    if local_prefix & 1:
                        self._directory[dir_index] = sibling
                        core.store(self._dir_entry_addr(dir_index), 8)
                        core.clwb(self._dir_entry_addr(dir_index))
            core.fence(self._fence)

    def _double_directory(self, core: CoreLike) -> None:
        self.stats.directory_doublings += 1
        old = self._directory
        self.global_depth += 1
        new_addr = self._allocator.alloc(len(old) * 2 * 8, align=CACHELINE_SIZE)
        self._directory = [old[index // 2] for index in range(len(old) * 2)]
        for line_offset in range(0, len(self._directory) * 8, CACHELINE_SIZE):
            core.store(new_addr + line_offset, CACHELINE_SIZE)
            core.clwb(new_addr + line_offset)
        core.fence(self._fence)
        self._allocator.free(self._directory_addr, len(old) * 8)
        self._directory_addr = new_addr

    # -- invariants (tests & crash checks) --------------------------------------------

    def check_invariants(self) -> None:
        """Raise DataStoreError if structural invariants are violated."""
        if len(self._directory) != 2**self.global_depth:
            raise DataStoreError("directory size != 2^global_depth")
        span: dict[int, list[int]] = {}
        for index, segment in enumerate(self._directory):
            if segment.local_depth > self.global_depth:
                raise DataStoreError("local depth exceeds global depth")
            span.setdefault(id(segment), []).append(index)
        for indexes in span.values():
            segment = self._directory[indexes[0]]
            expected = 2 ** (self.global_depth - segment.local_depth)
            if len(indexes) != expected:
                raise DataStoreError(
                    f"segment with depth {segment.local_depth} mapped by "
                    f"{len(indexes)} entries, expected {expected}"
                )
            if indexes != list(range(indexes[0], indexes[0] + expected)):
                raise DataStoreError("segment directory span is not contiguous")
