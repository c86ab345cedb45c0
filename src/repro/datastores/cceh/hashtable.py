"""Cacheline-Conscious Extendible Hashing on simulated PM (Section 4.1).

A faithful-enough CCEH [21]: a global directory of segment pointers
(2^global_depth entries), 16 KB segments of 256 cacheline buckets,
linear probing over four adjacent buckets, lazy segment splits with
per-segment local depths, and directory doubling.

Every operation issues the memory traffic the real structure would:
key insertion performs the paper's three random reads — directory
entry, segment metadata, bucket(s) — followed by a 16-byte store and a
persistence barrier (clwb + fence, as CCEH does).  Operations mark the
Table-1 phases on the ``phase_label`` of a core that has one
(:class:`~repro.core.analysis.InstrumentedCore`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.constants import CACHELINE_SIZE, XPLINE_SIZE
from repro.common.errors import DataStoreError, KeyNotFoundError
from repro.datastores.base import CoreLike
from repro.datastores.cceh.segment import (
    BUCKET_SLOTS,
    PAIR_SIZE,
    PROBE_DISTANCE,
    SEGMENT_BUCKETS,
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


@dataclass
class CcehStats:
    """Operation counters for experiments and tests."""

    inserts: int = 0
    updates: int = 0
    removes: int = 0
    segment_splits: int = 0
    directory_doublings: int = 0


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
    #
    # Each operation is written out in one frame: the directory index
    # (the top ``global_depth`` hash bits), the home bucket (hash bits
    # 8-15), the probe window (``PROBE_DISTANCE`` buckets from home,
    # wrapping within the segment) and the bucket and slot addresses
    # are computed in place.  A core that attributes cycles to phases
    # (``InstrumentedCore``) has a ``phase_label``; marking a phase on
    # any other core costs one test of a local flag.
    #
    # Without a core (population) an operation changes only the
    # structure: the same probe, placement and split code runs, and
    # every load, store, flush, fence, tick and phase mark sits behind
    # one test of the local ``timed``.  Each stored pair carries its
    # hash as ``(key, value, hashed)``, so a split never rehashes.

    def insert(self, key: int, value: int, core: CoreLike | None = None) -> None:
        """Insert or update ``key``; with a core, issues CCEH's full memory traffic."""
        hashed = fnv1a_64(key)
        timed = core is not None
        phased = timed and hasattr(core, "phase_label")
        if timed:
            load, tick = core.load, core.tick
            if phased:
                outer = core.phase_label
        try:
            if timed:
                tick(_HASH_COST)
            home = (hashed >> _BUCKET_SHIFT) & _BUCKET_MASK
            while True:
                dir_index = hashed >> (_HASH_BITS - self.global_depth)
                segment = self._directory[dir_index]
                buckets = segment.buckets
                first_bucket = segment.base_addr + CACHELINE_SIZE
                if timed:
                    # The directory entry carries the segment pointer and
                    # its local depth (as in CCEH); it is small, hot, and
                    # caches well.  The first touch of the segment —
                    # "accessing segment metadata" in the paper's Table 1
                    # — is the expensive random read straight from the
                    # 3D-XPoint media; further probes enjoy on-DIMM
                    # read-buffer locality.
                    if phased:
                        core.phase_label = "directory"
                    load(self._directory_addr + dir_index * 8, 8)
                    if phased:
                        core.phase_label = "segment"
                target_bucket = target_slot = -1
                is_update = False
                for step in range(PROBE_DISTANCE):
                    bucket_index = (home + step) % SEGMENT_BUCKETS
                    bucket = buckets[bucket_index]
                    if timed:
                        load(first_bucket + bucket_index * CACHELINE_SIZE, 8)
                        if phased:
                            core.phase_label = "bucket"
                    for slot, pair in enumerate(bucket):
                        if timed:
                            tick(_COMPARE_COST)
                        if pair[0] == key:
                            target_bucket, target_slot = bucket_index, slot
                            is_update = True
                            break
                    if is_update:
                        break
                    if len(bucket) < BUCKET_SLOTS:
                        target_bucket = bucket_index
                        target_slot = len(bucket)
                        break
                if target_bucket >= 0:
                    break
                if phased:
                    core.phase_label = "split"
                self._split(segment, core)
            bucket = buckets[target_bucket]
            if is_update:
                bucket[target_slot] = (key, value, hashed)
                self.stats.updates += 1
            else:
                bucket.append((key, value, hashed))
                self.stats.inserts += 1
            if timed:
                if phased:
                    core.phase_label = "persist"
                bucket_addr = first_bucket + target_bucket * CACHELINE_SIZE
                core.store(bucket_addr + target_slot * PAIR_SIZE, PAIR_SIZE)
                core.clwb(bucket_addr)
                core.fence(self._fence)
        finally:
            if phased:
                core.phase_label = outer

    def get(self, key: int, core: CoreLike | None = None) -> int:
        """Look up ``key``; raises KeyNotFoundError when absent."""
        hashed = fnv1a_64(key)
        timed = core is not None
        phased = timed and hasattr(core, "phase_label")
        if timed:
            load, tick = core.load, core.tick
            if phased:
                outer = core.phase_label
        try:
            dir_index = hashed >> (_HASH_BITS - self.global_depth)
            segment = self._directory[dir_index]
            buckets = segment.buckets
            first_bucket = segment.base_addr + CACHELINE_SIZE
            home = (hashed >> _BUCKET_SHIFT) & _BUCKET_MASK
            if timed:
                tick(_HASH_COST)
                if phased:
                    core.phase_label = "directory"
                load(self._directory_addr + dir_index * 8, 8)
                if phased:
                    core.phase_label = "segment"
            for step in range(PROBE_DISTANCE):
                bucket_index = (home + step) % SEGMENT_BUCKETS
                if timed:
                    load(first_bucket + bucket_index * CACHELINE_SIZE, 8)
                    if phased:
                        core.phase_label = "bucket"
                for existing_key, value, _ in buckets[bucket_index]:
                    if timed:
                        tick(_COMPARE_COST)
                    if existing_key == key:
                        return value
            raise KeyNotFoundError(key)
        finally:
            if phased:
                core.phase_label = outer

    def contains(self, key: int, core: CoreLike | None = None) -> bool:
        """Membership test (lookup that swallows the miss)."""
        try:
            self.get(key, core)
            return True
        except KeyNotFoundError:
            return False

    def remove(self, key: int, core: CoreLike | None = None) -> None:
        """Delete ``key``; raises KeyNotFoundError when absent."""
        hashed = fnv1a_64(key)
        timed = core is not None
        if timed:
            load, tick = core.load, core.tick
            tick(_HASH_COST)
        dir_index = hashed >> (_HASH_BITS - self.global_depth)
        segment = self._directory[dir_index]
        first_bucket = segment.base_addr + CACHELINE_SIZE
        home = (hashed >> _BUCKET_SHIFT) & _BUCKET_MASK
        if timed:
            load(self._directory_addr + dir_index * 8, 8)
        for step in range(PROBE_DISTANCE):
            bucket_index = (home + step) % SEGMENT_BUCKETS
            bucket_addr = first_bucket + bucket_index * CACHELINE_SIZE
            if timed:
                load(bucket_addr, 8)
            bucket = segment.buckets[bucket_index]
            for slot, pair in enumerate(bucket):
                if timed:
                    tick(_COMPARE_COST)
                if pair[0] == key:
                    bucket.pop(slot)
                    if timed:
                        core.store(bucket_addr + slot * PAIR_SIZE, PAIR_SIZE)
                        core.clwb(bucket_addr)
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
        dir_index = hashed >> (_HASH_BITS - self.global_depth)
        core.load(self._directory_addr + dir_index * 8, 8)
        segment = self._directory[dir_index]
        home = (hashed >> _BUCKET_SHIFT) & _BUCKET_MASK
        core.load(segment.base_addr + CACHELINE_SIZE + home * CACHELINE_SIZE, 8)

    # -- resizing -------------------------------------------------------------------

    def _split(self, segment: Segment, core: CoreLike | None) -> None:
        """Split ``segment``; doubles the directory when depths collide."""
        if segment.local_depth == self.global_depth:
            self._double_directory(core)
        self.stats.segment_splits += 1
        new_depth = segment.local_depth + 1
        sibling = self._new_segment(depth=new_depth)
        segment.local_depth = new_depth
        timed = core is not None
        if timed:
            load, store, tick = core.load, core.store, core.tick
        first_bucket = segment.base_addr + CACHELINE_SIZE
        sibling_buckets = sibling.buckets
        sibling_first = sibling.base_addr + CACHELINE_SIZE

        # Redistribute pairs whose next depth bit is 1.
        discriminant = _HASH_BITS - new_depth
        for bucket_index, bucket in enumerate(segment.buckets):
            if not bucket:
                continue
            if timed:
                load(first_bucket + bucket_index * CACHELINE_SIZE, 8)
            keep: list[tuple[int, int, int]] = []
            for pair in bucket:
                hashed = pair[2]
                if timed:
                    tick(_COMPARE_COST)
                if (hashed >> discriminant) & 1:
                    home = (hashed >> _BUCKET_SHIFT) & _BUCKET_MASK
                    for step in range(PROBE_DISTANCE):
                        candidate = (home + step) % SEGMENT_BUCKETS
                        moved_to = sibling_buckets[candidate]
                        if len(moved_to) < BUCKET_SLOTS:
                            moved_to.append(pair)
                            if timed:
                                store(
                                    sibling_first + candidate * CACHELINE_SIZE
                                    + (len(moved_to) - 1) * PAIR_SIZE,
                                    PAIR_SIZE,
                                )
                            break
                    else:
                        # Extremely unlikely; keep in place rather than
                        # recursing mid-split.
                        keep.append(pair)
                else:
                    keep.append(pair)
            segment.buckets[bucket_index] = keep
        if timed:
            # Persist the sibling wholesale (streaming flush).
            core.clwb(sibling.base_addr, SEGMENT_BYTES)
            core.fence(self._fence)

        # Repoint the directory entries that now map to the sibling.
        directory = self._directory
        prefix_bits = self.global_depth - new_depth
        for dir_index in range(len(directory)):
            if directory[dir_index] is segment:
                local_prefix = dir_index >> prefix_bits if prefix_bits >= 0 else dir_index
                if local_prefix & 1:
                    directory[dir_index] = sibling
                    if timed:
                        entry_addr = self._directory_addr + dir_index * 8
                        store(entry_addr, 8)
                        core.clwb(entry_addr)
        if timed:
            core.fence(self._fence)

    def _double_directory(self, core: CoreLike | None) -> None:
        self.stats.directory_doublings += 1
        old = self._directory
        self.global_depth += 1
        new_addr = self._allocator.alloc(len(old) * 2 * 8, align=CACHELINE_SIZE)
        self._directory = [old[index // 2] for index in range(len(old) * 2)]
        if core is not None:
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
