"""CCEH segments: 16 KB arrays of cacheline-sized buckets.

Layout follows the paper's Figure 9: each segment holds 256 buckets of
64 bytes plus segment metadata.  We give the metadata its own leading
cacheline so buckets stay cacheline-aligned.  A bucket stores four
16-byte key-value pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.constants import CACHELINE_SIZE

#: Buckets per segment (paper: 256 cacheline-sized buckets).
SEGMENT_BUCKETS = 256
#: 16-byte pairs per 64-byte bucket.
BUCKET_SLOTS = 4
#: Bytes of one key-value pair.
PAIR_SIZE = 16
#: One metadata cacheline + the bucket array.
SEGMENT_BYTES = CACHELINE_SIZE + SEGMENT_BUCKETS * CACHELINE_SIZE
#: Linear-probing window (paper: up to four adjacent buckets).
PROBE_DISTANCE = 4


@dataclass
class Segment:
    """One CCEH segment: metadata + 256 buckets of 4 slots each."""

    base_addr: int
    local_depth: int
    #: buckets[i] is a list of (key, value, hash of key) pairs,
    #: len <= BUCKET_SLOTS; the stored hash spares a split from rehashing.
    buckets: list[list[tuple[int, int, int]]] = field(
        default_factory=lambda: [[] for _ in range(SEGMENT_BUCKETS)]
    )

    def pair_count(self) -> int:
        """Number of stored pairs (for load-factor accounting)."""
        return sum(len(bucket) for bucket in self.buckets)

    @property
    def load_factor(self) -> float:
        """Occupied fraction of the segment's slots."""
        return self.pair_count() / (SEGMENT_BUCKETS * BUCKET_SLOTS)
