"""Time accounting: attribution of cycles across named phases (Table 1)."""

from __future__ import annotations


class TimeBreakdown:
    """Attribution of total time across named phases (paper Table 1).

    The CCEH case study reports what fraction of key-insertion time is
    spent on segment-metadata reads, persists, and everything else.
    Components charge cycles to named buckets; :meth:`fractions`
    normalizes.
    """

    def __init__(self) -> None:
        self._cycles: dict[str, float] = {}

    def charge(self, bucket: str, cycles: float) -> None:
        """Add ``cycles`` to ``bucket``."""
        self._cycles[bucket] = self._cycles.get(bucket, 0.0) + cycles

    @property
    def total(self) -> float:
        """Sum over all buckets."""
        return sum(self._cycles.values())

    def cycles(self, bucket: str) -> float:
        """Cycles charged to one bucket (0 if never charged)."""
        return self._cycles.get(bucket, 0.0)

    def fractions(self) -> dict[str, float]:
        """Bucket shares of the total, each in [0, 1]."""
        total = self.total
        if total == 0:
            return {name: 0.0 for name in self._cycles}
        return {name: value / total for name, value in self._cycles.items()}

    def merged(self, mapping: dict[str, str]) -> "TimeBreakdown":
        """Return a new breakdown with buckets renamed/merged via ``mapping``.

        Buckets absent from ``mapping`` keep their names.  Used to fold
        fine-grained instrumentation buckets into the paper's three
        Table-1 columns.
        """
        out = TimeBreakdown()
        for name, value in self._cycles.items():
            out.charge(mapping.get(name, name), value)
        return out

    def reset(self) -> None:
        """Zero all buckets."""
        self._cycles.clear()
