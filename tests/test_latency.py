"""Tests for time breakdowns."""

import math

import pytest

from repro.stats.latency import TimeBreakdown


class TestTimeBreakdown:
    def test_charge_accumulates(self):
        breakdown = TimeBreakdown()
        breakdown.charge("read", 10)
        breakdown.charge("read", 5)
        assert breakdown.cycles("read") == 15

    def test_unknown_bucket_zero(self):
        assert TimeBreakdown().cycles("nothing") == 0.0

    def test_fractions_sum_to_one(self):
        breakdown = TimeBreakdown()
        breakdown.charge("a", 30)
        breakdown.charge("b", 70)
        fractions = breakdown.fractions()
        assert fractions["a"] == pytest.approx(0.3)
        assert math.isclose(sum(fractions.values()), 1.0)

    def test_fractions_of_empty(self):
        assert TimeBreakdown().fractions() == {}

    def test_merged_folds_buckets(self):
        breakdown = TimeBreakdown()
        breakdown.charge("directory", 10)
        breakdown.charge("bucket", 20)
        breakdown.charge("segment", 70)
        merged = breakdown.merged({"directory": "misc", "bucket": "misc"})
        assert merged.cycles("misc") == 30
        assert merged.cycles("segment") == 70

    def test_reset(self):
        breakdown = TimeBreakdown()
        breakdown.charge("a", 1)
        breakdown.reset()
        assert breakdown.total == 0
