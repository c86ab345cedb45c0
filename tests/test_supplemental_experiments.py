"""Tests for the supplemental experiment modules (scaled down)."""

import pytest

from repro.experiments.bandwidth import measure_bandwidth, run as run_bandwidth
from repro.experiments.interleaving import run as run_interleaving
from repro.experiments.lock_handover import run as run_lock


class TestBandwidth:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            measure_bandwidth(1, "teleport", threads=1, ops_per_thread=2)

    def test_seq_read_scales_with_threads(self):
        one = measure_bandwidth(1, "seq-read", threads=1, ops_per_thread=600)
        four = measure_bandwidth(1, "seq-read", threads=4, ops_per_thread=600)
        assert four > 2 * one

    def test_write_does_not_scale(self):
        one = measure_bandwidth(1, "nt-write", threads=1, ops_per_thread=600)
        four = measure_bandwidth(1, "nt-write", threads=4, ops_per_thread=600)
        assert four < 1.5 * one

    def test_random_read_below_sequential(self):
        seq = measure_bandwidth(1, "seq-read", threads=4, ops_per_thread=400)
        rand = measure_bandwidth(1, "rand-read", threads=4, ops_per_thread=400)
        assert rand < seq


class TestInterleaving:
    def test_report_shape(self):
        report = run_interleaving(1, "fast")[0]
        latency = report.get("random read latency (cycles)")
        bw = report.get("nt-store bandwidth (GB/s, 8 threads)")
        assert latency[0] == pytest.approx(latency[1], rel=0.1)
        assert bw[1] > 2 * bw[0]


class TestLockHandover:
    def test_report_shape(self):
        report = run_lock(1, "fast")[0]
        assert report.value("G1", "pm") > 3 * report.value("G2", "pm")
        assert report.value("G1", "pm_remote") > report.value("G1", "pm")
