"""Tests for the 3D-XPoint media, the DRAM device and the AIT cache."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import kib, mib
from repro.dimm.config import DramDimmConfig
from repro.dimm.dram import DramDimm
from repro.media import ait, xpoint
from repro.media.ait import AitCache, AitConfig
from repro.media.xpoint import XPointMedia
from repro.stats.counters import TelemetryCounters


@pytest.fixture
def no_ait_penalty(monkeypatch):
    """Media service times without the AIT-miss charge."""
    monkeypatch.setattr(ait, "MISS_PENALTY", 0.0)


class TestAitCache:
    def make(self, coverage=kib(16), granule=kib(4)):
        counters = TelemetryCounters()
        return AitCache(AitConfig(coverage, granule), counters), counters

    def test_first_access_misses(self):
        ait, counters = self.make()
        assert ait.lookup_penalty(0) == 200.0
        assert counters.ait_misses == 1

    def test_second_access_hits(self):
        ait, counters = self.make()
        ait.lookup_penalty(0)
        assert ait.lookup_penalty(100) == 0.0  # same 4 KB granule
        assert counters.ait_hits == 1

    def test_lru_eviction_at_coverage(self):
        ait, _ = self.make(coverage=kib(8), granule=kib(4))  # 2 entries
        ait.lookup_penalty(0 * kib(4))
        ait.lookup_penalty(1 * kib(4))
        ait.lookup_penalty(2 * kib(4))  # evicts granule 0
        assert ait.lookup_penalty(0 * kib(4)) > 0

    def test_lru_refresh_on_hit(self):
        ait, _ = self.make(coverage=kib(8), granule=kib(4))
        ait.lookup_penalty(0)
        ait.lookup_penalty(kib(4))
        ait.lookup_penalty(0)  # refresh granule 0
        ait.lookup_penalty(kib(8))  # evicts granule 1, not 0
        assert ait.lookup_penalty(0) == 0.0

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            AitConfig(coverage_bytes=0).validate()
        with pytest.raises(ConfigError):
            AitConfig(coverage_bytes=kib(6), granule_bytes=kib(4)).validate()

    def test_default_coverage_is_16mb(self):
        assert AitConfig().coverage_bytes == mib(16)

    def test_reset(self):
        ait, _ = self.make()
        ait.lookup_penalty(0)
        ait.reset()
        assert ait.resident_granules == 0


class TestXPointMedia:
    def make(self, config=None):
        counters = TelemetryCounters()
        return XPointMedia(config or AitConfig(), counters), counters

    def test_read_counts_full_xpline(self):
        media, counters = self.make()
        media.read_xpline(0.0, 100)
        assert counters.media_read_bytes == 256

    def test_write_counts_full_xpline(self):
        media, counters = self.make()
        media.write_xpline(0.0, 100)
        assert counters.media_write_bytes == 256

    @pytest.mark.usefixtures("no_ait_penalty")
    def test_rmw_write_longer_and_counts_read(self):
        media, counters = self.make()
        plain = media.write_xpline(0.0, 0)
        media2, counters2 = self.make()
        rmw = media2.write_xpline(0.0, 0, rmw=True)
        assert rmw.finish - rmw.start > plain.finish - plain.start
        assert counters2.media_read_bytes == 256

    @pytest.mark.usefixtures("no_ait_penalty")
    def test_limited_write_concurrency(self):
        media, _ = self.make()
        first = media.write_xpline(0.0, 0)
        second = media.write_xpline(0.0, 4096)
        assert xpoint.WRITE_PORTS == 1
        assert second.start >= first.finish

    @pytest.mark.usefixtures("no_ait_penalty")
    def test_read_parallelism(self):
        media, _ = self.make()
        grants = [media.read_xpline(0.0, i * 4096) for i in range(xpoint.READ_PORTS)]
        assert all(g.start == 0.0 for g in grants)

    def test_ait_miss_inflates_read(self, monkeypatch):
        monkeypatch.setattr(ait, "MISS_PENALTY", 500.0)
        media, _ = self.make()
        cold = media.read_xpline(0.0, 0)
        warm = media.read_xpline(cold.finish, 64)
        assert (cold.finish - cold.start) - (warm.finish - warm.start) == 500.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            self.make(AitConfig(coverage_bytes=0))
        with pytest.raises(ConfigError):
            self.make(AitConfig(coverage_bytes=kib(6), granule_bytes=kib(4)))


class TestDramMedia:
    """The DRAM device is its own media: 64 B accesses, no buffering."""

    def make(self, **overrides):
        counters = TelemetryCounters()
        return DramDimm(DramDimmConfig(**overrides), counters), counters

    def test_read_counts_cacheline(self):
        dimm, counters = self.make()
        dimm.read_line(0.0, 0)
        assert counters.media_read_bytes == 64

    def test_write_counts_cacheline(self):
        dimm, counters = self.make()
        dimm.ingest_write(0.0, 0)
        assert counters.media_write_bytes == 64

    def test_symmetric_latency_by_default(self):
        config = DramDimmConfig()
        assert config.read_latency == config.write_latency

    def test_faster_than_xpoint(self):
        assert DramDimmConfig().read_latency < xpoint.READ_LATENCY

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            DramDimmConfig(read_latency=-1).validate()
        with pytest.raises(ConfigError):
            self.make(persist_drain_latency=-1)
