"""Tests for the ablation configuration knobs."""

import pytest

from repro.buffers.write_buffer import WriteBuffer
from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.dimm.config import OptaneDimmConfig


class TestWriteBufferEviction:
    def test_fifo_evicts_oldest(self):
        buffer = WriteBuffer(
            2 * 256, rng=DeterministicRng(1), periodic_writeback=False, eviction="fifo"
        )
        buffer.write(0.0, 10, 0)
        buffer.write(0.0, 11, 0)
        writebacks = buffer.write(0.0, 12, 0)
        assert writebacks[0].xpline == 10

    def test_unknown_eviction_rejected(self):
        with pytest.raises(ConfigError):
            WriteBuffer(1024, rng=DeterministicRng(1), eviction="lifo")


class TestDimmConfigKnobs:
    def test_defaults_match_hardware(self):
        config = OptaneDimmConfig.g1()
        assert config.write_buffer_eviction == "random"
        assert config.enable_transition

    def test_validation_rejects_bad_policies(self):
        with pytest.raises(ConfigError):
            OptaneDimmConfig.g1(write_buffer_eviction="lru").validate()
