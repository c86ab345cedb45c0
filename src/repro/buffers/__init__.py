"""On-DIMM buffering: the read buffer and the write-combining buffer."""

from repro.buffers.read_buffer import ReadBuffer
from repro.buffers.write_buffer import (
    WriteBuffer,
    WriteBufferEntry,
    Writeback,
)

__all__ = [
    "ReadBuffer",
    "WriteBuffer",
    "WriteBufferEntry",
    "Writeback",
]
