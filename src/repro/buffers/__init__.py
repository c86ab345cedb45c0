"""On-DIMM buffering: the read buffer and the write-combining buffer."""

from repro.buffers.read_buffer import ReadBuffer, ReadBufferEntry
from repro.buffers.write_buffer import (
    WriteBuffer,
    WriteBufferEntry,
    Writeback,
)

__all__ = [
    "ReadBuffer",
    "ReadBufferEntry",
    "WriteBuffer",
    "WriteBufferEntry",
    "Writeback",
]
