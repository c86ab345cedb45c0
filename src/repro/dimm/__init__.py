"""DIMM front-ends (Optane and DRAM) and their configurations."""

from repro.dimm.config import DramDimmConfig, OptaneDimmConfig
from repro.dimm.dram import DramDimm
from repro.dimm.optane import OptaneDimm

__all__ = [
    "DramDimmConfig",
    "OptaneDimmConfig",
    "DramDimm",
    "OptaneDimm",
]
