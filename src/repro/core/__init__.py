"""The paper's primary contribution: microbenchmarks that infer the
on-DIMM buffering design, the read/write decoupling analysis, and the
three optimization techniques (helper-thread prefetch, out-of-place
redo logging, XPLine access redirection)."""

from repro.core.analysis import InstrumentedCore, read_write_summary
from repro.core.helper import HelperThread
from repro.core.redirection import RedirectionBuffer, redirect_block, writeback_block

__all__ = [
    "InstrumentedCore",
    "read_write_summary",
    "HelperThread",
    "RedirectionBuffer",
    "redirect_block",
    "writeback_block",
]
