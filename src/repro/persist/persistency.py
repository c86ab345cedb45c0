"""Persistency models and persist instructions (paper Section 3.6).

The paper contrasts the two extremes of the persistency spectrum:

* **strict** — every write is immediately followed by a persistence
  barrier (flush + fence), totally ordering persists;
* **relaxed** — writes and flushes issue freely; one fence at the end
  of an epoch (here: one pass over the working set) orders everything
  at once.

These enums name the (model, flush instruction, fence instruction)
points the benchmark kernels sweep: clwb vs nt-store, sfence vs
mfence, strict vs relaxed.  The kernels dispatch on them directly
(:func:`repro.core.microbench.rap.run_rap_iterations`,
:class:`repro.core.microbench.pointer_chase.PointerChaseBench`).
"""

from __future__ import annotations

import enum


class PersistencyModel(enum.Enum):
    """How aggressively persists are ordered (the paper's two extremes)."""

    STRICT = "strict"
    RELAXED = "relaxed"


class FlushKind(enum.Enum):
    """Which instruction publishes a dirty line to the ADR domain."""

    CLWB = "clwb"
    CLFLUSHOPT = "clflushopt"
    NT_STORE = "nt-store"


class FenceKind(enum.Enum):
    """Which fence orders the flushes."""

    SFENCE = "sfence"
    MFENCE = "mfence"
