"""Systematic crash-point fault injection with recovery validation.

The package turns the simulator's determinism into a crash-consistency
test rig: every persistence event of a workload is a potential crash
point, realized by replaying the workload from scratch, cutting power
there (:class:`~repro.persist.crash.CrashSimulator`), and checking
recovery — structural invariants plus no-lost-committed-update against
the durability ledger.  See ``docs/crash_consistency.md`` for the
model and for how to add a datastore.
"""

from repro.faults.campaign import (
    STATUS_CODES,
    crash_points,
    parse_points,
    run_campaign,
    run_crashtest,
)
from repro.faults.hooks import CrashPointReached, EventTap, HookedCore, PersistEvent
from repro.faults.workloads import WORKLOADS, CrashWorkload, LinkedListWorkload

__all__ = [
    "STATUS_CODES",
    "crash_points",
    "parse_points",
    "run_campaign",
    "run_crashtest",
    "CrashPointReached",
    "EventTap",
    "HookedCore",
    "PersistEvent",
    "WORKLOADS",
    "CrashWorkload",
    "LinkedListWorkload",
]
