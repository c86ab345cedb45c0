"""Cycle time.

The simulator measures everything in *CPU cycles* of the simulated
machine.  Each thread context carries its own local time (threads make
progress independently); shared devices deal in absolute timestamps,
so a plain float is the universal currency.
"""

from __future__ import annotations

Cycles = float
