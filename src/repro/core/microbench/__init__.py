"""The paper's Section 3 microbenchmark kernels."""

from repro.core.microbench.interleave import (
    SeparationResult,
    TransitionResult,
    run_separation_probe,
    run_transition_probe,
)
from repro.core.microbench.pointer_chase import ChaseResult, PointerChaseBench
from repro.core.microbench.prefetch_probe import PrefetchProbeResult, run_prefetch_probe
from repro.core.microbench.rap import FIGURE7_PANELS, run_rap_iterations
from repro.core.microbench.strided_read import StridedReadResult, run_strided_read
from repro.core.microbench.write_amp import (
    WriteAmplificationResult,
    WriteHitResult,
    run_write_amplification,
    run_write_hit_ratio,
)

__all__ = [
    "SeparationResult",
    "TransitionResult",
    "run_separation_probe",
    "run_transition_probe",
    "ChaseResult",
    "PointerChaseBench",
    "PrefetchProbeResult",
    "run_prefetch_probe",
    "FIGURE7_PANELS",
    "run_rap_iterations",
    "StridedReadResult",
    "run_strided_read",
    "WriteAmplificationResult",
    "WriteHitResult",
    "run_write_amplification",
    "run_write_hit_ratio",
]
