"""Fault injection for Group-FEL simulations.

Seeded, composable failure modes — client dropout (before/mid/after local
steps), stragglers, lossy retrying uplinks, whole-group failures — threaded
through the trainer so the dropout-tolerant SecAgg recovery path, the
Eq. (35) weight renormalization, and the cost/latency accounting are
exercised under realistic edge conditions. Same plan seed ⇒ same fault
trace, on any parallel backend.
"""

from repro.faults.injectors import (
    DROPOUT_PHASES,
    ClientDropout,
    GroupFailure,
    Injector,
    MessageLoss,
    RetryPolicy,
    Straggler,
)
from repro.faults.plan import FaultPlan, UplinkOutcome
from repro.faults.trace import FaultEvent, FaultTrace

__all__ = [
    "DROPOUT_PHASES",
    "Injector",
    "ClientDropout",
    "Straggler",
    "RetryPolicy",
    "MessageLoss",
    "GroupFailure",
    "FaultPlan",
    "UplinkOutcome",
    "FaultEvent",
    "FaultTrace",
]
