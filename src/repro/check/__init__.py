"""Online protocol-invariant checking (docs/INVARIANTS.md).

The stack's ``probe``/``observer`` hooks feed an
:class:`InvariantChecker` that validates the paper's correctness
requirements (A1-A6, P1-P5) while a simulation runs.  Enable it per
cluster via :attr:`repro.config.ClusterConfig.invariants` (``"observe"``
or ``"strict"``); every generated campaign scenario runs with it on
(``python -m repro.campaign run --batch N``).
"""

from .invariants import (
    INVARIANTS,
    CheckMode,
    InvariantChecker,
    InvariantViolation,
    NodeProbe,
)

__all__ = [
    "INVARIANTS",
    "CheckMode",
    "InvariantChecker",
    "InvariantViolation",
    "NodeProbe",
]
