"""The production service facade over the Cluster API.

Admission control, backpressure-aware load shedding and weighted
per-client fairness for a replicated KV write service running on a
single Totem ring or a sharded multi-ring cluster.  See docs/SERVICE.md
for the architecture and shedding policy.
"""

from .admission import FairAdmissionQueue, TokenBucket
from .backpressure import RingPressureMonitor
from .facade import SLO_LATENCY_BUCKETS, ServiceConfig, ServiceFacade
from .types import (
    Admitted,
    Overload,
    Request,
    Response,
    Shed,
    ShedReason,
    decode_op,
    encode_envelope,
    encode_set,
)

__all__ = [
    "Admitted",
    "FairAdmissionQueue",
    "Overload",
    "Request",
    "Response",
    "RingPressureMonitor",
    "SLO_LATENCY_BUCKETS",
    "ServiceConfig",
    "ServiceFacade",
    "Shed",
    "ShedReason",
    "TokenBucket",
    "decode_op",
    "encode_envelope",
    "encode_set",
]
