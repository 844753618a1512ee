"""The production service facade over the Cluster API.

Admission control, backpressure-aware load shedding, weighted per-client
fairness, and circuit-broken cross-shard reads for a replicated KV /
pub-sub service running on a single Totem ring or a sharded multi-ring
cluster.  See docs/SERVICE.md for the architecture and shedding policy.
"""

from .admission import FairAdmissionQueue, TokenBucket
from .backpressure import DEGRADE, OK, SHED, RingPressureMonitor
from .breaker import CircuitBreaker, DeadlineBudget
from .facade import SLO_LATENCY_BUCKETS, ServiceConfig, ServiceFacade
from .types import (
    Admitted,
    Overload,
    ReadResult,
    Request,
    Response,
    Shed,
    ShedReason,
    decode_op,
    encode_delete,
    encode_envelope,
    encode_publish,
    encode_set,
)

__all__ = [
    "Admitted",
    "CircuitBreaker",
    "DEGRADE",
    "DeadlineBudget",
    "FairAdmissionQueue",
    "OK",
    "Overload",
    "ReadResult",
    "Request",
    "Response",
    "RingPressureMonitor",
    "SHED",
    "SLO_LATENCY_BUCKETS",
    "ServiceConfig",
    "ServiceFacade",
    "Shed",
    "ShedReason",
    "TokenBucket",
    "decode_op",
    "encode_delete",
    "encode_envelope",
    "encode_publish",
    "encode_set",
]
