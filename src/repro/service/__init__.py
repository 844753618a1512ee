"""The production service facade over the Cluster API.

Admission control, backpressure-aware load shedding and weighted
per-client fairness for a replicated KV / pub-sub service running on a
single Totem ring or a sharded multi-ring cluster.  See docs/SERVICE.md
for the architecture and shedding policy.
"""

from .admission import FairAdmissionQueue, TokenBucket
from .backpressure import DEGRADE, OK, SHED, RingPressureMonitor
from .facade import SLO_LATENCY_BUCKETS, ServiceConfig, ServiceFacade
from .types import (
    Admitted,
    Overload,
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
    "DEGRADE",
    "FairAdmissionQueue",
    "OK",
    "Overload",
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
