"""The Totem Single Ring Protocol (SRP) — the substrate the RRP builds on.

The SRP (paper §2; Amir et al., ACM TOCS 1995) imposes a logical
token-passing ring on the nodes of a broadcast LAN:

* a node broadcasts only while holding the token, which both prevents
  collisions and provides a global sequence number per message,
* the token carries retransmission requests, flow-control state
  (fcc/backlog) and the all-received-up-to (aru) watermark for stability,
* token loss triggers the membership protocol (gather → commit → recovery),
  which installs a new ring and delivers configuration changes with
  extended-virtual-synchrony semantics.

:class:`TotemSrp` is a sans-io engine: it talks to a
:class:`~repro.sim.runtime.Runtime` for time/timers and to a
:class:`RingTransport` (normally the RRP layer) for the wire.
"""

from .engine import RingTransport, SrpStats, TotemSrp
from .flow import FlowController
from .membership import SrpState
from .ordering import ReceiveBuffer
from .packing import Packer, Reassembler
from .send_queue import SendQueue

__all__ = [
    "TotemSrp",
    "RingTransport",
    "SrpState",
    "SrpStats",
    "SendQueue",
    "Packer",
    "Reassembler",
    "ReceiveBuffer",
    "FlowController",
]
