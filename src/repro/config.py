"""Configuration for the Totem SRP/RRP stack and the simulated testbed.

Two dataclasses:

* :class:`TotemConfig` — protocol parameters (replication style, timers,
  flow-control window, monitor thresholds).  Defaults follow the paper where
  it gives numbers (e.g. the 10 ms passive token timer in §6) and the Totem
  SRP literature elsewhere.
* :class:`LanConfig` — the simulated Ethernet testbed (bandwidth, frame
  sizes, header overhead, CPU cost model).  Defaults model the paper's
  100 Mbit/s Ethernet with 1518-byte frames and 94 bytes of header overhead,
  i.e. a 1424-byte maximum payload per frame (§8).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError
from .types import ReplicationStyle


@dataclass(frozen=True)
class TotemConfig:
    """Protocol parameters for one Totem node.

    All durations are in seconds of the simulator's virtual clock, which
    schedules microsecond-scale events.
    """

    # ----- replication (the RRP layer, paper §4-§7) -----
    #: Which replication style the RRP layer uses.
    replication: ReplicationStyle = ReplicationStyle.ACTIVE
    #: Number of redundant networks N.
    num_networks: int = 2
    #: For ACTIVE_PASSIVE: number of copies K sent per message/token (1<K<N).
    active_passive_k: int = 2

    # ----- RRP timers and monitors -----
    #: Active replication: how long to wait for the remaining token copies
    #: after the first copy of a new token arrives (paper §5, requirement A4).
    active_token_timeout: float = 0.002
    #: Passive replication: how long a token may sit in the token buffer
    #: waiting for missing messages (paper §6 uses 10 ms).
    passive_token_timeout: float = 0.010
    #: Active replication: problem-counter value at which a network is
    #: declared faulty (paper §5, requirement A5).
    problem_counter_threshold: int = 10
    #: Active replication: interval at which problem counters are decremented
    #: so sporadic loss never accumulates into a false alarm (A6).  The decay
    #: rate (1/interval) bounds the sporadic token-loss rate the detector
    #: tolerates indefinitely; a genuinely failed network drives the counter
    #: up at the token rotation rate, orders of magnitude faster.
    problem_counter_decay_interval: float = 0.2
    #: Passive replication: receive-count difference at which the lagging
    #: network is declared faulty (paper §6 / Figure 5, requirement P4).
    recv_count_threshold: int = 50
    #: Passive replication: interval at which lagging receive counters are
    #: topped up by one so sporadic loss is forgiven (P5).
    recv_count_topup_interval: float = 0.5

    # ----- SRP timers -----
    #: Token retransmission interval: a node re-sends its last token until it
    #: sees evidence the successor received it (paper §2).  This is the
    #: interval after a token sent as one copy (passive, or a redundant ring
    #: down to one network), and the floor after one sent as several, which
    #: waits for the ring's measured rotation, up to a quarter of
    #: ``token_loss_timeout`` (see docs/PROTOCOL.md §2).
    token_retransmit_interval: float = 0.005
    #: Token loss timeout: no token for this long starts the membership
    #: protocol (paper §2).
    token_loss_timeout: float = 0.100
    #: Gather state: how long to wait for join consensus to settle.
    join_timeout: float = 0.050
    #: Gather state: how long before unresponsive nodes land in the fail set.
    consensus_timeout: float = 0.200
    #: How long joins from a node that accused us of failure (i.e. it cannot
    #: hear us) are ignored while we are operational.  Without this, a node
    #: whose receive paths are all dead drags the surviving ring through a
    #: reconfiguration every time it restarts its own gather.
    rejoin_quarantine: float = 0.5
    #: Interval at which an operational ring's representative broadcasts a
    #: presence beacon (a stale join message).  Idle rings exchange no
    #: broadcasts — tokens are unicast — so without beacons two idle rings
    #: sharing the networks would never notice each other and merge.
    #: 0 disables beacons.
    presence_interval: float = 1.0

    # ----- SRP flow control and packing -----
    #: Global flow-control window: max messages broadcast per token rotation.
    window_size: int = 80
    #: Per-visit cap: max messages one node broadcasts per token visit.
    max_messages_per_token: int = 20
    #: Capacity of the application send queue (messages).
    send_queue_capacity: int = 2048
    #: Maximum payload bytes per wire packet: the paper's 1424-byte maximum
    #: Ethernet payload (1518-byte frame minus 94 bytes of headers, §8).
    #: Chunk packing headers count against this budget; the fixed Totem
    #: packet header is part of the 94-byte overhead.
    max_packet_payload: int = 1424
    #: Whether to pack several small application messages into one packet.
    enable_packing: bool = True
    #: Whether a token visit's freshly sequenced packets are broadcast as a
    #: single :class:`~repro.wire.packets.BatchPacket` frame train instead
    #: of one frame per packet.  Amortises per-frame CPU and framing costs
    #: (the Ring-Paxos-style batching lever); delivery order and content
    #: are identical either way.  Off by default: seed-pinned campaign
    #: replays and explorer digests predate batch frames, and single-frame
    #: traffic keeps fault granularity at one packet per loss draw.
    enable_batching: bool = False
    #: When True, hold message delivery until the message is *safe* (known
    #: received by every ring member) instead of delivering in agreed order.
    safe_delivery: bool = False

    # ----- identifiers -----
    #: Seed for any randomized protocol decisions (none in the core protocol,
    #: but kept here so a node is a pure function of its config).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_networks < 1:
            raise ConfigError("num_networks must be >= 1")
        if self.replication is ReplicationStyle.NONE and self.num_networks != 1:
            raise ConfigError("NONE replication requires exactly 1 network")
        if (
            self.replication
            in (ReplicationStyle.ACTIVE, ReplicationStyle.PASSIVE)
            and self.num_networks < 2
        ):
            raise ConfigError(
                f"{self.replication.value} replication requires >= 2 networks"
            )
        if self.replication is ReplicationStyle.ACTIVE_PASSIVE:
            if self.num_networks < 3:
                raise ConfigError("active-passive requires >= 3 networks (paper §7)")
            if not 1 < self.active_passive_k < self.num_networks:
                raise ConfigError("active-passive requires 1 < K < N (paper §4)")
        if self.window_size < 1 or self.max_messages_per_token < 1:
            raise ConfigError("flow control window parameters must be >= 1")
        if self.max_packet_payload < 64:
            raise ConfigError("max_packet_payload unreasonably small")
        for name in (
            "active_token_timeout",
            "passive_token_timeout",
            "token_retransmit_interval",
            "token_loss_timeout",
            "join_timeout",
            "consensus_timeout",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    def with_style(self, style: ReplicationStyle, num_networks: Optional[int] = None) -> "TotemConfig":
        """A copy of this config with a different replication style.

        ``num_networks`` defaults to whatever the style minimally needs.
        """
        if num_networks is None:
            if style is ReplicationStyle.NONE:
                num_networks = 1
            elif style is ReplicationStyle.ACTIVE_PASSIVE:
                num_networks = max(self.num_networks, 3)
            else:
                num_networks = max(self.num_networks, 2)
        return replace(self, replication=style, num_networks=num_networks)


@dataclass(frozen=True)
class LanConfig:
    """Parameters of one simulated Ethernet LAN and the node CPU model.

    The defaults reproduce the paper's testbed arithmetic: 100 Mbit/s
    Ethernet, 1518-byte maximum frame, 94 bytes of Ethernet + IPv4 + UDP +
    Totem header overhead, hence 1424 bytes of Totem payload per frame (§8).

    The CPU cost model is what makes the evaluation's *shape* come out: the
    paper attributes active replication's throughput loss to "doubling the
    number of calls to the network protocol stack" and passive replication's
    sub-2x scaling to per-message protocol processing.  We model:

    * ``cpu_per_send`` — one network-stack traversal to transmit one frame,
    * ``cpu_per_recv`` — one stack traversal to receive one frame,
    * ``cpu_per_dup_recv`` — receiving a frame that is then discarded as a
      duplicate (cheaper: it is dropped before ordering/delivery work),
    * ``cpu_per_msg`` — per-application-message protocol work (sequencing,
      ordering, liveness bookkeeping, delivery).
    """

    #: Link/medium bandwidth in bits per second.
    bandwidth_bps: float = 100_000_000.0
    #: Propagation + switch forwarding latency per frame, seconds.
    latency: float = 20e-6
    #: Maximum Ethernet frame size in bytes (header + payload).
    max_frame: int = 1518
    #: Ethernet + IPv4 + UDP + Totem header overhead per frame, bytes.
    frame_overhead: int = 94
    #: Minimum frame size on the wire, bytes.
    min_frame: int = 64
    #: Independent per-frame loss probability (sporadic omission faults).
    loss_rate: float = 0.0

    # ----- node CPU model (seconds per operation) -----
    # Calibrated (see EXPERIMENTS.md) so the unreplicated baseline saturates
    # the wire near the paper's 9,000+ 1-Kbyte msgs/s at ~90 % utilisation,
    # passive replication becomes CPU-bound 2,000-4,000 KB/s above it, and
    # active replication pays the paper's 1,000-1,500 msgs/s for its doubled
    # stack calls and duplicate receives.  Per-byte terms model the copy
    # chain (NIC -> kernel -> user -> ordering buffer) of the paper's
    # late-90s hardware; per-operation terms model fixed stack-call costs.
    cpu_per_send: float = 12e-6
    cpu_per_recv: float = 25e-6
    cpu_per_dup_recv: float = 8e-6
    cpu_per_msg: float = 45e-6
    cpu_per_byte_send: float = 0.0
    cpu_per_byte_recv: float = 0.0
    cpu_per_byte_dup: float = 16e-9

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ConfigError("bandwidth must be positive")
        if self.max_frame <= self.frame_overhead:
            raise ConfigError("max_frame must exceed frame_overhead")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigError("loss_rate must be in [0, 1)")

    @property
    def max_payload(self) -> int:
        """Maximum Totem payload bytes per frame (1424 with defaults)."""
        return self.max_frame - self.frame_overhead

    def wire_time(self, payload_bytes: int) -> float:
        """Seconds the medium is occupied transmitting ``payload_bytes``."""
        frame = max(self.min_frame, payload_bytes + self.frame_overhead)
        return frame * 8.0 / self.bandwidth_bps


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to build a simulated cluster deterministically."""

    num_nodes: int = 4
    totem: TotemConfig = field(default_factory=TotemConfig)
    lan: LanConfig = field(default_factory=LanConfig)
    seed: int = 1
    #: Online protocol-invariant checking (:mod:`repro.check`): ``"off"``
    #: (default — benchmarks measure the protocol, not the checker),
    #: ``"observe"`` (record violations) or ``"strict"`` (raise on the
    #: first violation).  The test suite turns this on cluster-wide.
    invariants: str = "off"
    #: Telemetry (:mod:`repro.obs`): ``"off"`` (default — the hot path pays
    #: nothing), ``"sampled"`` (periodic read-only sampling of existing
    #: counters every ``obs_interval`` virtual seconds) or ``"full"``
    #: (sampling plus per-event hooks: rotation histograms, token-timeout
    #: and token-loss events).
    obs: str = "off"
    #: Virtual-time sampling period for ``obs`` modes (seconds).
    obs_interval: float = 0.01

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        if self.invariants not in ("off", "observe", "strict"):
            raise ConfigError(
                f"invariants must be 'off', 'observe' or 'strict', "
                f"got {self.invariants!r}")
        if self.obs not in ("off", "sampled", "full"):
            raise ConfigError(
                f"obs must be 'off', 'sampled' or 'full', got {self.obs!r}")
        if self.obs_interval <= 0:
            raise ConfigError("obs_interval must be positive")
