"""A simulated shared-medium Ethernet LAN.

The model follows the paper's testbed semantics:

* one shared 100 Mbit/s medium per network — frames serialise one after
  another (Totem's token schedule means senders rarely contend, which is how
  the SRP drives an Ethernet to ~90 % utilisation, §2/§8),
* per-(sender, network) FIFO delivery to each receiver in the fault-free
  case — exactly the assumption the RRP correctness argument uses (§5),
* FIFO is violated only by frame loss (base rate, injected extra loss, or a
  scripted fault), never by reordering,
* the sender does not hear its own broadcast (Totem self-delivers locally),
* a :class:`~repro.wire.packets.BatchPacket` frame train is one frame here:
  it occupies the medium for its full serialised length, takes one loss draw,
  and reaches all receivers through the same single fanout event as any other
  frame — batching n packets costs one heap operation, not n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..config import LanConfig
from ..errors import TransportError
from ..sim.scheduler import EventScheduler
from ..types import NodeId
from ..wire.packets import BatchPacket
from .faults import NetworkFaultModel

#: Delivery callback: ``deliver(src, packet)`` on the receiving node.
DeliverFn = Callable[[NodeId, object], None]


@dataclass
class LanStats:
    """Traffic accounting for one simulated LAN."""

    frames_offered: int = 0
    frames_sent: int = 0
    deliveries: int = 0
    frames_lost: int = 0
    frames_blocked: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    #: Seconds the medium spent transmitting (for utilisation measurement).
    busy_time: float = 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the medium was transmitting."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def snapshot(self, elapsed: float) -> dict:
        """All counters as one plain dict (for :mod:`repro.obs`)."""
        return {
            "frames_offered": self.frames_offered,
            "frames_sent": self.frames_sent,
            "deliveries": self.deliveries,
            "frames_lost": self.frames_lost,
            "frames_blocked": self.frames_blocked,
            "payload_bytes": self.payload_bytes,
            "wire_bytes": self.wire_bytes,
            "busy_time": self.busy_time,
            "utilization": self.utilization(elapsed),
        }


class SimLan:
    """One simulated Ethernet network with an arbitrary set of attached nodes."""

    def __init__(self, scheduler: EventScheduler, config: LanConfig,
                 rng: random.Random, index: int = 0) -> None:
        self._scheduler = scheduler
        self.config = config
        self.index = index
        self._rng = rng
        self.faults = NetworkFaultModel()
        self.stats = LanStats()
        self._receivers: Dict[NodeId, DeliverFn] = {}
        #: Multicast-group-style channels: frames still serialise on the one
        #: shared medium (shared bandwidth, loss, and backlog), but a frame
        #: only fans out to receivers attached to the *sender's* channel —
        #: the simulated analogue of per-ring multicast group addresses.
        #: Channel 0 is the default and preserves classic behaviour.
        self._channels: Dict[NodeId, int] = {}
        self._channel_receivers: Dict[int, Dict[NodeId, DeliverFn]] = {}
        #: Per-source ``[(deliver, node), ...]`` of a fault-free broadcast,
        #: derived from ``_channel_receivers`` and cleared whenever the
        #: attachment set changes (see :meth:`transmit`).
        self._fanout_cache: Dict[NodeId, List[Tuple[DeliverFn, NodeId]]] = {}
        #: Attachment generation per node: a re-attached node gets a new
        #: generation and ports of older incarnations go dead (a restarted
        #: process must not ghost-transmit through its predecessor's NIC).
        self._generations: Dict[NodeId, int] = {}
        #: Virtual time at which the medium finishes its current backlog.
        self._medium_free_at: float = 0.0
        #: Frames offered per source node (1-based serials): the address
        #: space for targeted drops and for the explorer's drop decisions.
        self._tx_serial: Dict[NodeId, int] = {}
        #: Optional delivery observer ``(network, src, dst, packet, arrival)``
        #: called for every frame actually scheduled for delivery (used by
        #: :mod:`repro.check` to know which packets are in flight).
        self.observer: Optional[Callable[[int, NodeId, NodeId, object, float], None]] = None

    # ----- attachment -----

    def attach(self, node: NodeId, deliver: DeliverFn,
               channel: int = 0) -> "LanPort":
        """Attach ``node``; ``deliver(src, packet)`` fires on frame arrival.

        ``channel`` scopes fanout: broadcasts from ``node`` reach only
        receivers attached with the same channel (multicast-group
        semantics).  The medium itself — bandwidth, backlog, loss — stays
        shared across all channels.
        """
        if node in self._receivers:
            raise TransportError(f"node {node} already attached to net{self.index}")
        self._receivers[node] = deliver
        self._channels[node] = channel
        self._channel_receivers.setdefault(channel, {})[node] = deliver
        self._fanout_cache.clear()
        generation = self._generations.get(node, 0) + 1
        self._generations[node] = generation
        return LanPort(self, node, generation)

    def detach(self, node: NodeId) -> None:
        """Remove a node (e.g. a crashed process) from the network."""
        self._receivers.pop(node, None)
        channel = self._channels.pop(node, None)
        if channel is not None:
            self._channel_receivers.get(channel, {}).pop(node, None)
        self._fanout_cache.clear()

    @property
    def nodes(self) -> tuple:
        return tuple(self._receivers)

    def channel_of(self, node: NodeId) -> int:
        """The channel ``node`` is attached on (0 when unattached)."""
        return self._channels.get(node, 0)

    # ----- transmission -----

    def transmit(self, src: NodeId, packet: object,
                 dest: Optional[NodeId] = None,
                 generation: Optional[int] = None) -> None:
        """Send ``packet`` from ``src``; broadcast when ``dest`` is None.

        The frame occupies the medium for its serialisation time, then is
        delivered (after propagation latency) to every eligible receiver.
        The sender never receives its own frame.  A ``generation`` that no
        longer matches the node's current attachment is a dead incarnation's
        port and transmits nothing.
        """
        stats = self.stats
        faults = self.faults
        config = self.config
        stats.frames_offered += 1
        serial = self._tx_serial.get(src, 0) + 1
        self._tx_serial[src] = serial
        if (generation is not None
                and self._generations.get(src) != generation):
            stats.frames_blocked += 1
            return
        if not faults.can_send(src):
            stats.frames_blocked += 1
            return
        payload = packet.wire_size()  # type: ignore[attr-defined]
        wire_time = config.wire_time(payload)
        now = self._scheduler.clock._now
        start = self._medium_free_at
        if now > start:
            start = now
        done = start + wire_time
        self._medium_free_at = done
        stats.frames_sent += 1
        stats.payload_bytes += payload
        wire = payload + config.frame_overhead
        min_frame = config.min_frame
        stats.wire_bytes += wire if wire > min_frame else min_frame
        stats.busy_time += wire_time
        if type(packet) is BatchPacket:
            # A frame train's packets reach the receiver progressively while
            # the medium is still serialising the tail, and a pipelined
            # receiver starts processing as soon as the head frame lands.
            # Delivering the single fanout event at the *head* frame's
            # arrival models that overlap; charging the train's full receive
            # cost from then overlaps CPU with the remaining wire time, just
            # as per-frame traffic does.  (Delivering at end-of-train would
            # serialise wire and CPU and stall the token behind the whole
            # train's ordering work — a pipelining loss real receivers do
            # not pay.)  FIFO is safe: anything sent after this train starts
            # at ``done`` and still arrives strictly later.
            arrival = (start + config.wire_time(packet.packets[0].wire_size())
                       + config.latency)
        else:
            arrival = done + config.latency

        # Burst loss happens at the medium/switch: one draw per frame, all
        # receivers of a broadcast share the outcome.
        if (faults.burst_loss is not None
                and faults.burst_loss.frame_lost(self._rng)):
            stats.frames_lost += 1
            return
        # Targeted drops (scripted by serial) share the medium/switch
        # semantics: the frame was transmitted, then lost for everyone.
        if faults.drop_serials and faults.consume_drop(src, serial):
            stats.frames_lost += 1
            return

        loss = config.loss_rate + faults.extra_loss_rate
        observer = self.observer
        # One emptiness check per frame skips the per-target fault probe in
        # the (overwhelmingly common) fault-free case.
        faulty = (faults.down or faults.recv_blocked or faults.blocked_pairs
                  or faults.partition is not None)
        if dest is None and not faulty and observer is None:
            # A broadcast no fault can block and nobody watches reaches
            # every other node of the channel, in attachment order: the same
            # pairs for every frame of this source until the attachment set
            # changes.  In-flight events share the list, so it is replaced,
            # never edited — a frame already in flight still reaches a node
            # that detaches before it arrives.
            fanout = self._fanout_cache.get(src)
            if fanout is None:
                fanout = self._fanout_cache[src] = [
                    (deliver, node)
                    for node, deliver in self._channel_of_sender(src).items()
                    if node != src]
            if loss > 0.0:
                # Independent loss thins the list by one draw per receiver,
                # in attachment order like the loop below.  (Not a
                # comprehension: on 3.11 it would make ``loss`` a cell
                # variable of every transmit, lossy or not.)
                pairs, fanout = fanout, []
                rng_random = self._rng.random
                for pair in pairs:
                    if not rng_random() < loss:
                        fanout.append(pair)
                stats.frames_lost += len(pairs) - len(fanout)
            stats.deliveries += len(fanout)
        else:
            receivers = self._channel_of_sender(src)
            if dest is not None:
                targets = (dest,) if dest in receivers else ()
            else:
                targets = [node for node in receivers if node != src]
            # Per-receiver eligibility (fault state and loss draws) is
            # decided now, in attachment order, so the RNG stream is
            # independent of how delivery is later scheduled.  All surviving
            # receivers then share a single fanout event instead of one heap
            # entry each — the deliver callbacks are captured here, so a
            # frame already in flight still reaches a node that detaches
            # before it arrives (same semantics as the old per-receiver
            # scheduling).
            fanout = []
            rng_random = self._rng.random
            can_deliver = faults.can_deliver
            for node in targets:
                if faulty and not can_deliver(src, node):
                    stats.frames_blocked += 1
                    continue
                if loss > 0.0 and rng_random() < loss:
                    stats.frames_lost += 1
                    continue
                stats.deliveries += 1
                fanout.append((receivers[node], node))
                if observer is not None:
                    observer(self.index, src, node, packet, arrival)
        if fanout:
            self._scheduler.schedule(arrival, self._fanout, src, packet,
                                     fanout, serial)

    def _channel_of_sender(self, src: NodeId) -> Dict[NodeId, DeliverFn]:
        """Receivers a frame from ``src`` can reach, in attachment order.

        Fanout is scoped to the sender's channel (multicast-group
        semantics); an unattached sender transmits on channel 0.
        """
        return self._channel_receivers.get(self._channels.get(src, 0), {})

    def _fanout(self, src: NodeId, packet: object,
                targets: List[Tuple[DeliverFn, NodeId]],
                serial: int = 0) -> None:
        """Deliver one frame to every receiver that survived the loss draws.

        ``serial`` is carried in the event args purely so an in-flight frame
        is addressable from outside (the explorer's drop decisions record
        it); delivery itself does not use it.
        """
        for deliver, _node in targets:
            deliver(src, packet)


class LanPort:
    """One node's attachment to one :class:`SimLan` (implements ``Port``)."""

    __slots__ = ("_lan", "_node", "_generation")

    def __init__(self, lan: SimLan, node: NodeId, generation: int = 1) -> None:
        self._lan = lan
        self._node = node
        self._generation = generation

    @property
    def network_index(self) -> int:
        return self._lan.index

    def broadcast(self, packet: object) -> None:
        self._lan.transmit(self._node, packet, generation=self._generation)

    def unicast(self, dest: NodeId, packet: object) -> None:
        self._lan.transmit(self._node, packet, dest=dest,
                           generation=self._generation)
