"""Property: one handoff per delivery sweep equals the per-message chain.

A delivery sweep — one pass of the SRP's delivery loop — reaches the
replicas in one call per layer: ``TotemNode._on_deliver`` hands the messages
the sweep put in the node's log to the multi-ring dispatcher, which feeds
the member's mergers and hands the sweep's application messages to the
facade, which applies them with the member's state bound once.  The
per-message chain this replaced — log the message, feed every merger,
unwrap it, apply it — is kept below as the reference.

Both sides get the same sweeps: empty, of one message and of many, over one
packet or two arriving out of order, mixing service set envelopes, foreign
data, merge-clock markers and unprefixed raw payloads.  The real side
receives them as packets at the engines' SRPs.  Afterwards the stores, the
applied logs, the merged logs, the completion-callback sequence and every
delivery log must be identical.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.cluster import SimCluster
from repro.config import ClusterConfig, TotemConfig
from repro.multiring import (
    DATA_PREFIX,
    CrossRingMerger,
    MultiRingCluster,
    MultiRingConfig,
    decode_payload,
    encode_data,
    encode_marker,
    group_addr,
)
from repro.obs.metrics import MetricRegistry
from repro.service import ServiceConfig, ServiceFacade
from repro.service.types import decode_op, encode_envelope, encode_set
from repro.types import DeliveredMessage, ReplicationStyle
from repro.wire.packets import Chunk, DataPacket

RINGS = 2
MEMBERS = 2
GATEWAY = 1
KEYS = (b"k0", b"k1", b"k2")
TOTEM = TotemConfig(replication=ReplicationStyle.NONE, num_networks=1)
#: The mergers of the multi-ring world: ``(member, groups)``.
MERGERS = ((1, (0, 1)), (2, (0,)))


# ----- the reference: the per-message chain as it was -----

class Reference:
    """Replica state built by the per-message loop."""

    def __init__(self, members) -> None:
        self.stores: Dict[int, Dict[bytes, bytes]] = {m: {} for m in members}
        self.applied: Dict[int, List[Tuple[int, int, int]]] = {
            m: [] for m in members}
        self.inflight: Dict[Tuple[int, int], float] = {}
        self.completions: List[Tuple[int, int, float]] = []
        self.logs: Dict[int, List[DeliveredMessage]] = {}
        self.mergers = {member: CrossRingMerger(groups)
                        for member, groups in MERGERS}

    def apply(self, member: int, group: int, payload: bytes,
              now: float) -> None:
        """``ServiceFacade._on_apply`` of one message, as it was."""
        parsed = decode_op(payload)
        if parsed is None:
            return
        client, uid, _op, key, value = parsed
        self.stores[member][key] = value
        self.applied[member].append((group, client, uid))
        if member == GATEWAY:
            arrival = self.inflight.pop((client, uid), None)
            if arrival is not None:
                self.completions.append((client, uid, now - arrival))

    def deliver_multiring(self, addr: int, group: int, member: int,
                          message: DeliveredMessage, now: float) -> None:
        """Node fan-out, then ``_EngineDeliver.__call__``, per message."""
        self.logs.setdefault(addr, []).append(message)
        merger = self.mergers.get(member)
        if merger is not None and group in merger.groups:
            merger.feed(group, message)
        payload = message.payload
        if payload[:1] == DATA_PREFIX:
            self.apply(member, group, payload[1:], now)
        elif decode_payload(payload)[0] != "marker":
            self.apply(member, group, payload, now)

    def deliver_single(self, addr: int, message: DeliveredMessage,
                       now: float) -> None:
        self.logs.setdefault(addr, []).append(message)
        self.apply(addr, 0, message.payload, now)


# ----- sweeps -----

KINDS = ("set", "marker", "raw", "raw_env", "foreign")

messages = st.lists(st.tuples(st.sampled_from(KINDS),
                              st.integers(0, len(KEYS) - 1),
                              st.integers(1, 3)),
                    max_size=7)
#: ``(group, member, messages, split)``: one sweep at one engine; ``split``
#: sends its second half first, so the first packet makes an empty sweep.
sweeps = st.lists(st.tuples(st.integers(0, RINGS - 1),
                            st.integers(1, MEMBERS), messages, st.booleans()),
                  max_size=10)


class Payloads:
    """Turns message specs into payloads: a fresh uid per service op and
    consecutive merge-clock rounds per engine."""

    def __init__(self) -> None:
        self.uid = 0
        self.rounds: Dict[int, int] = {}
        #: ``(client, uid) -> arrival`` of every service op made.
        self.inflight: Dict[Tuple[int, int], float] = {}

    def make(self, addr: int, group: int, spec) -> bytes:
        kind, key_index, client = spec
        self.uid += 1
        uid, key = self.uid, KEYS[key_index]
        if kind == "marker":
            self.rounds[addr] = self.rounds.get(addr, 0) + 1
            return encode_marker(group, self.rounds[addr])
        if kind == "raw":
            return b"raw-%d" % uid
        if kind == "foreign":
            return encode_data(b"foreign-%d" % uid)
        body = encode_set(key, b"v%d" % uid)
        self.inflight[(client, uid)] = -0.001 * uid
        envelope = encode_envelope(client, uid, body)
        return envelope if kind == "raw_env" else encode_data(envelope)


def packets_of(srp, sender: int, first_seq: int, payloads: List[bytes],
               split: bool) -> List[DataPacket]:
    """The sweep as it arrives: one packet, or two with the later first."""
    cut = len(payloads) // 2 if split and len(payloads) > 1 else 0
    parts = [payloads[:cut], payloads[cut:]] if cut else [payloads]
    packets = [DataPacket(sender=sender, ring_id=srp.ring_id,
                          seq=first_seq + i,
                          chunks=tuple(Chunk.whole(n, p)
                                       for n, p in enumerate(part, 1)))
               for i, part in enumerate(parts)]
    return packets[::-1]


def expected_messages(packets: List[DataPacket]) -> List[DeliveredMessage]:
    return [DeliveredMessage(packet.sender, packet.seq, chunk.data,
                             packet.ring_id, False, packet.ring_id)
            for packet in sorted(packets, key=lambda p: p.seq)
            for chunk in packet.chunks]


def watch(facade: ServiceFacade) -> list:
    completions: list = []
    facade.on_complete(lambda c, u, lat: completions.append((c, u, lat)))
    return completions


def assert_same(facade, completions, nodes, ref) -> None:
    assert facade.stores == ref.stores
    for member in ref.applied:
        assert facade.applied_log(member) == ref.applied[member]
    assert completions == ref.completions
    for addr, node in nodes.items():
        assert node.log.messages == ref.logs.get(addr, [])


# ----- the properties -----

@settings(max_examples=60, deadline=None)
@given(steps=sweeps)
@example(steps=[])
@example(steps=[(0, 1, [("set", 0, 1)], False)])
@example(steps=[(1, 1, [("set", 0, 1), ("marker", 0, 1), ("raw", 0, 1),
                        ("raw_env", 1, 2), ("set", 0, 3), ("set", 0, 1),
                        ("foreign", 0, 2)], True)])
def test_multiring_sweep_equals_the_per_message_chain(steps):
    cluster = MultiRingCluster(MultiRingConfig(
        num_rings=RINGS, num_nodes=MEMBERS, seed=3, totem=TOTEM))
    mergers = [cluster.add_merger(member, groups)
               for member, groups in MERGERS]
    cluster.start(markers=False)
    facade = ServiceFacade(cluster, ServiceConfig(),
                           registry=MetricRegistry())
    completions = watch(facade)
    ref = Reference(range(1, MEMBERS + 1))
    made = Payloads()
    next_seq: Dict[int, int] = {}
    now = cluster.now

    for group, member, specs, split in steps:
        addr = group_addr(group, member)
        payloads = [made.make(addr, group, spec) for spec in specs]
        facade._inflight.update(made.inflight)
        ref.inflight.update(made.inflight)
        made.inflight.clear()
        srp = cluster.nodes[addr].srp
        sender = group_addr(group, MEMBERS + 1 - member)
        packets = packets_of(srp, sender, next_seq.get(addr, 1), payloads,
                             split)
        next_seq[addr] = next_seq.get(addr, 1) + len(packets)
        for packet in packets:
            srp.on_data(packet)
        for message in expected_messages(packets):
            ref.deliver_multiring(addr, group, member, message, now)

    assert_same(facade, completions, cluster.nodes, ref)
    for merger, (member, _groups) in zip(mergers, MERGERS):
        assert merger.log_bytes() == ref.mergers[member].log_bytes()
        assert merger.merged == ref.mergers[member].merged


@settings(max_examples=40, deadline=None)
@given(steps=sweeps)
def test_single_ring_sweep_equals_the_per_message_chain(steps):
    cluster = SimCluster(ClusterConfig(num_nodes=MEMBERS, totem=TOTEM))
    cluster.start()
    facade = ServiceFacade(cluster, ServiceConfig(),
                           registry=MetricRegistry())
    completions = watch(facade)
    ref = Reference(range(1, MEMBERS + 1))
    made = Payloads()
    next_seq: Dict[int, int] = {}
    now = cluster.now

    for _group, member, specs, split in steps:
        payloads = [made.make(member, 0, spec) for spec in specs]
        facade._inflight.update(made.inflight)
        ref.inflight.update(made.inflight)
        made.inflight.clear()
        srp = cluster.nodes[member].srp
        packets = packets_of(srp, MEMBERS + 1 - member,
                             next_seq.get(member, 1), payloads, split)
        next_seq[member] = next_seq.get(member, 1) + len(packets)
        for packet in packets:
            srp.on_data(packet)
        for message in expected_messages(packets):
            ref.deliver_single(member, message, now)

    assert_same(facade, completions, cluster.nodes, ref)


def test_a_forked_world_applies_into_its_own_facade():
    """``copy.deepcopy`` of a started multi-ring cluster and its facade
    mid-run: every handoff target is a bound Python method or a
    ``__slots__`` object, so the fork's sweeps reach the fork's facade and
    merger, and the parent's stay where they were."""
    cluster = MultiRingCluster(MultiRingConfig(
        num_rings=RINGS, num_nodes=MEMBERS, seed=5, totem=TOTEM))
    merger = cluster.add_merger(1)
    cluster.start()
    facade = ServiceFacade(cluster, ServiceConfig(),
                           registry=MetricRegistry())
    for client in range(1, 9):
        facade.set(client, KEYS[client % len(KEYS)], b"before")
    cluster.run_for(0.03)
    assert facade.m_completed.value == 8

    fork, fork_facade, fork_merger = copy.deepcopy((cluster, facade, merger))
    stores = copy.deepcopy(facade.stores)
    applied = {m: facade.applied_log(m) for m in range(1, MEMBERS + 1)}
    merged = len(merger.merged)
    for client in range(1, 9):
        fork_facade.set(client, KEYS[client % len(KEYS)], b"in the fork")
    fork.run_for(0.03)

    assert facade.stores == stores
    assert {m: facade.applied_log(m) for m in applied} == applied
    assert len(merger.merged) == merged
    assert facade.m_completed.value == 8
    assert fork_facade.m_completed.value == 16
    assert fork_facade.converged()
    assert all(store[key] == b"in the fork"
               for store in fork_facade.stores.values() for key in KEYS)
    assert len(fork_merger.merged) > merged
