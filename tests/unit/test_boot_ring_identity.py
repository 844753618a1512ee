"""Members of one simulated ring hold one ``RingId`` instance.

``TotemSrp`` accepts a packet of its own ring on ``ring_id is self.ring_id``
and only falls back to ``_ring_aliases`` (a dict probe, after one value
comparison) for an identity that is merely value-equal.  A static boot
therefore installs one shared instance per ring, as a membership change
always did by handing every member ``commit.ring_id``.
"""

from __future__ import annotations

import copy

from conftest import make_cluster

from repro.types import ReplicationStyle, RingId
from repro.wire.codec import decode_packet, encode_packet
from repro.wire.packets import Chunk, DataPacket


def shared_ring(cluster, members) -> RingId:
    rings = [cluster.nodes[n].srp.ring_id for n in members]
    assert all(ring is rings[0] for ring in rings)
    return rings[0]


def logs(cluster):
    return {n: [(m.sender, m.seq, m.payload) for m in node.log.messages]
            for n, node in cluster.nodes.items()}


def test_members_share_the_ring_after_boot_change_and_deep_copy():
    cluster = make_cluster(ReplicationStyle.ACTIVE_PASSIVE, num_nodes=4)
    cluster.start()
    boot = shared_ring(cluster, (1, 2, 3, 4))
    assert boot == RingId(4, 1)
    cluster.nodes[2].submit(b"boot ring")
    cluster.run_for(0.05)
    # Every packet hit the identity test: nothing was ever memoized.
    assert all(not node.srp._ring_aliases for node in cluster.nodes.values())

    fork = copy.deepcopy(cluster)
    forked = shared_ring(fork, (1, 2, 3, 4))
    assert forked == boot and forked is not boot

    cluster.crash_node(4)
    cluster.run_until_condition(
        lambda: all(len(cluster.nodes[n].membership.members) == 3
                    for n in (1, 2, 3)), timeout=5.0)
    changed = shared_ring(cluster, (1, 2, 3))
    assert changed.seq > boot.seq


def test_two_clusters_sharing_the_instance_run_as_if_alone():
    def run_alone(seed):
        cluster = make_cluster(ReplicationStyle.PASSIVE, seed=seed)
        cluster.start()
        for n in cluster.nodes:
            cluster.nodes[n].submit(b"from %d seed %d" % (n, seed))
        cluster.run_for(0.1)
        return logs(cluster)

    alone = {seed: run_alone(seed) for seed in (1, 2)}
    pair = {seed: make_cluster(ReplicationStyle.PASSIVE, seed=seed)
            for seed in (1, 2)}
    for cluster in pair.values():
        cluster.start()
    assert pair[1].nodes[1].srp.ring_id is pair[2].nodes[3].srp.ring_id
    for seed, cluster in pair.items():
        for n in cluster.nodes:
            cluster.nodes[n].submit(b"from %d seed %d" % (n, seed))
    for _ in range(10):                     # interleaved, 10 ms at a time
        for cluster in pair.values():
            cluster.run_for(0.01)
    assert {seed: logs(cluster) for seed, cluster in pair.items()} == alone


def test_a_decoded_ring_id_resolves_through_the_aliases():
    """A packet that went through the codec carries a fresh ``RingId``."""
    cluster = make_cluster(ReplicationStyle.NONE, num_nodes=2)
    cluster.start()
    srp = cluster.nodes[2].srp
    sent = DataPacket(sender=1, ring_id=srp.ring_id, seq=1,
                      chunks=(Chunk.whole(1, b"over the wire"),))
    received = decode_packet(encode_packet(sent))
    assert received.ring_id == srp.ring_id
    assert received.ring_id is not srp.ring_id
    assert srp.on_data(received, 0)
    assert srp._ring_aliases == {id(received.ring_id): received.ring_id}
    assert [m.payload for m in cluster.nodes[2].log.messages] == [
        b"over the wire"]
