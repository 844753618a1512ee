"""SRP recovery-stage tests: token retransmission and membership timeouts.

These drive the under-covered timer stages of :mod:`repro.srp.engine`
end-to-end, but deterministically: instead of random loss rates, in-flight
regular tokens are destroyed surgically through the scheduler's explorer
hooks (``ready_entries`` / ``discard_entry`` — the same frame-loss model
``repro.campaign explore`` forks on), so every run exercises exactly the
recovery path under test:

* losing every wire copy of one token hand-off → the sender's
  retransmission timer recovers it without a membership change, both
  before the rotation estimate has a sample and once it has stretched
  the multi-copy timer past its 5 ms floor;
* sustained token destruction → token-loss timeout → gather → join
  resends → consensus → a new full ring, with EVS delivery intact;
* a crashed peer → token loss plus a consensus timeout that nobody
  answers → a reduced singleton ring.

The canonical state digests (:mod:`repro.check.digest`) double as the
oracle that the whole recovery chain is deterministic.
"""

from repro.check.digest import cluster_digest
from repro.config import LanConfig
from repro.net.simlan import SimLan
from repro.sim.scheduler import _ARGS, _CALLBACK, _WHEN
from repro.srp.engine import SrpState
from repro.types import ReplicationStyle
from repro.wire.packets import Token

from conftest import drain, make_cluster, payloads


def _is_token_flight(entry) -> bool:
    callback = entry[_CALLBACK]
    owner = getattr(callback, "__self__", None)
    return (isinstance(owner, SimLan) and callback.__name__ == "_fanout"
            and isinstance(entry[_ARGS][1], Token))


def discard_token_flights(cluster, count: int, deadline: float = 1.0) -> None:
    """Step the scheduler, destroying the first ``count`` in-flight regular
    tokens (each wire copy counts once; commit tokens and joins pass)."""
    scheduler = cluster.scheduler
    discarded = 0
    while discarded < count:
        ready = scheduler.ready_entries()
        assert ready, "scheduler ran dry before a token flew"
        assert ready[0][_WHEN] <= deadline, "no token in flight in time"
        flights = [entry for entry in ready if _is_token_flight(entry)]
        if not flights:
            scheduler.fire_entry(ready[0])
            continue
        for entry in flights[:count - discarded]:
            scheduler.discard_entry(entry)
            discarded += 1


def discard_tokens_until(cluster, deadline: float) -> int:
    """Destroy every regular token put on a wire before ``deadline``."""
    scheduler = cluster.scheduler
    discarded = 0
    while True:
        ready = scheduler.ready_entries()
        if not ready or ready[0][_WHEN] >= deadline:
            return discarded
        flights = [entry for entry in ready if _is_token_flight(entry)]
        if flights:
            for entry in flights:
                scheduler.discard_entry(entry)
            discarded += len(flights)
        else:
            scheduler.fire_entry(ready[0])


def test_token_retransmission_recovers_lost_handoff():
    cluster = make_cluster(ReplicationStyle.ACTIVE, num_nodes=2,
                           lan=LanConfig(bandwidth_bps=10e6))

    def retransmits():
        return sum(node.srp.stats.token_retransmits
                   for node in cluster.nodes.values())

    cluster.start()
    # Both network copies of the next hand-off vanish on the wire.
    discard_token_flights(cluster, 2)
    cluster.run_until_condition(lambda: retransmits() > 0, timeout=1.0)
    # The retransmission healed the ring below the membership layer.
    cluster.nodes[1].submit(b"after the loss")
    drain(cluster)
    for node in cluster.nodes.values():
        assert node.srp.state is SrpState.OPERATIONAL
        assert node.srp.stats.token_loss_events == 0
        assert node.srp.stats.gathers_entered == 0
        assert payloads(node.log) == [b"after the loss"]

    # Again with a warm estimator: node 1's bulk traffic stretches the
    # rotation past the 5 ms floor, so a two-copy token waits for the
    # measured rotation before it is re-sent, and is still recovered.
    cluster.nodes[1].srp.submit_many([b"x" * 1000] * 60)
    cluster.run_for(0.02)
    assert all(node.srp._srtt + 4 * node.srp._rttvar
               > node.srp.config.token_retransmit_interval
               for node in cluster.nodes.values())
    before = retransmits()
    discard_token_flights(cluster, 2)
    cluster.run_until_condition(lambda: retransmits() > before, timeout=1.0)
    drain(cluster)
    for node in cluster.nodes.values():
        assert node.srp.state is SrpState.OPERATIONAL
        assert node.srp.stats.token_loss_events == 0
        assert node.srp.stats.gathers_entered == 0
        assert len(payloads(node.log)) == 61


def test_sustained_token_loss_reforms_full_ring():
    cluster = make_cluster(ReplicationStyle.ACTIVE, num_nodes=2)
    cluster.start()
    cluster.nodes[1].submit(b"survives the reform")
    seq_before = cluster.nodes[1].srp.ring_id.seq
    # Destroy every regular token past the token-loss timeout: both nodes
    # must give the ring up and renegotiate it from scratch.
    assert discard_tokens_until(cluster, deadline=0.12) > 0
    cluster.run_until_condition(
        lambda: all(node.srp.state is SrpState.OPERATIONAL
                    and tuple(node.membership.members) == (1, 2)
                    and node.srp.ring_id.seq > seq_before
                    for node in cluster.nodes.values()),
        timeout=5.0)
    drain(cluster)
    for node in cluster.nodes.values():
        assert node.srp.stats.token_loss_events >= 1
        assert node.srp.stats.gathers_entered >= 1
        assert node.srp.stats.membership_changes >= 1
        # EVS: the pre-reform submission survives onto the new ring.
        assert b"survives the reform" in payloads(node.log)


def test_crashed_peer_reforms_singleton_via_consensus_timeout():
    cluster = make_cluster(ReplicationStyle.ACTIVE, num_nodes=2)
    cluster.start()
    survivor = cluster.nodes[1]
    seq_before = survivor.srp.ring_id.seq
    cluster.crash_node(2)
    states_seen = set()

    def reformed():
        states_seen.add(survivor.srp.state)
        return (survivor.srp.state is SrpState.OPERATIONAL
                and tuple(survivor.membership.members) == (1,))

    cluster.run_until_condition(reformed, timeout=5.0)
    # The dead peer answered no join, so the reduced ring came out of the
    # gather stage's consensus timeout.
    assert SrpState.GATHER in states_seen
    stats = survivor.srp.stats
    assert stats.token_loss_events >= 1
    assert stats.gathers_entered >= 1
    assert stats.membership_changes >= 1
    assert survivor.srp.ring_id.seq > seq_before
    survivor.submit(b"alone but alive")
    drain(cluster)
    assert payloads(survivor.log)[-1] == b"alone but alive"


def test_recovery_chain_is_digest_deterministic():
    """Same seed, same crash instant → byte-identical recovery, judged by
    the explorer's canonical cluster digest at both ends of the chain."""

    def run_once():
        cluster = make_cluster(ReplicationStyle.ACTIVE, num_nodes=2)
        cluster.start()
        cluster.nodes[1].submit(b"before the crash")
        cluster.run_for(0.01)
        cluster.crash_node(2)
        mid = cluster_digest(cluster)
        cluster.run_for(0.6)  # token loss + gather + consensus + reform
        survivor = cluster.nodes[1]
        assert survivor.srp.state is SrpState.OPERATIONAL
        assert tuple(survivor.membership.members) == (1,)
        return mid, cluster_digest(cluster)

    first = run_once()
    second = run_once()
    assert first == second
    # ...and the digest actually observed the reform happening.
    assert first[0] != first[1]
