"""Tier-1 replay of the seed-pinned campaign corpus (tests/scenarios/).

Three layers of assurance:

* every corpus scenario passes all conformance oracles on the real code;
* replay is deterministic — running a case twice yields byte-identical
  replay text and trace (the case files are cross-machine regression
  anchors);
* the oracles have teeth — an injected delivery-order bug (eager delivery
  that skips sequence gaps instead of waiting for retransmission, the
  kind of bug the PR-1 token-lifecycle fixes guarded against) makes a
  corpus scenario fail, and the minimizer shrinks the failing timeline.

``generated_seed103.json`` and ``generated_seed108.json`` pin two generated
scenarios that exposed real protocol bugs, as the generator drew them
before it learned partial partitions.  Seed 103: a restarted node reused
ring ids (no stable-storage ring-seq watermark), so two configurations
shared a RingId.  Seed 108: a restarted incarnation was counted as an
old-ring survivor in the transitional configuration, so the SMR layer
never offered it state transfer.  ``generated_passive_seed{224,228,277,285}``
pin generated passive runs in which a restarted incarnation absorbed the
packets another old ring rebroadcast during recovery and delivered them in
its transitional configuration; recovery now keeps to the node's own old
ring.
"""

import glob
import os

import pytest

from repro.campaign import (
    Scenario, TimelineEvent, load_scenario, minimize_scenario, run_scenario)
from repro.campaign.explore import apply_mutation
from repro.campaign.minimize import _rebuild, same_failure
from repro.campaign.runner import _CompiledRun
from repro.campaign.scenario import FAULT_KINDS
from repro.srp.membership import MembershipProtocol
from repro.wire.codec import decode_packet
from repro.wire.packets import ChunkKind, DataPacket

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
#: Minimized cases of bugs found but not yet fixed; kept out of the corpus.
KNOWN_BUG_DIR = os.path.join(SCENARIO_DIR, "known_bugs")
CORPUS = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json")))


def corpus_ids():
    return [os.path.splitext(os.path.basename(p))[0] for p in CORPUS]


def test_corpus_exists():
    assert len(CORPUS) >= 5, "seed-pinned corpus went missing"


@pytest.mark.parametrize("path", CORPUS, ids=corpus_ids())
def test_corpus_scenario_conformant(path):
    scenario = load_scenario(path)
    result = run_scenario(scenario)
    assert result.ok, "\n".join(str(v) for v in result.violations)
    assert result.delivered_total > 0, "scenario delivered nothing"


def replay_and_trace(scenario):
    """The replay text and the trace-recorder text of one run."""
    result = run_scenario(scenario, keep_cluster=True)
    trace = "\n".join(str(event) for event in result.cluster.tracer.events())
    return result.replay_text, trace


@pytest.mark.parametrize("path", CORPUS[:2], ids=corpus_ids()[:2])
def test_corpus_replay_is_byte_identical(path):
    """Same case file, same run: the replay text and, line by line, the
    trace.  A scheduler or LAN hot-path change that reorders anything
    observable shows up as a trace diff."""
    scenario = load_scenario(path)
    first, first_trace = replay_and_trace(scenario)
    second, second_trace = replay_and_trace(scenario)
    assert first == second
    assert first.endswith("verdict: PASS\n")
    assert first_trace and first_trace == second_trace


@pytest.fixture
def eager_delivery_bug():
    """Inject a delivery-order bug: deliver in arrival order, skipping gaps.

    This is the canonical failure mode the ordered-delivery machinery
    exists to prevent — a node that missed a frame on a lossy network
    delivers later frames anyway and permanently skips the gap instead of
    waiting for retransmission, so lossy receivers diverge from clean ones.
    The explorer's self-test injects the same mutation.
    """
    with apply_mutation("eager-delivery"):
        yield


def _lossy_scenario():
    return load_scenario(os.path.join(SCENARIO_DIR, "passive_lossy.json"))


def test_oracles_catch_seeded_delivery_bug(eager_delivery_bug):
    result = run_scenario(_lossy_scenario())
    assert not result.ok, "oracles failed to flag the injected bug"
    oracles = {v.oracle for v in result.violations}
    assert "agreement" in oracles


def test_minimizer_shrinks_seeded_bug_case(eager_delivery_bug):
    scenario = _lossy_scenario()
    minimized = minimize_scenario(scenario)
    assert minimized.minimized_events <= 3
    assert minimized.minimized_events < len(scenario.fault_events)
    # The minimized case still fails, and for the same reason.
    result = run_scenario(minimized.scenario)
    assert not result.ok
    assert any(v.oracle == "agreement" for v in result.violations)


def test_end_of_run_ledger_check_is_reported(monkeypatch):
    """The checker's final ledger pass runs after the scenario, and what
    it finds is reported under the ``invariants`` oracle."""
    original_run = _CompiledRun.run

    def run_then_unbalance_one_probe(self):
        original_run(self)
        probe = self.cluster.checker.probes[0]
        monkeypatch.setattr(probe, "validate_ledger", lambda: probe._violation(
            "token-ledger", "planted end-of-run imbalance"))

    monkeypatch.setattr(_CompiledRun, "run", run_then_unbalance_one_probe)
    scenario = Scenario(
        name="ledger", num_nodes=2, duration=0.05, settle=0.05, smr=False,
        invariants="observe",
        events=(TimelineEvent(0.0, "burst",
                              {"node": 1, "count": 5, "size": 32}),))
    result = run_scenario(scenario, check_twin=False)
    assert any(v.oracle == "invariants" and "planted" in v.detail
               for v in result.violations), result.violations


#: One event of each network-fault kind the runner hands to FaultPlan.
NETWORK_FAULTS = {
    "loss": {"network": 1, "rate": 0.1},
    "burst_loss": {"network": 1, "p_good_to_bad": 0.01,
                   "p_bad_to_good": 0.3},
    "sever_send": {"network": 1, "node": 3},
    "sever_recv": {"network": 1, "node": 4},
    "sever_pair": {"network": 1, "src": 1, "dst": 2},
    "drop_frame": {"network": 1, "src": 1, "serial": 2},
    "partition": {"network": 1, "groups": [[1, 2], [3, 4]]},
    "fail_network": {"network": 1},
    "restore_network": {"network": 1},
}


def test_every_network_fault_kind_runs():
    """A case file may name any kind of the DSL, pinned in the corpus or
    not: each network fault the runner passes on reaches a FaultPlan
    method, and one run of them all, net 0 clean, passes."""
    assert set(NETWORK_FAULTS) == set(FAULT_KINDS) - {
        "partition_all", "heal_all", "crash", "restart"}
    events = [TimelineEvent(0.0, "burst",
                            {"node": 1, "count": 20, "size": 64})]
    events += [TimelineEvent(0.01 * (i + 1), kind, params)
               for i, (kind, params) in enumerate(NETWORK_FAULTS.items())]
    scenario = Scenario(name="network-faults", num_nodes=4, duration=0.3,
                        settle=0.3, events=tuple(events))
    result = run_scenario(scenario)
    assert result.ok, "\n".join(str(v) for v in result.violations)
    assert result.delivered_total > 0


@pytest.mark.xfail(strict=True, reason=(
    "known bug: after a partial partition overlaps a whole-cluster "
    "partition in passive replication, the agreement oracle compares a "
    "transitional stream with a regular one of the same ring"))
def test_known_bug_passive_partition_duplicates():
    """Generated seed 25 plus a partial partition, minimized to 6 faults.

    Before recovery kept to each node's own old ring, nodes 1, 2 and 4
    delivered node 3's ring-4 messages a second time in their
    transitional configuration.  Those duplicates are gone; node 3 still
    delivers its own undelivered ring-4 messages in transitional
    configuration {3} of ring 12, which ``check_agreement`` keys by ring
    id alone and so compares with the others' regular ring-12 stream.
    When that is settled, this case moves into the corpus.
    """
    result = run_scenario(load_scenario(
        os.path.join(KNOWN_BUG_DIR, "passive_partition_duplicates.json")))
    assert result.ok, "\n".join(str(v) for v in result.violations[:5])


def _smr_divergence_case():
    return load_scenario(
        os.path.join(KNOWN_BUG_DIR, "passive_smr_divergence.json"))


@pytest.mark.xfail(strict=True, reason=(
    "known bug: after a whole-cluster partition, a network failure and a "
    "partial partition heal in passive replication, synced replicas on "
    "one membership hold different state digests"))
def test_known_bug_passive_smr_divergence():
    """Generated passive seed 343, minimized 10 -> 5 faults.

    After the 0.6 s heal all four nodes are synced on ring (1, 2, 3, 4),
    but node 2's replica digest differs from the other three.
    ``agreement`` and every invariant rule are silent.  When the missing
    property is found and the engine or SMR layer fixed, this case moves
    into the corpus.
    """
    result = run_scenario(_smr_divergence_case())
    assert result.ok, "\n".join(str(v) for v in result.violations[:5])


def test_minimizer_keeps_the_heal_of_a_divergence_case():
    """Without its heal, the divergence case fails ``smr-convergence``
    too, but as an unsettled membership: the expected effect of an
    unhealed partition, not the divergence.  Matching on the oracle alone
    let ``minimize`` drop the heal and return that case; matching on
    (oracle, kind) refuses it."""
    scenario = _smr_divergence_case()
    assert {(v.oracle, v.kind) for v in run_scenario(scenario).violations} \
        == {("smr-convergence", "diverged")}
    heal = next(e for e in scenario.fault_events if e.kind == "heal_all")
    unhealed = _rebuild(
        scenario, [e for e in scenario.fault_events if e is not heal])
    assert {(v.oracle, v.kind) for v in run_scenario(unhealed).violations} \
        == {("smr-convergence", "membership")}
    assert not same_failure(scenario)(unhealed)


@pytest.fixture
def cross_ring_recovery(monkeypatch):
    """Re-open the cross-ring recovery bug: absorb every decoded old packet
    into the old-ring buffer, whichever old ring rebroadcast it."""

    def absorb_unfiltered(self):
        while True:
            packet = self.srp.recv_buffer.get(self._recovery_absorbed + 1)
            if packet is None:
                return
            self._recovery_absorbed += 1
            for chunk in packet.chunks:
                if chunk.kind is not ChunkKind.ENCAPSULATED:
                    continue
                blob = self._recovery_reassembler.feed(packet.sender, chunk)
                if blob is None:
                    continue
                old_packet = decode_packet(blob)
                if isinstance(old_packet, DataPacket):
                    self.old.buffer.insert(old_packet)

    monkeypatch.setattr(MembershipProtocol, "absorb_recovery_progress",
                        absorb_unfiltered)


CROSS_RING_SEEDS = [
    os.path.join(SCENARIO_DIR, f"generated_passive_seed{seed}.json")
    for seed in (224, 228, 277, 285)]


@pytest.mark.parametrize("path", CROSS_RING_SEEDS,
                         ids=[os.path.basename(p)[:-5]
                              for p in CROSS_RING_SEEDS])
def test_recovery_origin_rule_catches_cross_ring_recovery(
        path, cross_ring_recovery):
    """Without the engine's old-ring filter a fresh incarnation delivers
    another ring's recovered messages in its transitional configuration:
    the agreement oracle and the white-box recovery-origin rule both flag
    it."""
    result = run_scenario(load_scenario(path))
    oracles = {v.oracle for v in result.violations}
    assert "agreement" in oracles
    assert any(v.oracle == "invariants" and "recovery-origin" in v.detail
               for v in result.violations), result.violations


def test_minimize_refuses_passing_scenario():
    scenario = load_scenario(os.path.join(SCENARIO_DIR, "active_loss.json"))
    with pytest.raises(ValueError, match="does not fail"):
        minimize_scenario(scenario)

