"""Unit tests for the delivery-consistency oracles (repro.campaign.oracles).

Each oracle is exercised on hand-built delivery logs — no cluster runs —
so the judgement logic itself is pinned down independently of the
simulator.
"""

from repro.campaign.oracles import (
    NodeHistory,
    SmrEndState,
    check_agreement,
    check_merge_agreement,
    check_no_duplicates,
    check_sender_fifo,
    check_smr_convergence,
    check_total_order,
    check_transparency,
    stream_digest,
)
from repro.campaign.runner import make_payload, payload_uid
from repro.multiring import CrossRingMerger, encode_data, encode_marker
from repro.types import DeliveredMessage, RingId

RING = RingId(seq=4, representative=1)
RING2 = RingId(seq=8, representative=2)


def msg(sender, seq, uid=None, ring=RING, delivered_in=None):
    payload = (make_payload(sender, uid, 32) if uid is not None
               else b"opaque")
    return DeliveredMessage(sender=sender, seq=seq, payload=payload,
                            ring_id=ring, delivered_in=delivered_in)


def history(node, messages, incarnation=0):
    return NodeHistory(node=node, incarnation=incarnation,
                       messages=list(messages))


class TestPayloadTagging:
    def test_round_trip(self):
        payload = make_payload(3, 17, 64)
        assert len(payload) == 64
        assert payload_uid(payload) == 17

    def test_smr_wrapped_payload_recognised(self):
        # The SMR layer prefixes commands with an opcode byte.
        assert payload_uid(b"\x01" + make_payload(1, 5, 40)) == 5

    def test_foreign_payload_ignored(self):
        assert payload_uid(b"not a campaign payload") is None
        assert payload_uid(b"") is None


class TestAgreement:
    def test_identical_streams_pass(self):
        a = history(1, [msg(1, 1, 1), msg(2, 1, 2)])
        b = history(2, [msg(1, 1, 1), msg(2, 1, 2)])
        assert check_agreement([a, b]) == []

    def test_prefix_is_allowed(self):
        a = history(1, [msg(1, 1, 1), msg(2, 1, 2)])
        b = history(2, [msg(1, 1, 1)])
        assert check_agreement([a, b]) == []

    def test_divergence_flagged(self):
        a = history(1, [msg(1, 1, 1), msg(2, 1, 2)])
        b = history(2, [msg(1, 1, 1), msg(3, 1, 9)])
        violations = check_agreement([a, b])
        assert len(violations) == 1
        assert violations[0].oracle == "agreement"
        assert "position 1" in violations[0].detail

    def test_agreement_is_per_configuration(self):
        # Divergence across *different* delivery configurations is legal
        # (EVS only promises agreement within a configuration).
        a = history(1, [msg(1, 1, 1, ring=RING)])
        b = history(2, [msg(2, 1, 2, ring=RING2)])
        assert check_agreement([a, b]) == []

    def test_delivery_config_overrides_ring(self):
        # Recovered messages are judged in the configuration they were
        # delivered in, not the ring they were sent on.
        a = history(1, [msg(1, 1, 1, ring=RING, delivered_in=RING2)])
        b = history(2, [msg(2, 1, 2, ring=RING2)])
        violations = check_agreement([a, b])
        assert len(violations) == 1


class TestTotalOrder:
    def test_restarted_incarnations_excluded(self):
        a = history(1, [msg(1, 1, 1), msg(2, 1, 2)])
        late = history(3, [msg(2, 1, 2)], incarnation=1)  # joined mid-stream
        assert check_total_order([a, late]) == []

    def test_cross_config_divergence_flagged(self):
        a = history(1, [msg(1, 1, 1, ring=RING)])
        b = history(2, [msg(2, 1, 2, ring=RING2)])
        violations = check_total_order([a, b])
        assert len(violations) == 1
        assert violations[0].oracle == "total-order"


def merger(rounds):
    """A two-ring merger fed ``rounds``: per round, ring 0's bodies; ring 1
    stays idle and closes every round with a skip marker."""
    result = CrossRingMerger([0, 1])
    for round_no, bodies in enumerate(rounds, start=1):
        result.feed_sweep(0, [DeliveredMessage(
            sender=1, seq=seq, payload=encode_data(body), ring_id=RING)
            for seq, body in enumerate(bodies, start=1)])
        for group in (0, 1):
            result.feed(group, DeliveredMessage(
                sender=group * 1000 + 1, seq=99,
                payload=encode_marker(group, round_no), ring_id=RING))
    return result


class TestMergeAgreement:
    def test_identical_logs_and_prefixes_pass(self):
        full = merger([[b"a", b"b"], [b"c"]])
        assert check_merge_agreement({
            1: full, 2: merger([[b"a", b"b"], [b"c"]]),
            3: merger([[b"a", b"b"]])}) == []
        assert full.rounds_emitted == 2 and len(full.merged) == 3

    def test_a_changed_body_is_flagged(self):
        violations = check_merge_agreement({
            1: merger([[b"a", b"b"], [b"c"]]),
            2: merger([[b"a", b"B"], [b"c"]])})
        assert len(violations) == 1
        assert violations[0].oracle == "merge-agreement"
        assert "members 1 and 2 diverge at merged entry 1" in (
            violations[0].detail)

    def test_a_swapped_round_is_flagged(self):
        # Same messages, same order: only the round boundaries differ.
        violations = check_merge_agreement({
            1: merger([[b"a"], [], [b"b"]]),
            2: merger([[], [b"a"], [b"b"]])})
        assert [v.oracle for v in violations] == ["merge-agreement"]
        detail = violations[0].detail
        assert "at merged entry 0: " in detail
        assert "round=1 group=0" in detail and "round=2 group=0" in detail

    def test_a_merge_clock_that_emitted_nothing_is_flagged(self):
        idle = CrossRingMerger([0, 1])
        idle.feed(0, DeliveredMessage(sender=1, seq=1,
                                      payload=encode_marker(0, 1),
                                      ring_id=RING))
        violations = check_merge_agreement({1: merger([[b"a"]]), 2: idle})
        assert [v.detail for v in violations] == [
            "member 2's merge clock emitted no round"]


class TestDuplicatesAndFifo:
    def test_duplicate_flagged(self):
        h = history(1, [msg(1, 1, 7), msg(1, 2, 7)])
        violations = check_no_duplicates([h], payload_uid)
        assert len(violations) == 1
        assert "twice" in violations[0].detail

    def test_same_uid_different_sender_ok(self):
        h = history(1, [msg(1, 1, 7), msg(2, 1, 7)])
        assert check_no_duplicates([h], payload_uid) == []

    def test_fifo_violation_flagged(self):
        h = history(1, [msg(1, 1, 2), msg(1, 2, 1)])
        violations = check_sender_fifo([h], payload_uid)
        assert len(violations) == 1
        assert violations[0].oracle == "sender-fifo"

    def test_gaps_do_not_trip_fifo(self):
        h = history(1, [msg(1, 1, 1), msg(1, 2, 5)])
        assert check_sender_fifo([h], payload_uid) == []

    def test_opaque_payloads_skipped(self):
        h = history(1, [msg(1, 1), msg(1, 2)])
        assert check_no_duplicates([h], payload_uid) == []
        assert check_sender_fifo([h], payload_uid) == []


class TestSmrConvergence:
    def state(self, node, alive=True, synced=True, digest="aa",
              membership=(1, 2, 3, 4)):
        return SmrEndState(node=node, alive=alive, synced=synced,
                           state_digest=digest, membership=membership)

    def test_converged_cluster_passes(self):
        states = [self.state(n) for n in (1, 2, 3, 4)]
        assert check_smr_convergence(states) == []

    def test_single_survivor_trivially_passes(self):
        states = [self.state(1), self.state(2, alive=False, digest="zz")]
        assert check_smr_convergence(states) == []

    def test_membership_split_flagged(self):
        states = [self.state(1), self.state(2, membership=(1, 2))]
        violations = check_smr_convergence(states)
        assert len(violations) == 1
        assert "one membership" in violations[0].detail

    def test_unsynced_node_flagged(self):
        states = [self.state(1), self.state(2, synced=False)]
        violations = check_smr_convergence(states)
        assert any("state transfer" in v.detail for v in violations)

    def test_state_divergence_flagged(self):
        states = [self.state(1), self.state(2, digest="bb")]
        violations = check_smr_convergence(states)
        assert any("diverged" in v.detail for v in violations)

    def test_dead_nodes_ignored(self):
        states = [self.state(1), self.state(2),
                  self.state(3, alive=False, digest="bb",
                             membership=(1, 2, 3))]
        assert check_smr_convergence(states) == []


class TestTransparency:
    def test_equal_delivery_passes(self):
        seen = {1: frozenset({(1, 1), (1, 2)})}
        assert check_transparency(seen, seen) == []

    def test_extra_delivery_passes(self):
        # The faulty run may deliver *more* (twin stopped earlier), never less.
        twin = {1: frozenset({(1, 1)})}
        run = {1: frozenset({(1, 1), (2, 9)})}
        assert check_transparency(run, twin) == []

    def test_lost_message_flagged(self):
        twin = {1: frozenset({(1, 1), (1, 2)}), 2: frozenset({(1, 1)})}
        run = {1: frozenset({(1, 1)}), 2: frozenset({(1, 1)})}
        violations = check_transparency(run, twin)
        assert len(violations) == 1
        assert violations[0].oracle == "transparency"
        assert "node 1 lost 1" in violations[0].detail


class TestStreamDigest:
    def test_digest_is_order_sensitive(self):
        a, b = msg(1, 1, 1), msg(2, 1, 2)
        assert stream_digest([a, b]) != stream_digest([b, a])
        assert stream_digest([a, b]) == stream_digest([a, b])
        assert len(stream_digest([])) == 16


class TestServiceDecisions:
    from repro.campaign.oracles import check_service_decisions as check

    check = staticmethod(check)

    def test_every_request_decided_passes(self):
        issued = [(1, 1), (1, 2), (2, 1)]
        decisions = {(1, 1): "admit", (1, 2): "queue-full", (2, 1): "admit"}
        assert self.check(issued, decisions) == []

    def test_undecided_request_flagged(self):
        violations = self.check([(1, 1), (1, 2)], {(1, 1): "admit"})
        assert len(violations) == 1
        assert violations[0].oracle == "service-decision"
        assert "never received a decision" in violations[0].detail

    def test_phantom_decision_flagged(self):
        violations = self.check([(1, 1)], {(1, 1): "admit", (9, 9): "admit"})
        assert len(violations) == 1
        assert "never issued" in violations[0].detail

    def test_empty_run_passes(self):
        assert self.check([], {}) == []


class TestServiceCompletion:
    from repro.campaign.oracles import check_service_completion as check

    check = staticmethod(check)

    def test_all_members_applied_passes(self):
        admitted = frozenset({(1, 1), (2, 1)})
        applied = {m: frozenset({(1, 1), (2, 1), (3, 7)}) for m in (1, 2)}
        assert self.check(admitted, applied, [1, 2]) == []

    def test_missing_apply_flagged_per_member(self):
        admitted = frozenset({(1, 1)})
        applied = {1: frozenset({(1, 1)}), 2: frozenset()}
        violations = self.check(admitted, applied, [1, 2])
        assert len(violations) == 1
        assert violations[0].oracle == "service-completion"
        assert "member 2" in violations[0].detail

    def test_restarted_member_not_checked(self):
        # The runner only passes continuously-alive members.
        admitted = frozenset({(1, 1)})
        applied = {1: frozenset({(1, 1)}), 3: frozenset()}
        assert self.check(admitted, applied, [1]) == []


class TestServiceTransparency:
    from repro.campaign.oracles import check_service_transparency as check

    check = staticmethod(check)

    def test_sheds_are_the_only_deviation_passes(self):
        twin = frozenset({(1, 1), (1, 2), (2, 1)})
        applied = {1: frozenset({(1, 1), (2, 1)})}
        shed = frozenset({(1, 2)})
        assert self.check(twin, applied, shed, [1]) == []

    def test_silent_loss_flagged(self):
        twin = frozenset({(1, 1), (1, 2)})
        applied = {1: frozenset({(1, 1)})}
        violations = self.check(twin, applied, frozenset(), [1])
        assert len(violations) == 1
        assert violations[0].oracle == "service-transparency"
        assert "silently lost" in violations[0].detail

    def test_extra_applies_in_faulty_run_pass(self):
        twin = frozenset({(1, 1)})
        applied = {1: frozenset({(1, 1), (5, 5)})}
        assert self.check(twin, applied, frozenset(), [1]) == []
