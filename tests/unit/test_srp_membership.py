"""Unit tests for the SRP membership machinery, driven with fakes."""

from __future__ import annotations

import pytest

from repro.srp import membership
from repro.srp.membership import SrpState
from repro.types import RingId
from repro.wire.packets import CommitToken, JoinMessage, MemberInfo, Token

from test_srp_engine import FakeTransport, data_packet, make_srp


def join(sender, proc, fail=(), ring_seq=0) -> JoinMessage:
    return JoinMessage(sender=sender, proc_set=frozenset(proc),
                       fail_set=frozenset(fail), ring_seq=ring_seq)


class TestJoinHandling:
    def test_foreign_join_triggers_gather(self):
        scheduler, srp, transport, _ = make_srp(node_id=2)
        assert srp.state is SrpState.OPERATIONAL
        srp.memb.on_join(join(9, {1, 2, 3, 9}, ring_seq=0))
        assert srp.state is SrpState.GATHER
        assert transport.joins
        assert 9 in srp.memb._proc_set

    def test_stale_own_ring_join_ignored(self):
        """A late duplicate of the join that formed the current ring must
        not destabilise it."""
        scheduler, srp, transport, _ = make_srp(node_id=2)
        srp.memb.on_join(join(1, {1, 2, 3}, ring_seq=0))  # ring.seq is 4
        assert srp.state is SrpState.OPERATIONAL

    def test_member_join_with_current_seq_triggers_gather(self):
        """A member broadcasting joins at the current ring seq lost the
        token: the ring has to re-form."""
        scheduler, srp, _, _ = make_srp(node_id=2)
        srp.memb.on_join(join(3, {1, 2, 3}, ring_seq=srp.ring_id.seq))
        assert srp.state is SrpState.GATHER

    def test_join_merge_grows_sets_and_rebroadcasts(self):
        scheduler, srp, transport, _ = make_srp(node_id=2)
        srp.memb.on_join(join(9, {2, 9}, ring_seq=0))
        sent = len(transport.joins)
        srp.memb.on_join(join(8, {2, 8}, fail={7}, ring_seq=0))
        assert len(transport.joins) > sent
        assert {8, 9} <= srp.memb._proc_set
        assert 7 in srp.memb._fail_set

    def test_own_id_never_adopted_into_fail_set(self):
        scheduler, srp, _, _ = make_srp(node_id=2)
        srp.memb.on_join(join(9, {2, 9}, fail={2}, ring_seq=0))
        assert 2 not in srp.memb._fail_set

    def test_highest_ring_seq_tracked(self):
        scheduler, srp, _, _ = make_srp(node_id=2)
        srp.memb.on_join(join(9, {1, 2, 3, 9}, ring_seq=400))
        assert srp.memb.highest_ring_seq == 400


class TestMutualAccusation:
    def test_accuser_is_failed_not_believed(self):
        scheduler, srp, transport, _ = make_srp(node_id=2, members=(1, 2, 3))
        srp.memb.enter_gather("test")
        srp.memb.on_join(join(9, {2, 9}, fail={2, 3}, ring_seq=0))
        # The accuser lands in our fail set; its accusation of node 3 is
        # NOT adopted (a deaf node accuses everyone).
        assert 9 in srp.memb._fail_set
        assert 3 not in srp.memb._fail_set

    def test_accuser_quarantined_while_operational(self):
        scheduler, srp, transport, _ = make_srp(node_id=2, members=(1, 2, 3))
        srp.memb.on_join(join(9, {2, 9}, fail={2}, ring_seq=0))
        assert srp.state is SrpState.OPERATIONAL  # no gather triggered
        assert srp.memb._quarantine.get(9, 0) > 0
        # Its later "innocent" join is also ignored while quarantined.
        srp.memb.on_join(join(9, {1, 2, 3, 9}, ring_seq=0))
        assert srp.state is SrpState.OPERATIONAL

    def test_quarantine_expires(self):
        scheduler, srp, transport, _ = make_srp(
            node_id=2, members=(1, 2, 3), rejoin_quarantine=0.05)
        srp.memb.on_join(join(9, {2, 9}, fail={2}, ring_seq=0))
        scheduler.run_until(scheduler.now() + 0.1)
        srp.memb.on_join(join(9, {1, 2, 3, 9}, ring_seq=0))
        assert srp.state is SrpState.GATHER

    def test_member_accusation_triggers_gather(self):
        """A current member that cannot hear us must be excluded, so its
        accusation does start a reconfiguration."""
        scheduler, srp, transport, _ = make_srp(node_id=2, members=(1, 2, 3))
        srp.memb.on_join(join(3, {1, 2, 3}, fail={2}, ring_seq=4))
        assert srp.state is SrpState.GATHER
        assert 3 in srp.memb._fail_set

    def test_accusation_during_commit_aborts_formation(self):
        scheduler, srp, transport, _ = make_srp(node_id=1, members=(1, 2))
        srp.memb.enter_gather("test")
        srp.memb.on_join(join(2, {1, 2}, ring_seq=4))
        assert srp.state is SrpState.COMMIT
        # Node 2, a member of the pending ring, now says it cannot hear us.
        srp.memb.on_join(join(2, {1, 2}, fail={1}, ring_seq=8))
        assert srp.state in (SrpState.GATHER, SrpState.COMMIT)
        assert 2 in srp.memb._fail_set


class TestPresenceBeacon:
    def test_representative_beacons_periodically(self):
        scheduler, srp, transport, _ = make_srp(
            node_id=1, members=(1, 2), presence_interval=0.1,
            token_loss_timeout=10.0)
        baseline = len(transport.joins)
        scheduler.run_until(0.35)
        beacons = transport.joins[baseline:]
        assert len(beacons) >= 3
        assert all(b.ring_seq == srp.ring_id.seq - 1 for b in beacons)

    def test_non_representative_does_not_beacon(self):
        scheduler, srp, transport, _ = make_srp(
            node_id=2, members=(1, 2), presence_interval=0.1,
            token_loss_timeout=10.0)
        scheduler.run_until(0.35)
        assert transport.joins == []

    def test_beacon_disabled(self):
        scheduler, srp, transport, _ = make_srp(
            node_id=1, members=(1, 2), presence_interval=0.0,
            token_loss_timeout=10.0)
        scheduler.run_until(0.35)
        assert transport.joins == []

    def test_own_beacon_is_stale_to_members(self):
        """A member receiving its representative's beacon must not gather."""
        scheduler, srp, transport, _ = make_srp(node_id=2, members=(1, 2))
        beacon = join(1, {1, 2}, ring_seq=srp.ring_id.seq - 1)
        srp.memb.on_join(beacon)
        assert srp.state is SrpState.OPERATIONAL


class TestConsensusAndFormation:
    def test_representative_forms_ring_on_consensus(self):
        scheduler, srp, transport, _ = make_srp(node_id=1, members=(1, 2))
        # Token loss pushes us into gather.
        srp.memb.enter_gather("test")
        # Node 2 echoes exactly our sets: consensus; we are the smallest id.
        srp.memb.on_join(join(2, {1, 2}, ring_seq=4))
        assert srp.state is SrpState.COMMIT
        assert transport.commits
        commit, dest = transport.commits[-1]
        assert commit.members == (1, 2)
        assert dest == 2
        assert commit.ring_id.seq > 4
        assert commit.info[1].old_ring_id == RingId(4, 1)

    def test_non_representative_waits_in_gather(self):
        scheduler, srp, transport, _ = make_srp(node_id=2, members=(1, 2))
        srp.memb.enter_gather("test")
        srp.memb.on_join(join(1, {1, 2}, ring_seq=4))
        assert srp.state is SrpState.GATHER
        assert not transport.commits

    def test_mismatched_views_block_consensus(self):
        scheduler, srp, transport, _ = make_srp(node_id=1, members=(1, 2))
        srp.memb.enter_gather("test")
        srp.memb.on_join(join(2, {1, 2, 9}, ring_seq=4))  # 2 knows about 9
        # Our set grew; 2's view no longer equals ours: no commit yet.
        assert srp.state is SrpState.GATHER

    def test_silent_node_moved_to_fail_set_by_timer(self):
        scheduler, srp, transport, _ = make_srp(
            node_id=1, members=(1, 2, 3), consensus_timeout=0.05)
        srp.memb.enter_gather("test")
        srp.memb.on_join(join(2, {1, 2, 3}, ring_seq=4))
        # Node 3 never joins; two consensus periods pass.
        scheduler.run_until(scheduler.now() + 0.12)
        assert 3 in srp.memb._fail_set

    def test_singleton_forms_ring_alone(self):
        scheduler, srp, transport, _ = make_srp(start=False,
                                                consensus_timeout=0.02)
        srp.start(None)
        scheduler.run_until(0.1)
        # The commit token to self travels via the transport.
        assert transport.commits
        assert transport.commits[0][1] == 1


class TestCommitTokenHandling:
    def _gathered(self, node_id=2, members=(1, 2)):
        scheduler, srp, transport, log = make_srp(node_id=node_id,
                                                  members=members)
        srp.memb.enter_gather("test")
        return scheduler, srp, transport, log

    def _commit(self, ring_seq=8, members=(1, 2), rotation=0, info=None):
        return CommitToken(ring_id=RingId(ring_seq, min(members)),
                           members=tuple(members), rotation=rotation,
                           info=dict(info or {}))

    def test_first_pass_fills_info_and_forwards(self):
        scheduler, srp, transport, _ = self._gathered()
        commit = self._commit(info={1: MemberInfo(RingId(4, 1), 0, 0)})
        srp.memb.on_commit_token(commit)
        assert srp.state is SrpState.COMMIT
        forwarded, dest = transport.commits[-1]
        assert 2 in forwarded.info
        assert dest == 1  # successor of 2 on the (1, 2) ring

    def test_non_member_ignores(self):
        scheduler, srp, transport, _ = self._gathered()
        srp.memb.on_commit_token(self._commit(members=(1, 3)))
        assert srp.state is SrpState.GATHER

    def test_stale_ring_seq_ignored(self):
        scheduler, srp, transport, _ = self._gathered()
        srp.memb.on_commit_token(self._commit(ring_seq=0))
        assert srp.state is SrpState.GATHER

    def test_duplicate_commit_token_ignored(self):
        scheduler, srp, transport, _ = self._gathered()
        commit = self._commit(info={1: MemberInfo(RingId(4, 1), 0, 0)})
        srp.memb.on_commit_token(commit)
        sent = len(transport.commits)
        srp.memb.on_commit_token(commit.copy())
        assert len(transport.commits) == sent

    def test_second_pass_enters_recovery(self):
        scheduler, srp, transport, _ = self._gathered()
        info = {1: MemberInfo(RingId(4, 1), my_aru=0, high_seq=0),
                2: MemberInfo(RingId(4, 1), my_aru=0, high_seq=0)}
        srp.memb.on_commit_token(self._commit(rotation=1, info=info))
        assert srp.state is SrpState.RECOVERY
        assert srp.ring_id.seq == 8
        # Forwarded the rotation-1 token onwards.
        assert transport.commits[-1][0].rotation == 1


class TestRecoveryPlanning:
    def test_designated_retransmitter_is_lowest_holder(self):
        """For each missing old-ring seq, the smallest node id whose aru
        covers it rebroadcasts (it provably holds the packet)."""
        scheduler, srp, transport, _ = make_srp(node_id=2, members=(1, 2, 3))
        old_ring = srp.ring_id
        for seq in (1, 2, 3, 4):
            srp.on_data(data_packet(seq, old_ring))
        srp.memb.enter_gather("test")
        info = {1: MemberInfo(old_ring, my_aru=1, high_seq=4),
                2: MemberInfo(old_ring, my_aru=4, high_seq=4),
                3: MemberInfo(old_ring, my_aru=2, high_seq=4)}
        commit = CommitToken(ring_id=RingId(8, 1), members=(1, 2, 3),
                             rotation=1, info=info)
        srp.memb.on_commit_token(commit)
        assert srp.state is SrpState.RECOVERY
        # low = 1 (min aru); seqs 2..4 need recovery.  Node 3 covers seq 2
        # (ids: 3's aru=2 but 2's aru=4 and 2<3 -> node 2 designated for 2,
        # 3, 4)... node 2 is the smallest id with aru >= seq for all three.
        pending_seqs = [p.seq for p in srp.memb._recovery_pending]
        assert pending_seqs == [2, 3, 4]

    def test_not_designated_when_lower_id_holds(self):
        scheduler, srp, transport, _ = make_srp(node_id=3, members=(1, 2, 3))
        old_ring = srp.ring_id
        for seq in (1, 2, 3):
            srp.on_data(data_packet(seq, old_ring))
        srp.memb.enter_gather("test")
        info = {1: MemberInfo(old_ring, my_aru=3, high_seq=3),
                2: MemberInfo(old_ring, my_aru=1, high_seq=3),
                3: MemberInfo(old_ring, my_aru=3, high_seq=3)}
        commit = CommitToken(ring_id=RingId(8, 1), members=(1, 2, 3),
                             rotation=1, info=info)
        srp.memb.on_commit_token(commit)
        # Node 1 (smaller id, same coverage) is designated, not us.
        assert srp.memb._recovery_pending == []

    def test_recovery_token_broadcasts_encapsulated_and_completes(self):
        scheduler, srp, transport, log = make_srp(node_id=1, members=(1, 2))
        old_ring = srp.ring_id
        srp.on_data(data_packet(1, old_ring, payload=b"old"))
        srp.memb.enter_gather("test")
        info = {1: MemberInfo(old_ring, my_aru=1, high_seq=1),
                2: MemberInfo(old_ring, my_aru=0, high_seq=1)}
        new_ring = RingId(8, 1)
        commit = CommitToken(ring_id=new_ring, members=(1, 2),
                             rotation=1, info=info)
        srp.memb.on_commit_token(commit)
        assert [p.seq for p in srp.memb._recovery_pending] == [1]
        # Regular token of the new ring arrives: we broadcast the
        # encapsulated old packet.
        srp.on_token(Token(ring_id=new_ring, seq=0, rotation=0))
        encap = [p for p in transport.data if p.ring_id == new_ring]
        assert encap
        # Second visit: nothing pending, caught up -> our done vote.
        token2 = Token(ring_id=new_ring, seq=transport.tokens[-1][0].seq,
                       rotation=1, done_count=1)
        srp.on_token(token2)
        assert srp.state is SrpState.OPERATIONAL
        # Transitional + regular config changes delivered.
        assert [c.transitional for c in log.config_changes][-2:] == [True, False]


# ----- the module docstring's transition table, row by row -----

def table_rows():
    """(state, event, next) of every row of repro.srp.membership's table."""
    lines = membership.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("====")]
    assert len(rules) == 3, "the docstring table lost its rule lines"
    return [tuple(line.split()[:3]) for line in lines[rules[1] + 1:rules[2]]]


#: One driver per table row: it brings a fresh engine to the row's state and
#: delivers the row's event; the test then checks the row's next state.
DRIVERS = {}


def driver(state, event):
    def register(fn):
        DRIVERS[(state, event)] = fn
        return fn
    return register


def lose_token(scheduler, srp):
    scheduler.run_until(srp._token_loss_timer.when)


def operational(node_id=2):
    return make_srp(node_id=node_id, members=(1, 2, 3))


def gathered(node_id=2, members=(1, 2, 3), **overrides):
    scheduler, srp, transport, log = make_srp(node_id=node_id,
                                              members=members, **overrides)
    srp.memb.enter_gather("test")
    return scheduler, srp, transport, log


def committed():
    """Node 1 formed ring 8 with node 2 and sent its commit token."""
    scheduler, srp, transport, log = gathered(node_id=1, members=(1, 2))
    srp.memb.on_join(join(2, {1, 2}, ring_seq=4))
    return scheduler, srp, transport, log


NEW_RING = RingId(8, 1)


def recovering():
    """Node 1, representative of ring 8, holds one old-ring packet node 2
    lacks (the state of test_recovery_token_broadcasts_...)."""
    scheduler, srp, transport, log = make_srp(node_id=1, members=(1, 2))
    old_ring = srp.ring_id
    srp.on_data(data_packet(1, old_ring, payload=b"old"))
    srp.memb.enter_gather("test")
    srp.memb.on_commit_token(CommitToken(
        ring_id=NEW_RING, members=(1, 2), rotation=1,
        info={1: MemberInfo(old_ring, my_aru=1, high_seq=1),
              2: MemberInfo(old_ring, my_aru=0, high_seq=1)}))
    return scheduler, srp, transport, log


@driver("OPERATIONAL", "token")
def _(expect):
    scheduler, srp, transport, _ = operational()
    assert srp.state is expect
    srp.on_token(Token(ring_id=srp.ring_id))
    assert srp.stats.tokens_accepted == 1
    return srp


@driver("OPERATIONAL", "token-loss")
def _(expect):
    scheduler, srp, _, _ = operational()
    assert srp.state is expect
    lose_token(scheduler, srp)
    return srp


@driver("OPERATIONAL", "foreign-data")
def _(expect):
    _, srp, _, _ = operational()
    assert srp.state is expect
    srp.on_data(data_packet(1, RingId(12, 9), sender=9))
    return srp


@driver("OPERATIONAL", "foreign-join")
def _(expect):
    _, srp, _, _ = operational()
    assert srp.state is expect
    srp.memb.on_join(join(9, {1, 2, 3, 9}, ring_seq=0))
    assert 9 in srp.memb._proc_set
    return srp


@driver("OPERATIONAL", "stale-join")
def _(expect):
    _, srp, _, _ = operational()
    assert srp.state is expect
    srp.memb.on_join(join(1, {1, 2, 3}, ring_seq=0))
    return srp


@driver("OPERATIONAL", "accusing-join")
def _(expect):
    _, srp, _, _ = operational()
    assert srp.state is expect
    srp.memb.on_join(join(9, {2, 9}, fail={2}, ring_seq=0))
    assert 9 in srp.memb._quarantine
    return srp


@driver("GATHER", "join")
def _(expect):
    _, srp, transport, _ = gathered()
    assert srp.state is expect
    sent = len(transport.joins)
    srp.memb.on_join(join(9, {2, 9}, ring_seq=4))
    assert len(transport.joins) > sent  # the sets grew
    return srp


@driver("GATHER", "consensus-join")
def _(expect):
    _, srp, transport, _ = gathered(node_id=1, members=(1, 2))
    assert srp.state is expect
    srp.memb.on_join(join(2, {1, 2}, ring_seq=4))
    assert transport.commits[-1][0].rotation == 0
    return srp


@driver("GATHER", "consensus-timeout")
def _(expect):
    scheduler, srp, _, _ = gathered(node_id=1, consensus_timeout=0.05)
    assert srp.state is expect
    srp.memb.on_join(join(2, {1, 2, 3}, ring_seq=4))
    scheduler.run_until(srp.memb._consensus_timer.when)
    assert 3 in srp.memb._fail_set  # node 3 never joined
    return srp


@driver("GATHER", "commit-rotation-0")
def _(expect):
    _, srp, transport, _ = gathered(members=(1, 2))
    assert srp.state is expect
    srp.memb.on_commit_token(CommitToken(
        ring_id=NEW_RING, members=(1, 2), rotation=0,
        info={1: MemberInfo(RingId(4, 1), 0, 0)}))
    assert 2 in transport.commits[-1][0].info
    return srp


@driver("GATHER", "commit-rotation-1")
def _(expect):
    _, srp, _, _ = gathered(members=(1, 2))
    assert srp.state is expect
    info = {n: MemberInfo(RingId(4, 1), 0, 0) for n in (1, 2)}
    srp.memb.on_commit_token(CommitToken(
        ring_id=NEW_RING, members=(1, 2), rotation=1, info=info))
    assert srp.memb.old.ring_id == RingId(4, 1)
    return srp


@driver("COMMIT", "commit-returned")
def _(expect):
    _, srp, transport, _ = committed()
    assert srp.state is expect
    commit = transport.commits[-1][0].copy()
    commit.info[2] = MemberInfo(RingId(4, 1), 0, 0)
    srp.memb.on_commit_token(commit)
    assert transport.commits[-1][0].rotation == 1
    return srp


@driver("COMMIT", "newer-join")
def _(expect):
    _, srp, transport, _ = committed()
    assert srp.state is expect
    forming = transport.commits[-1][0].ring_id.seq
    # It also names node 3, so the new gather has no consensus yet.
    srp.memb.on_join(join(2, {1, 2, 3}, ring_seq=forming))
    return srp


@driver("COMMIT", "older-join")
def _(expect):
    _, srp, _, _ = committed()
    assert srp.state is expect
    srp.memb.on_join(join(2, {1, 2}, ring_seq=4))
    return srp


@driver("COMMIT", "token-loss")
def _(expect):
    scheduler, srp, _, _ = committed()
    assert srp.state is expect
    lose_token(scheduler, srp)
    return srp


@driver("RECOVERY", "data")
def _(expect):
    _, srp, _, _ = recovering()
    assert srp.state is expect
    srp.on_data(data_packet(1, NEW_RING, sender=2))
    assert srp.memb._recovery_absorbed == 1
    return srp


@driver("RECOVERY", "token")
def _(expect):
    _, srp, transport, _ = recovering()
    assert srp.state is expect
    srp.on_token(Token(ring_id=NEW_RING))
    assert [p for p in transport.data if p.ring_id == NEW_RING]
    return srp


@driver("RECOVERY", "token-all-done")
def _(expect):
    _, srp, transport, log = recovering()
    assert srp.state is expect
    srp.on_token(Token(ring_id=NEW_RING))
    srp.on_token(Token(ring_id=NEW_RING, seq=transport.tokens[-1][0].seq,
                       rotation=1, done_count=1))
    assert [c.transitional for c in log.config_changes][-2:] == [True, False]
    assert srp.memb.old is None
    return srp


@driver("RECOVERY", "token-loss")
def _(expect):
    scheduler, srp, _, log = recovering()
    assert srp.state is expect
    lose_token(scheduler, srp)
    assert not any(c.transitional for c in log.config_changes)
    return srp


@driver("RECOVERY", "token-loss-voted-done")
def _(expect):
    scheduler, srp, _, log = recovering()
    assert srp.state is expect
    srp.on_token(Token(ring_id=NEW_RING))
    assert srp.memb._voted_done
    lose_token(scheduler, srp)
    assert [c.transitional for c in log.config_changes][-2:] == [True, False]
    return srp


@pytest.mark.parametrize("state,event,after", table_rows(),
                         ids=lambda value: value.lower())
def test_transition_table_row(state, event, after):
    """Each row of the module docstring's table holds on the engine: the
    driver reaches ``state``, delivers ``event``, and ``after`` follows."""
    srp = DRIVERS[(state, event)](SrpState[state])
    assert srp.state is SrpState[after]
