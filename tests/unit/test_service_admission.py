"""Unit tests for admission control: token bucket + weighted-fair queue."""

import pytest

from repro.errors import ConfigError
from repro.service.admission import FairAdmissionQueue, TokenBucket
from repro.service.types import Request


def request(client, uid, deadline=None, weight=1):
    return Request(client=client, uid=uid, key=b"k", body=b"b",
                   deadline=deadline, weight=weight)


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(rate=100.0, burst=5)
        for _ in range(5):
            assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=10.0, burst=1)
        assert bucket.try_take(0.0)
        assert not bucket.peek(0.05)   # half a token
        assert bucket.peek(0.1)        # one full token
        assert bucket.try_take(0.1)

    def test_burst_caps_accumulation(self):
        bucket = TokenBucket(rate=1000.0, burst=3)
        bucket.try_take(0.0)
        # An hour of refill still yields only `burst` tokens.
        for _ in range(3):
            assert bucket.try_take(3600.0)
        assert not bucket.try_take(3600.0)

    def test_next_available(self):
        bucket = TokenBucket(rate=10.0, burst=1)
        assert bucket.next_available(0.0) == 0.0
        bucket.try_take(0.0)
        assert bucket.next_available(0.0) == pytest.approx(0.1)
        assert bucket.next_available(0.05) == pytest.approx(0.05)

    def test_peek_does_not_consume(self):
        bucket = TokenBucket(rate=10.0, burst=1)
        assert bucket.peek(0.0) and bucket.peek(0.0)
        assert bucket.try_take(0.0)

    def test_clock_never_runs_backwards(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        bucket.try_take(1.0)
        # A stale timestamp must not mint tokens or corrupt state.
        assert bucket.peek(0.5)
        assert bucket.tokens == pytest.approx(1.0)

    @pytest.mark.parametrize("rate,burst", [(0.0, 1), (-1.0, 1), (10.0, 0.5)])
    def test_bad_parameters_raise(self, rate, burst):
        with pytest.raises(ConfigError):
            TokenBucket(rate=rate, burst=burst)


class TestFairAdmissionQueue:
    def test_capacity_bound(self):
        queue = FairAdmissionQueue(capacity=2)
        assert queue.offer(request(1, 1))
        assert queue.offer(request(2, 1))
        assert queue.full
        assert not queue.offer(request(3, 1))
        assert len(queue) == 2

    def test_per_client_limit(self):
        queue = FairAdmissionQueue(capacity=10, per_client_limit=2)
        assert queue.offer(request(1, 1))
        assert queue.offer(request(1, 2))
        assert not queue.offer(request(1, 3))   # lane full
        assert queue.offer(request(2, 1))       # other clients unaffected
        assert queue.depth_of(1) == 2
        assert queue.depth_of(2) == 1
        assert queue.depth_of(99) == 0

    def test_round_robin_across_clients(self):
        queue = FairAdmissionQueue(capacity=10)
        for uid in (1, 2, 3):
            queue.offer(request(1, uid))
        queue.offer(request(2, 1))
        order = [queue.pop(0.0)[0] for _ in range(4)]
        popped = [(r.client, r.uid) for r in order]
        # Client 2's single request is served after client 1's first,
        # not starved behind the whole backlog.
        assert popped.index((2, 1)) < 3

    def test_weighted_drain_is_proportional(self):
        queue = FairAdmissionQueue(capacity=100)
        for uid in range(1, 9):
            queue.offer(request(1, uid, weight=2))
            queue.offer(request(2, uid, weight=1))
        first_six = [queue.pop(0.0)[0].client for _ in range(6)]
        # Deficit round robin: the weight-2 client gets ~2/3 of the slots.
        assert first_six.count(1) == 4
        assert first_six.count(2) == 2

    def test_pop_sweeps_expired_heads(self):
        queue = FairAdmissionQueue(capacity=10)
        queue.offer(request(1, 1, deadline=0.5))
        queue.offer(request(1, 2))
        live, expired = queue.pop(now=1.0)
        assert (live.client, live.uid) == (1, 2)
        assert [(r.client, r.uid) for r in expired] == [(1, 1)]
        assert len(queue) == 0

    def test_pop_empty(self):
        queue = FairAdmissionQueue(capacity=4)
        assert queue.pop(0.0) == (None, [])

    def test_sweep_expired_removes_mid_lane(self):
        queue = FairAdmissionQueue(capacity=10)
        queue.offer(request(1, 1))
        queue.offer(request(1, 2, deadline=0.1))
        queue.offer(request(2, 1, deadline=0.1))
        expired = queue.sweep_expired(now=0.2)
        assert sorted((r.client, r.uid) for r in expired) == [(1, 2), (2, 1)]
        assert len(queue) == 1
        live, _ = queue.pop(0.2)
        assert (live.client, live.uid) == (1, 1)

    def test_sweep_without_deadlines_walks_nothing(self, monkeypatch):
        # The drain pump sweeps on every tick; with no deadline queued the
        # sweep must not look at a single request.
        queue = FairAdmissionQueue(capacity=512)
        for uid in range(512):
            assert queue.offer(request(uid % 16, uid))
        probes = []
        real = FairAdmissionQueue._expired
        monkeypatch.setattr(
            FairAdmissionQueue, "_expired",
            staticmethod(lambda req, now: probes.append(req) or real(req, now)))
        assert queue.sweep_expired(now=1e9) == []
        assert probes == []
        assert len(queue) == 512

    def test_sweep_bound_follows_requeue_and_resets_after_a_sweep(self):
        queue = FairAdmissionQueue(capacity=10)
        queue.offer(request(1, 1, deadline=0.5))
        popped, _ = queue.pop(0.0)
        queue.offer(request(2, 1, deadline=2.0))
        queue.requeue_front(popped)        # the earliest deadline returns
        assert queue.sweep_expired(now=0.5) == []   # not *past* it yet
        assert [r.uid for r in queue.sweep_expired(now=1.0)] == [1]
        assert queue.sweep_expired(now=1.5) == []
        assert [r.client for r in queue.sweep_expired(now=2.5)] == [2]
        assert len(queue) == 0

    def test_requeue_front_preserves_fifo(self):
        queue = FairAdmissionQueue(capacity=10)
        queue.offer(request(1, 1))
        queue.offer(request(1, 2))
        popped, _ = queue.pop(0.0)
        assert popped.uid == 1
        queue.requeue_front(popped)
        assert len(queue) == 2
        again, _ = queue.pop(0.0)
        assert again.uid == 1

    def test_requeue_front_after_lane_emptied(self):
        queue = FairAdmissionQueue(capacity=10)
        queue.offer(request(1, 1))
        popped, _ = queue.pop(0.0)
        assert len(queue) == 0
        queue.requeue_front(popped)
        assert len(queue) == 1
        assert queue.pop(0.0)[0].uid == 1

    def test_requeue_front_beats_other_lanes(self):
        queue = FairAdmissionQueue(capacity=10)
        queue.offer(request(1, 1))
        queue.offer(request(2, 1))
        popped, _ = queue.pop(0.0)
        queue.requeue_front(popped)
        # The requeued request is served before any other lane.
        assert queue.pop(0.0)[0] == popped

    def test_drain_all_empties_everything(self):
        queue = FairAdmissionQueue(capacity=10)
        for client in (1, 2):
            for uid in (1, 2):
                queue.offer(request(client, uid))
        drained = list(queue.drain_all())
        assert len(drained) == 4
        assert len(queue) == 0
        assert queue.pop(0.0) == (None, [])

    @pytest.mark.parametrize("capacity,limit", [(0, None), (-1, None),
                                                (4, 0)])
    def test_bad_parameters_raise(self, capacity, limit):
        with pytest.raises(ConfigError):
            FairAdmissionQueue(capacity=capacity, per_client_limit=limit)
