"""Unit tests for admission control: token bucket + weighted-fair queue."""

import random

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

    @pytest.mark.parametrize("seed", range(5))
    def test_unchanged_or_backwards_now_leaves_the_bucket_as_refill_did(
            self, seed):
        """Every query refilled first, and the refill clamped with ``min``
        (kept below as the reference); now a query at a ``now`` that has not
        advanced skips the refill.  Answers and ``(_tokens, _last)`` must be
        identical, bit for bit, after every step of a clock that also stands
        still and steps back."""

        class ReferenceBucket(TokenBucket):
            def _refill(self, now):
                if now > self._last:
                    self._tokens = min(
                        self.burst,
                        self._tokens + (now - self._last) * self.rate)
                    self._last = now

            def peek(self, now):
                self._refill(now)
                return self._tokens >= 1.0

            def try_take(self, now):
                self._refill(now)
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return True
                return False

            def next_available(self, now):
                self._refill(now)
                if self._tokens >= 1.0:
                    return 0.0
                return (1.0 - self._tokens) / self.rate

        rng = random.Random(seed)
        bucket = TokenBucket(rate=700.0, burst=3)
        reference = ReferenceBucket(rate=700.0, burst=3)
        now = 0.0
        moves = {"same": 0, "back": 0, "forward": 0}
        for _ in range(600):
            move = rng.choice(("same", "same", "back", "forward"))
            moves[move] += 1
            if move == "back":
                now -= rng.choice((now, 0.001, 1e-9))
            elif move == "forward":
                now += rng.choice((1e-9, 0.0004, 0.002, 0.5))
            query = rng.choice(("peek", "try_take", "next_available"))
            assert (getattr(bucket, query)(now)
                    == getattr(reference, query)(now))
            assert ((bucket._tokens, bucket._last)
                    == (reference._tokens, reference._last))
        assert all(moves.values())


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

    def test_lanes_are_bounded_by_capacity_under_client_churn(self):
        """10,000 distinct clients through a 512-slot queue: a lane lives
        only while it holds a request, whichever way it empties (every lane
        ever created stayed before — 10,000 of them after the drain)."""
        queue = FairAdmissionQueue(capacity=512, per_client_limit=64)
        most_lanes = 0
        for client in range(10_000):
            deadline = client + 0.5 if client % 7 == 0 else None
            assert queue.offer(request(client, 1, deadline=deadline))
            most_lanes = max(most_lanes, len(queue._lanes))
            if len(queue) == queue.capacity:
                now = float(client)
                queue.sweep_expired(now)              # empties some lanes
                for _ in range(200):                  # pop empties others
                    assert queue.pop(now)[0] is not None
                popped, _ = queue.pop(now)
                queue.requeue_front(popped)           # re-creates one
        assert most_lanes <= queue.capacity
        left = len(queue)
        assert left == len(queue._lanes) > 0      # one request per client
        assert len(list(queue.drain_all())) == left
        assert len(queue) == 0
        assert len(queue._lanes) == 0 and len(queue._active) == 0

    def test_returning_client_is_served_alike_however_its_lane_emptied(self):
        """A weight-2 client's lane empties with one credit unspent — by
        ``pop`` in one queue, by ``sweep_expired`` in the other.  When the
        client returns it gets its two requests per round in both (the
        swept lane kept the stale credit before and got one)."""

        def emptied_by(path):
            queue = FairAdmissionQueue(capacity=10)
            queue.offer(request(1, 1, weight=2))
            if path == "sweep":
                queue.offer(request(1, 2, weight=2, deadline=1.0))
            queue.offer(request(2, 1))
            queue.offer(request(2, 2))
            assert queue.pop(0.0)[0].uid == 1      # one credit left
            if path == "sweep":
                assert [r.uid for r in queue.sweep_expired(2.0)] == [2]
            return queue

        orders = {}
        for path in ("pop", "sweep"):
            queue = emptied_by(path)
            assert queue.depth_of(1) == 0
            for uid in (3, 4, 5):
                queue.offer(request(1, uid, weight=2))
            orders[path] = [(r.client, r.uid) for r in
                            (queue.pop(3.0)[0] for _ in range(5))]
        assert orders["sweep"] == orders["pop"]
        assert orders["pop"] == [(2, 1), (1, 3), (1, 4), (2, 2), (1, 5)]
