"""Property: ``FairAdmissionQueue.sweep_expired``'s early return changes nothing.

``sweep_expired`` returns before walking the lanes while ``now`` has not
passed a lower bound on the earliest queued deadline.  The sweep as it was
before that bound existed is kept here as the reference implementation and
both queues are driven with the same random ``offer`` / ``pop`` /
``requeue_front`` / ``sweep_expired`` / ``drain_all`` sequences, over
requests with and without deadlines and a clock that also steps backwards.
After every step the returned values, the length, the lane order, every
lane's content and its deficit-round-robin credit must be identical — and no
queue may keep an empty lane: the reference deletes the lanes its sweep
empties exactly as the bounded sweep does, because a lane that outlived its
last request would keep its credit for the client's return.

A second property pins ``requeue_front``: putting back the request ``pop``
just returned leaves the deficit-round-robin schedule as it was, so every
later pop comes out in the order of a queue that never popped.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.admission import FairAdmissionQueue
from repro.service.types import Request


class ReferenceQueue(FairAdmissionQueue):
    """``sweep_expired`` as it was: every lane rebuilt on every call."""

    def sweep_expired(self, now):
        expired = []
        for client in list(self._active):
            lane = self._lanes[client]
            kept = deque()
            for request in lane.queue:
                if self._expired(request, now):
                    expired.append(request)
                    self._size -= 1
                else:
                    kept.append(request)
            if kept:
                lane.queue = kept
            else:
                del self._lanes[client]
        if expired:
            self._active = deque(
                c for c in self._active if c in self._lanes)
        return expired


def state(queue: FairAdmissionQueue):
    assert sorted(queue._lanes) == sorted(queue._active)
    assert all(lane.queue for lane in queue._lanes.values())
    return (len(queue), list(queue._active),
            {client: (list(lane.queue), lane.deficit, lane.weight)
             for client, lane in queue._lanes.items()})


times = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
operation = st.one_of(
    st.tuples(st.just("offer"), st.integers(min_value=1, max_value=4),
              st.one_of(st.none(), times),
              st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("pop"), times),
    st.tuples(st.just("pop_requeue"), times),
    st.tuples(st.just("sweep"), times),
    st.tuples(st.just("drain")))


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=12),
       per_client=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
       operations=st.lists(operation, max_size=60))
def test_bounded_sweep_matches_the_full_sweep(capacity, per_client,
                                              operations):
    queue = FairAdmissionQueue(capacity, per_client)
    reference = ReferenceQueue(capacity, per_client)
    for uid, op in enumerate(operations):
        kind = op[0]
        if kind == "offer":
            request = Request(client=op[1], uid=uid, key=b"k", body=b"b",
                              deadline=op[2], weight=op[3])
            assert queue.offer(request) == reference.offer(request)
        elif kind == "pop":
            assert queue.pop(op[1]) == reference.pop(op[1])
        elif kind == "pop_requeue":
            # What the drain pump does when the popped request's ring has
            # no headroom: the request goes back to the head of its lane.
            popped, expired = queue.pop(op[1])
            assert (popped, expired) == reference.pop(op[1])
            if popped is not None:
                queue.requeue_front(popped)
                reference.requeue_front(popped)
        elif kind == "sweep":
            assert queue.sweep_expired(op[1]) == reference.sweep_expired(op[1])
        else:
            assert list(queue.drain_all()) == list(reference.drain_all())
        assert state(queue) == state(reference)


@settings(max_examples=300, deadline=None)
@given(offers=st.lists(st.tuples(st.integers(min_value=1, max_value=4),
                                 st.integers(min_value=1, max_value=3)),
                       min_size=1, max_size=24),
       popped_before=st.integers(min_value=0, max_value=8))
def test_requeue_front_leaves_the_pop_order_unchanged(offers, popped_before):
    queues = [FairAdmissionQueue(len(offers)) for _ in range(2)]
    for queue in queues:
        for uid, (client, weight) in enumerate(offers):
            queue.offer(Request(client=client, uid=uid, key=b"k", body=b"b",
                                weight=weight))
        # Pops before the requeue put lanes part-way through their turn.
        for _ in range(min(popped_before, len(offers) - 1)):
            queue.pop(0.0)
    requeued, untouched = queues
    request, _ = requeued.pop(0.0)
    requeued.requeue_front(request)

    def pop_order(queue):
        order = []
        while len(queue):
            order.append(queue.pop(0.0)[0])
        return order

    assert pop_order(requeued) == pop_order(untouched)
