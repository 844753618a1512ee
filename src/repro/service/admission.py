"""Admission control: token bucket + bounded weighted-fair queue.

Two deterministic building blocks, both driven purely by the virtual
clock value callers pass in (no wall clock, no hidden state):

* :class:`TokenBucket` — classic rate limiting.  Tokens refill
  continuously at ``rate`` per second up to ``burst``; a request costs
  one token.  ``next_available`` tells a shed client when retrying could
  succeed.
* :class:`FairAdmissionQueue` — a bounded admission queue with
  per-client FIFO lanes, deadline-aware expiry, and deficit-round-robin
  drain weighted by each request's ``weight``.  One heavy client fills
  only its own lane; the drain cycles lanes in deterministic (arrival,
  client-id) order, so a light client is never starved behind a heavy
  one (the per-client weighted-fairness requirement).
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigError
from .types import Request


class TokenBucket:
    """Continuous-refill token bucket on the virtual clock.

    The bucket's state only moves when ``now`` passes the time of the last
    refill: a query at the same (or an earlier) ``now`` reads the tokens as
    they stand, so the several questions one request asks at one virtual
    instant cost one refill between them.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ConfigError("token bucket rate must be positive")
        if burst < 1:
            raise ConfigError("token bucket burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last = 0.0

    def _refill(self, now: float) -> None:
        """Credit the time since the last refill (callers check that
        ``now`` has passed it)."""
        tokens = self._tokens + (now - self._last) * self.rate
        self._tokens = tokens if tokens < self.burst else self.burst
        self._last = now

    def peek(self, now: float) -> bool:
        """Whether one token is available at ``now`` (no consumption)."""
        if now > self._last:
            self._refill(now)
        return self._tokens >= 1.0

    def try_take(self, now: float) -> bool:
        """Consume one token if available."""
        if now > self._last:
            self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def next_available(self, now: float) -> float:
        """Virtual seconds from ``now`` until one token will exist."""
        if now > self._last:
            self._refill(now)
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.rate


class _Lane:
    """One client's FIFO lane plus its deficit-round-robin credit."""

    __slots__ = ("queue", "deficit", "weight")

    def __init__(self, weight: int = 1) -> None:
        self.queue: Deque[Request] = deque()
        self.deficit = 0
        self.weight = weight


class FairAdmissionQueue:
    """Bounded, deadline-aware, weighted-fair admission queue.

    ``capacity`` bounds the total queued requests; ``per_client_limit``
    bounds one client's lane so a single aggressive client cannot own
    the whole queue.  :meth:`pop` implements deficit round robin: each
    pass over the active lanes adds ``weight`` credits to a lane and
    drains requests while credit lasts, so over time clients receive
    service proportional to their weights regardless of arrival rates.

    A lane lives exactly as long as it holds a request: whichever path
    empties it (:meth:`pop`, an expiry, :meth:`drain_all`) deletes it, so
    memory is bounded by the queue's capacity however many distinct
    clients pass through, and a returning client always starts with zero
    credit and the weight of its next request.
    """

    def __init__(self, capacity: int, per_client_limit: Optional[int] = None) -> None:
        if capacity < 1:
            raise ConfigError("admission queue capacity must be >= 1")
        if per_client_limit is not None and per_client_limit < 1:
            raise ConfigError("per-client limit must be >= 1")
        self.capacity = capacity
        self.per_client_limit = per_client_limit or capacity
        #: One lane per client with a queued request (never an empty one).
        self._lanes: Dict[int, _Lane] = {}
        #: Round-robin order over active clients (stable, arrival order).
        self._active: Deque[int] = deque()
        self._size = 0
        #: Lower bound on the earliest deadline of any queued request
        #: (``inf`` when none carries one): lowered as requests enter,
        #: recomputed exactly by each full sweep, left alone by removals.
        self._earliest_deadline = inf

    def __len__(self) -> int:
        return self._size

    def offer(self, request: Request) -> bool:
        """Queue ``request``; False when the queue (or lane) is full."""
        if self._size >= self.capacity:
            return False
        client = request.client
        lane = self._lanes.get(client)
        if lane is None:
            lane = self._lanes[client] = _Lane()
            self._active.append(client)
        elif len(lane.queue) >= self.per_client_limit:
            return False
        lane.weight = max(1, request.weight)
        lane.queue.append(request)
        self._size += 1
        deadline = request.deadline
        if deadline is not None and deadline < self._earliest_deadline:
            self._earliest_deadline = deadline
        return True

    def pop(self, now: float) -> Tuple[Optional[Request], List[Request]]:
        """Next request by weighted fairness, plus any expired ones.

        Requests whose deadline passed are swept into the second return
        value (the caller sheds them as ``DEADLINE_EXPIRED``); the first
        value is the next live request, or None when the queue is empty.
        """
        expired: List[Request] = []
        while self._active:
            client = self._active[0]
            lane = self._lanes[client]
            # Drop expired heads before spending credit on them.
            while lane.queue and self._expired(lane.queue[0], now):
                expired.append(lane.queue.popleft())
                self._size -= 1
            if not lane.queue:
                self._active.popleft()
                del self._lanes[client]
                continue
            if lane.deficit <= 0:
                lane.deficit += lane.weight
            lane.deficit -= 1
            request = lane.queue.popleft()
            self._size -= 1
            # Rotate the lane to the back when its credit is spent so the
            # next pop serves the next client (deficit round robin).
            self._active.popleft()
            if lane.queue:
                if lane.deficit > 0:
                    self._active.appendleft(client)
                else:
                    self._active.append(client)
                    lane.deficit = 0
            else:
                del self._lanes[client]
            return request, expired
        return None, expired

    def requeue_front(self, request: Request) -> None:
        """Return a popped request to the head of its lane.

        Used when the drain pump pops a request and then finds its ring
        without headroom: the request keeps its place at the front and the
        credit :meth:`pop` spent on it is refunded, so the pop order that
        follows is the one the queue had before the pop (fairness and
        per-client FIFO order are preserved).
        """
        client = request.client
        lane = self._lanes.get(client)
        if lane is None:
            lane = self._lanes[client] = _Lane(max(1, request.weight))
            self._active.appendleft(client)
        else:
            lane.deficit += 1
            if self._active[0] != client:
                # Make sure this client's lane is served first next time.
                self._active.remove(client)
                self._active.appendleft(client)
        lane.queue.appendleft(request)
        self._size += 1
        deadline = request.deadline
        if deadline is not None and deadline < self._earliest_deadline:
            self._earliest_deadline = deadline

    def sweep_expired(self, now: float) -> List[Request]:
        """Remove every expired request (deadline-aware queue expiry).

        Returns at once while ``now`` has not passed the earliest queued
        deadline — no request can have expired, which is every call when
        requests carry no deadline — so the drain pump's per-tick sweep
        walks the lanes only when it can find something.
        """
        if now <= self._earliest_deadline:
            return []
        expired: List[Request] = []
        earliest = inf
        for client in list(self._active):
            lane = self._lanes[client]
            kept: Deque[Request] = deque()
            for request in lane.queue:
                if self._expired(request, now):
                    expired.append(request)
                    self._size -= 1
                else:
                    kept.append(request)
                    deadline = request.deadline
                    if deadline is not None and deadline < earliest:
                        earliest = deadline
            if kept:
                lane.queue = kept
            else:
                del self._lanes[client]
        self._earliest_deadline = earliest
        if expired:
            self._active = deque(
                c for c in self._active if c in self._lanes)
        return expired

    def drain_all(self) -> Iterator[Request]:
        """Yield and remove every queued request (shutdown path)."""
        while self._active:
            lane = self._lanes.pop(self._active.popleft())
            while lane.queue:
                self._size -= 1
                yield lane.queue.popleft()

    @staticmethod
    def _expired(request: Request, now: float) -> bool:
        return request.deadline is not None and now > request.deadline
