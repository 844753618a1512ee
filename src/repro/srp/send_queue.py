"""The application send queue (paper §2).

Messages wait here until the node next holds the token; flow control decides
how many are drained per token visit.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..errors import SendQueueFullError


class SendQueue:
    """Bounded FIFO of application payloads awaiting broadcast."""

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._queue: Deque[bytes] = deque()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def pending_bytes(self) -> int:
        return self._bytes

    @property
    def full(self) -> bool:
        return len(self._queue) >= self._capacity

    def digest_state(self) -> Tuple:
        """Canonical state tuple for explorer digests."""
        return ("sendq", tuple(self._queue))

    def enqueue(self, payload: bytes) -> None:
        """Append a message; raises :class:`SendQueueFullError` when full."""
        if self.full:
            raise SendQueueFullError(
                f"send queue at capacity ({self._capacity} messages)")
        self._queue.append(payload)
        self._bytes += len(payload)

    def try_enqueue(self, payload: bytes) -> bool:
        """Best-effort enqueue; returns False instead of raising when full."""
        if self.full:
            return False
        self.enqueue(payload)
        return True

    def enqueue_many(self, payloads) -> int:
        """Append messages until the queue fills; returns how many fit.

        The bulk path for workload generators topping up a queue: one
        capacity check and one byte-count update for the whole run instead
        of a method call per message.
        """
        room = self._capacity - len(self._queue)
        if room <= 0:
            return 0
        accepted = payloads[:room] if len(payloads) > room else payloads
        self._queue.extend(accepted)
        self._bytes += sum(map(len, accepted))
        return len(accepted)

    def dequeue(self) -> Optional[bytes]:
        """Pop the oldest message, or None when empty."""
        if not self._queue:
            return None
        payload = self._queue.popleft()
        self._bytes -= len(payload)
        return payload

    def dequeue_fitting(self, budget: int, overhead: int,
                        limit: Optional[int] = None) -> List[bytes]:
        """Pop the leading messages (at most ``limit``) that fit ``budget``
        bytes at ``overhead`` bytes each on top of their own length — one
        packet's worth for the packer; none when the head alone does not."""
        queue = self._queue
        taken: List[bytes] = []
        count = taken_bytes = 0
        while queue and count != limit:
            size = len(queue[0])
            budget -= overhead + size
            if budget < 0:
                break
            taken_bytes += size
            count += 1
            taken.append(queue.popleft())
        self._bytes -= taken_bytes
        return taken
