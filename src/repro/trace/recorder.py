"""The trace recorder and its event type."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, List, Optional

from ..types import NodeId


@dataclass(frozen=True)
class TraceEvent:
    """One protocol milestone."""

    time: float
    node: NodeId
    category: str  # e.g. "membership", "token", "fault"
    event: str     # e.g. "gather", "ring-installed"
    detail: str = ""

    def __str__(self) -> str:
        detail = f" — {self.detail}" if self.detail else ""
        return (f"[t={self.time:.6f}] node {self.node} "
                f"{self.category}/{self.event}{detail}")


class Tracer:
    """A bounded buffer of :class:`TraceEvent` for one cluster.

    Accounting invariant (checked by the unit tests): every call to
    :meth:`emit` lands in exactly one bucket —

    * recorded and still buffered (``len(tracer)``),
    * recorded then evicted by the capacity bound (``dropped``), or
    * suppressed because the tracer was disabled (``suppressed``) —

    so ``emitted == len(tracer) + dropped`` always holds.
    """

    def __init__(self, now_fn: Callable[[], float],
                 capacity: int = 50_000) -> None:
        if capacity < 1:
            raise ValueError("Tracer capacity must be >= 1")
        self._now_fn = now_fn
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        #: Events recorded ever (buffered + later evicted), excluding
        #: suppressed ones.
        self.emitted = 0
        #: Events evicted from the buffer by the capacity bound.
        self.dropped = 0
        #: Events discarded because ``enabled`` was False.
        self.suppressed = 0
        self.enabled = True

    @property
    def capacity(self) -> int:
        return self._events.maxlen

    def emit(self, node: NodeId, category: str, event: str,
             detail: str = "") -> None:
        if not self.enabled:
            self.suppressed += 1
            return
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
        self.emitted += 1
        self._events.append(TraceEvent(
            time=self._now_fn(), node=node, category=category,
            event=event, detail=detail))

    def bind(self, node: NodeId, category: str) -> "BoundTrace":
        """A per-node, per-category emit function for engine hooks."""
        return BoundTrace(self, node, category)

    # ----- queries -----

    def events(self, category: Optional[str] = None,
               node: Optional[NodeId] = None,
               event: Optional[str] = None) -> List[TraceEvent]:
        out: Iterable[TraceEvent] = self._events
        if category is not None:
            out = (e for e in out if e.category == category)
        if node is not None:
            out = (e for e in out if e.node == node)
        if event is not None:
            out = (e for e in out if e.event == event)
        return list(out)

    def __len__(self) -> int:
        return len(self._events)

    def tail(self, count: int = 50) -> List[TraceEvent]:
        return list(self._events)[-count:]

    def clear(self) -> None:
        """Forget buffered events; totals (`emitted` etc.) keep counting."""
        self.dropped += len(self._events)
        self._events.clear()

    def format(self, count: int = 50) -> str:
        lines = [str(e) for e in self.tail(count)]
        if self.dropped:
            lines.insert(0, f"({self.dropped} earlier events dropped)")
        return "\n".join(lines) if lines else "(no events)"


class BoundTrace:
    """A per-node, per-category trace hook (what :meth:`Tracer.bind` returns).

    A callable object rather than a closure: engines hold these for their
    whole life, and ``copy.deepcopy`` treats plain functions as atomic — a
    closure here would leave a deep-copied cluster emitting trace events
    into the *original* tracer.  Cluster snapshots (``repro.campaign explore``)
    rely on every long-lived callable being an object or bound method.
    """

    __slots__ = ("_tracer", "_node", "_category")

    def __init__(self, tracer: Tracer, node: NodeId, category: str) -> None:
        self._tracer = tracer
        self._node = node
        self._category = category

    def __call__(self, event: str, detail: str = "") -> None:
        self._tracer.emit(self._node, self._category, event, detail)
