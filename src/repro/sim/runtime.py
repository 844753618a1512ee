"""The runtime interface that makes the protocol engines sans-io.

The SRP and RRP state machines never touch sockets, threads or wall clocks.
They ask a :class:`Runtime` for the time and for timers, and they hand
outgoing packets to a transport object injected at construction.  The
discrete-event simulator (:class:`SimRuntime`) is their one host; the
protocols below are the whole of what the engines assume of it.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from .scheduler import EventScheduler, Timer


@runtime_checkable
class TimerHandle(Protocol):
    """Minimal timer interface the engines rely on."""

    def cancel(self) -> None: ...

    @property
    def active(self) -> bool: ...


@runtime_checkable
class Runtime(Protocol):
    """Clock and timer services for a protocol engine."""

    def now(self) -> float:
        """Current time in seconds (virtual or wall-clock)."""
        ...

    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> TimerHandle:
        """Invoke ``callback(*args)`` after ``delay`` seconds."""
        ...


class SimRuntime:
    """A :class:`Runtime` backed by the discrete-event scheduler."""

    def __init__(self, scheduler: EventScheduler) -> None:
        self._scheduler = scheduler

    def now(self) -> float:
        return self._scheduler.now()

    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        return self._scheduler.call_after(delay, callback, *args)
