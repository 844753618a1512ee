"""Virtual clock for the discrete-event simulator."""

from __future__ import annotations

from ..errors import SimulationError


class VirtualClock:
    """A monotonically non-decreasing virtual clock.

    Only the event scheduler advances the clock; everything else reads it.
    Attempting to move time backwards is a bug in the scheduler and raises
    :class:`~repro.errors.SimulationError` immediately rather than corrupting
    the run.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t`` (scheduler use only)."""
        if not t >= self._now:  # also refuses NaN
            raise SimulationError(
                f"clock cannot move backwards: {t} < {self._now}"
            )
        self._now = t

