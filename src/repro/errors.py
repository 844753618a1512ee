"""Exception hierarchy for the Totem RRP reproduction.

All library-raised exceptions derive from :class:`TotemError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class TotemError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TotemError):
    """A configuration value is out of range or inconsistent."""


class CodecError(TotemError):
    """A packet could not be encoded or decoded."""


class ChecksumError(CodecError):
    """A packet failed its CRC check (corrupted on the wire)."""


class NotMemberError(TotemError):
    """An operation was attempted by a node that is not a ring member."""


class SendQueueFullError(TotemError):
    """The application tried to enqueue beyond the send-queue capacity."""


class SimulationError(TotemError):
    """The discrete-event simulation reached an inconsistent state."""


class TransportError(TotemError):
    """A simulated network or a node's stack failed to carry out an operation."""


class InvariantViolationError(TotemError):
    """A protocol invariant was violated (strict-mode :mod:`repro.check`)."""
