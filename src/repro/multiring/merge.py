"""Deterministic cross-ring merge (Multi-Ring Paxos skip/merge-clock).

Each ring's totally ordered stream is chopped into *rounds* by marker
messages that the cluster's marker pump submits to every ring at a fixed
virtual-time interval.  A marker for round *k* closes round *k*: every data
message delivered since the previous marker belongs to round *k*.  Because
markers ride the ring's own total order, every subscriber of a ring chops
its stream at exactly the same points.

A :class:`CrossRingMerger` subscribed to groups ``G`` emits round *k* only
once **all** groups in ``G`` have closed round *k*, concatenating the
per-group round contents in ascending group order.  Idle rings still emit
markers (a marker closing an empty round is exactly a Multi-Ring Paxos
*skip* message), so the merger never blocks on a quiet ring.  The merged
sequence is therefore a pure function of the per-ring delivery orders —
identical bytes at every subscriber, on every run with the same seed.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from collections import abc
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple)

from ..errors import ConfigError, SimulationError

#: First payload byte of an application (data) message on a multiring ring.
DATA_PREFIX = b"\x01"
#: First payload byte of a merge-clock round marker.
MARKER_PREFIX = b"\x02"

_MARKER = struct.Struct(">IQ")  # (group, round)
#: A marker is exactly its prefix byte plus ``(group, round)``; any other
#: length under the marker prefix is raw traffic.
_MARKER_LEN = 1 + _MARKER.size


def encode_data(payload: bytes) -> bytes:
    """Wrap an application payload for submission to a multiring ring."""
    return DATA_PREFIX + payload


def encode_marker(group: int, round_no: int) -> bytes:
    """A merge-clock marker closing ``round_no`` on ``group``'s ring."""
    return MARKER_PREFIX + _MARKER.pack(group, round_no)


def decode_payload(payload: bytes):
    """Classify a ring payload: ``("data", body)``, ``("marker", (group,
    round))`` or ``("raw", payload)`` for unprefixed traffic."""
    if payload[:1] == DATA_PREFIX:
        return "data", payload[1:]
    if payload[:1] == MARKER_PREFIX and len(payload) == _MARKER_LEN:
        return "marker", _MARKER.unpack(payload[1:])
    return "raw", payload


class MergedEntry(NamedTuple):
    """One application message in the merged cross-ring sequence."""

    round: int
    group: int
    sender: int
    seq: int
    payload: bytes

    def line(self) -> bytes:
        """Canonical byte rendering (the unit of the determinism check)."""
        return (f"round={self.round} group={self.group} "
                f"sender={self.sender} seq={self.seq} "
                f"payload={self.payload.hex()}\n").encode("ascii")


class MergedLog(abc.Sequence):
    """The merged cross-ring sequence, stored as columns.

    ``round, group, sender, seq`` of every entry sit in one unsigned 64-bit
    array, every body in one ``bytearray`` and each body's end offset in a
    second array; a :class:`MergedEntry` is built only when something reads
    one.  It reads like the list it replaced: ``len``, iteration, ``int``
    and ``slice`` indexing (a slice is a list of entries), and ``==``
    against a list, a tuple or another log compares entry by entry.
    """

    __slots__ = ("_ids", "_bodies", "_ends")

    def __init__(self) -> None:
        self._ids = array("Q")
        self._bodies = bytearray()
        self._ends = array("Q")

    def extend_round(self, round_no: int, group: int,
                     messages: Iterable) -> None:
        """Append ``group``'s share of round ``round_no``: each delivered
        message's body (a data message's prefix byte stripped, raw traffic
        whole) under its ids, in delivery order.  An id outside u64 raises
        ``OverflowError`` before anything of its entry is stored."""
        ids, bodies, ends = self._ids.fromlist, self._bodies, self._ends.append
        for message in messages:
            ids([round_no, group, message.sender, message.seq])
            payload = message.payload
            bodies += payload[1:] if payload[:1] == DATA_PREFIX else payload
            ends(len(bodies))

    def __len__(self) -> int:
        return len(self._ends)

    def _entry(self, index: int) -> MergedEntry:
        k = 4 * index
        start = self._ends[index - 1] if index else 0
        return MergedEntry(*self._ids[k:k + 4],
                           bytes(self._bodies[start:self._ends[index]]))

    def __getitem__(self, index):
        positions = range(len(self._ends))[index]
        if isinstance(index, slice):
            return [self._entry(i) for i in positions]
        return self._entry(positions)

    def __eq__(self, other) -> bool:
        if isinstance(other, MergedLog):
            return (self._ends == other._ends and self._ids == other._ids
                    and self._bodies == other._bodies)
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"MergedLog({list(self)!r})"


class CrossRingMerger:
    """Merge the streams of several ring groups into one deterministic log.

    Feed it every :class:`~repro.types.DeliveredMessage` from each
    subscribed group's local engine (in that group's delivery order), one
    delivery sweep per :meth:`feed_sweep`; it buffers per-group rounds and
    emits them in lockstep into :attr:`merged`.
    """

    def __init__(self, groups: Sequence[int],
                 on_deliver: Optional[Callable[[MergedEntry], None]] = None) -> None:
        if not groups:
            raise ConfigError("merger needs at least one ring group")
        if len(set(groups)) != len(groups):
            raise ConfigError("duplicate ring group in merger subscription")
        self.groups: Tuple[int, ...] = tuple(sorted(groups))
        self._on_deliver = on_deliver
        #: Highest round each group has closed.
        self._closed: Dict[int, int] = {g: 0 for g in self.groups}
        #: The delivered messages of the currently open (unclosed) round
        #: per group.
        self._open: Dict[int, List] = {g: [] for g in self.groups}
        #: Closed-but-unmerged rounds per group.
        self._pending: Dict[int, Dict[int, List]] = {
            g: {} for g in self.groups}
        #: The merged cross-ring sequence emitted so far.
        self.merged = MergedLog()
        self._emit_round = 1

    # ----- ingestion -----

    def feed_sweep(self, group: int, messages: Sequence) -> None:
        """Ingest one delivery sweep of ``group``'s local engine, in ring
        order.  A bad marker raises after every message before it has been
        ingested, exactly as feeding them one by one would."""
        if group not in self._closed:
            raise SimulationError(f"merger not subscribed to group {group}")
        open_round = self._open[group]
        start = 0
        for i, message in enumerate(messages):
            payload = message.payload
            if payload[:1] == MARKER_PREFIX and len(payload) == _MARKER_LEN:
                open_round += messages[start:i]
                start = i + 1
                marker_group, round_no = _MARKER.unpack_from(payload, 1)
                if marker_group != group:
                    raise SimulationError(
                        f"marker for group {marker_group} delivered on "
                        f"group {group}'s ring")
                self._close_round(group, round_no)
                open_round = self._open[group]
        open_round += messages[start:]

    def feed(self, group: int, message) -> None:
        """Ingest one delivered message from ``group``'s local engine."""
        self.feed_sweep(group, (message,))

    def _close_round(self, group: int, round_no: int) -> None:
        expected = self._closed[group] + 1
        if round_no != expected:
            raise SimulationError(
                f"group {group} marker closed round {round_no}, "
                f"expected {expected} (markers must be consecutive)")
        self._pending[group][round_no] = self._open[group]
        self._open[group] = []
        self._closed[group] = round_no
        self._drain()

    def _drain(self) -> None:
        log, on_deliver = self.merged, self._on_deliver
        while all(self._closed[g] >= self._emit_round for g in self.groups):
            round_no = self._emit_round
            for g in self.groups:
                start = len(log)
                log.extend_round(round_no, g, self._pending[g].pop(round_no))
                if on_deliver is not None:
                    for entry in log[start:]:
                        on_deliver(entry)
            self._emit_round += 1

    # ----- inspection -----

    @property
    def rounds_emitted(self) -> int:
        """How many complete cross-ring rounds have been merged."""
        return self._emit_round - 1

    def rounds_closed(self, group: int) -> int:
        """Highest round ``group`` has closed at this merger."""
        return self._closed[group]

    def log_bytes(self) -> bytes:
        """The merged log as canonical bytes (byte-identical across
        subscribers with the same subscription, same seed)."""
        return b"".join(entry.line() for entry in self.merged)

    def digest(self) -> str:
        """sha256 of :meth:`log_bytes`, truncated for readability; hashed
        one line at a time, never holding the whole log as bytes."""
        h = hashlib.sha256()
        for entry in self.merged:
            h.update(entry.line())
        return h.hexdigest()[:16]
