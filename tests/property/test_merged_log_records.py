"""Property: the merger's columnar log reads back exactly as the list of
namedtuples it replaced, and sweep feeding ingests exactly what feeding
one message at a time did.

``CrossRingMerger.merged`` keeps ``round, group, sender, seq`` of every
entry in one unsigned 64-bit array, every body in one ``bytearray`` and
each body's end offset in a second array, and builds a
:class:`MergedEntry` only when something reads one.  The list-and-
namedtuple merger it replaced is kept below as the reference, fed one
message at a time; hypothesis drives both with the same interleaved sweeps
over 1-3 groups — data, raw and marker payloads, empty bodies, raw
payloads under the marker prefix at the wrong length, ids up to 2**64-1,
bad markers and unsubscribed groups — and every reader, the ``on_deliver``
stream and every exception must agree.  A ``copy.deepcopy`` taken mid-run
must write only its own log, an id outside u64 must be refused without
misaligning the columns, and an entry must stay small on any host:
tracemalloc bytes per entry are bounded by its body length plus 48.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import tracemalloc
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.multiring import (
    MARKER_PREFIX,
    CrossRingMerger,
    MergedEntry,
    decode_payload,
    encode_data,
    encode_marker,
)


class Msg(NamedTuple):
    """The slice of a delivered message the merger reads."""

    sender: int
    seq: int
    payload: bytes


# ----- the reference: the list-and-namedtuple merger as it was -----

class ReferenceMerger:
    """``CrossRingMerger`` with one ``MergedEntry`` and one body copy per
    message in a Python list, fed one message at a time."""

    def __init__(self, groups: Sequence[int],
                 on_deliver: Optional[Callable[[MergedEntry], None]] = None
                 ) -> None:
        if not groups:
            raise ConfigError("merger needs at least one ring group")
        self.groups: Tuple[int, ...] = tuple(sorted(groups))
        self._on_deliver = on_deliver
        self._closed: Dict[int, int] = {g: 0 for g in self.groups}
        self._open: Dict[int, List[Tuple[int, int, bytes]]] = {
            g: [] for g in self.groups}
        self._pending: Dict[int, Dict[int, List[Tuple[int, int, bytes]]]] = {
            g: {} for g in self.groups}
        self.merged: List[MergedEntry] = []
        self._emit_round = 1

    def feed(self, group: int, message) -> None:
        if group not in self._closed:
            raise SimulationError(f"merger not subscribed to group {group}")
        kind, body = decode_payload(message.payload)
        if kind == "marker":
            marker_group, round_no = body
            if marker_group != group:
                raise SimulationError(
                    f"marker for group {marker_group} delivered on "
                    f"group {group}'s ring")
            self._close_round(group, round_no)
        else:
            payload = body if kind == "data" else message.payload
            self._open[group].append((message.sender, message.seq, payload))

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
        while all(self._closed[g] >= self._emit_round for g in self.groups):
            round_no = self._emit_round
            for g in self.groups:
                for sender, seq, payload in self._pending[g].pop(round_no):
                    entry = MergedEntry(round_no, g, sender, seq, payload)
                    self.merged.append(entry)
                    if self._on_deliver is not None:
                        self._on_deliver(entry)
            self._emit_round += 1

    @property
    def rounds_emitted(self) -> int:
        return self._emit_round - 1

    def rounds_closed(self, group: int) -> int:
        return self._closed[group]

    def log_bytes(self) -> bytes:
        return b"".join(entry.line() for entry in self.merged)

    def digest(self) -> str:
        return hashlib.sha256(self.log_bytes()).hexdigest()[:16]


# ----- strategies -----

ids = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]),
                st.integers(min_value=0, max_value=2**64 - 1))
bodies = st.binary(max_size=16)
#: Unprefixed traffic, and raw payloads under the marker prefix that are
#: not a marker's length.
raws = st.one_of(
    bodies.filter(lambda b: b[:1] not in (b"\x01", b"\x02")),
    st.binary(max_size=20).map(lambda b: MARKER_PREFIX + b).filter(
        lambda p: decode_payload(p)[0] == "raw"))
#: A payload kind; markers are resolved against the run's state, and one
#: message in sixteen is a bad marker.
payloads = st.integers(0, 15).flatmap(
    lambda k: bodies.map(lambda b: ("data", b)) if k < 7
    else raws.map(lambda b: ("raw", b)) if k < 10
    else st.just(("marker", 0)) if k < 15
    else st.sampled_from([("marker", -1), ("marker", 1), ("foreign", 0)]))
messages = st.lists(st.tuples(ids, ids, payloads), max_size=6)


@st.composite
def runs(draw):
    """A subscription of 1-3 groups and a list of ``(group, sweep)``."""
    groups = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3,
                           unique=True))
    sweeps = []
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 19)) == 0:
            # An unsubscribed group, with at least one message.
            group = draw(st.sampled_from(
                [g for g in range(5) if g not in groups]))
            sweeps.append((group, draw(messages.filter(bool))))
        else:
            sweeps.append((draw(st.sampled_from(groups)), draw(messages)))
    return groups, sweeps


def resolve(ref: ReferenceMerger, group: int, sweep) -> List[Msg]:
    """Concrete messages: a marker closes the group's next round shifted
    by its offset (0 for a good one); a foreign marker names another
    group."""
    closing = ref._closed.get(group, 0)
    out = []
    for sender, seq, (kind, arg) in sweep:
        if kind == "data":
            payload = encode_data(arg)
        elif kind == "raw":
            payload = arg
        elif kind == "foreign":
            payload = encode_marker(group + 1, closing + 1)
        else:
            closing += 1
            payload = encode_marker(group, max(0, closing + arg))
        out.append(Msg(sender, seq, payload))
    return out


class Pair:
    """The columnar merger and the reference, fed the same sweeps."""

    def __init__(self, groups) -> None:
        self.seen: List[MergedEntry] = []
        self.ref_seen: List[MergedEntry] = []
        self.merger = CrossRingMerger(groups, on_deliver=self.seen.append)
        self.ref = ReferenceMerger(groups, on_deliver=self.ref_seen.append)
        self.errors: List[Tuple[object, object]] = []

    def feed(self, sweeps) -> None:
        for group, sweep in sweeps:
            batch = resolve(self.ref, group, sweep)
            self.errors.append((outcome(self.merger.feed_sweep, group, batch),
                                outcome(per_message, self.ref, group, batch)))

    def check(self, slices=()) -> None:
        merged, ref = self.merger.merged, self.ref.merged
        assert merged == ref and ref == merged and not merged != ref
        assert merged == tuple(ref)
        assert len(merged) == len(ref)
        listed = list(merged)
        assert listed == ref
        assert all(type(e) is MergedEntry and type(e.payload) is bytes
                   for e in listed)
        n = len(ref)
        for i in range(-n, n):
            assert merged[i] == ref[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                merged[i]
        for sl in slices:
            assert merged[sl] == ref[sl]
        assert self.merger.log_bytes() == self.ref.log_bytes()
        assert self.merger.digest() == self.ref.digest()
        assert self.merger.rounds_emitted == self.ref.rounds_emitted
        for g in self.ref.groups:
            assert self.merger.rounds_closed(g) == self.ref.rounds_closed(g)
        assert self.seen == self.ref_seen
        for got, expected in self.errors:
            assert got == expected


def per_message(ref: ReferenceMerger, group: int, batch) -> None:
    for message in batch:
        ref.feed(group, message)


def outcome(feed, *args):
    try:
        feed(*args)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)
    return None


slices = st.lists(st.builds(
    slice, st.none() | st.integers(-8, 8), st.none() | st.integers(-8, 8),
    st.none() | st.integers(-3, 3).filter(bool)), max_size=4)


# ----- the properties -----

@settings(max_examples=200, deadline=None)
@given(run=runs(), cuts=slices)
def test_every_reader_and_error_matches_the_reference(run, cuts):
    groups, sweeps = run
    pair = Pair(groups)
    pair.feed(sweeps)
    pair.check(cuts)


@settings(max_examples=30, deadline=None)
@given(run=runs(), parent=runs(), child=runs())
def test_a_deepcopy_taken_mid_run_writes_only_its_own_log(run, parent,
                                                          child):
    groups, before = run
    pair = Pair(groups)
    pair.feed(before)
    fork = copy.deepcopy(pair)
    # The later sweeps go to the subscription's own groups.
    pair.feed([(groups[g % len(groups)], s) for g, s in parent[1]])
    fork.feed([(groups[g % len(groups)], s) for g, s in child[1]])
    pair.check()
    fork.check()
    assert ((fork.merger.merged == pair.merger.merged)
            == (fork.ref.merged == pair.ref.merged))


@pytest.mark.parametrize("split, equal", [
    ((b"ab", b"c"), True),
    ((b"aB", b"c"), False),  # one byte of one body
    ((b"a", b"bc"), False),  # same bytes, another split
    ((b"ab",), False)])      # a prefix
def test_two_logs_compare_entry_by_entry(split, equal):
    def log(*texts):
        merger = CrossRingMerger([0])
        merger.feed_sweep(0, [Msg(1, seq, encode_data(text))
                              for seq, text in enumerate(texts)]
                          + [Msg(1, 9, encode_marker(0, 1))])
        return merger.merged

    expected = log(b"ab", b"c")
    assert (log(*split) == expected) is equal
    assert (log(*split) != expected) is not equal
    assert (list(log(*split)) == list(expected)) is equal


@pytest.mark.parametrize("sender, seq", [(2**64, 1), (1, 2**64), (-1, 1)])
def test_an_id_outside_u64_is_refused_without_misaligning(sender, seq):
    merger = CrossRingMerger([0])
    merger.feed_sweep(0, [Msg(1, 1, encode_data(b"kept")),
                          Msg(2, 2, encode_marker(0, 1))])
    before, log = list(merger.merged), merger.log_bytes()
    merger.feed(0, Msg(sender, seq, encode_data(b"refused")))
    with pytest.raises(OverflowError):
        merger.feed(0, Msg(3, 3, encode_marker(0, 2)))
    assert len(merger.merged) == 1
    assert list(merger.merged) == before and merger.log_bytes() == log


# ----- a host-independent size bound -----

N = 20_000
#: A short body keeps the bytearray's growth slack (up to an eighth of the
#: bodies) well inside the margin at any N.
BODY = 16


def test_an_entry_costs_at_most_its_body_plus_48_bytes():
    merger = CrossRingMerger([0, 1])
    # The delivered messages live in the engines' logs, not the merger.
    sweeps = []
    for start in range(0, N, 100):
        for group in (0, 1):
            sweeps.append((group, [
                Msg(2**40 + i, i, encode_data(i.to_bytes(BODY, "big")))
                for i in range(start + group, start + 100, 2)]
                + [Msg(1, 0, encode_marker(group, start // 100 + 1))]))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for group, sweep in sweeps:
            merger.feed_sweep(group, sweep)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(merger.merged) == N
    assert grown / N <= BODY + 48
