"""Property: the facade's fixed-width decision and applied records read
back exactly as the per-operation strings and tuples they replaced.

``ServiceFacade`` stores one ``(now, queued_for)`` / ``(client, uid, kind)``
record per admit or shed decision and one ``(group, client, uid)`` record
per applied op per member, in typed arrays, and formats the text only when
something reads it.  The f-string and tuple code the facade used to run on
every operation is kept below as the reference; hypothesis drives both
with the same decisions and applied sweeps — times from 0.0 to very large,
ids over the whole envelope range (``client`` u32, ``uid`` u64), every
shed reason — and every reader must return the same bytes.  A
``copy.deepcopy`` of a facade taken mid-run must write only its own logs,
and the records must stay small on any host: tracemalloc bytes per stored
decision and per applied op are bounded.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import tracemalloc
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.cluster import SimCluster
from repro.config import ClusterConfig
from repro.obs.metrics import MetricRegistry
from repro.service import ServiceConfig, ServiceFacade
from repro.service.types import (
    Request, ShedReason, encode_envelope, encode_set)

MEMBERS = (1, 2, 3)


class ReferenceLogs:
    """The facade's logs as one string per decision and one tuple per op."""

    def __init__(self) -> None:
        self.decisions: List[str] = []
        self.applied: Dict[int, List[Tuple[int, int, int]]] = {
            m: [] for m in MEMBERS}

    def admit(self, now: float, request: Request) -> None:
        queued_for = now - request.arrival
        self._record(now, request, f"admit queued={queued_for:.6f}")

    def shed(self, now: float, request: Request, reason: ShedReason) -> None:
        self._record(now, request, f"shed reason={reason.value}")

    def _record(self, now: float, request: Request, detail: str) -> None:
        self.decisions.append(
            f"t={now:.6f} client={request.client} uid={request.uid} {detail}")

    def apply(self, member: int, group: int,
              ops: List[Tuple[int, int]]) -> None:
        self.applied[member].extend((group, c, u) for c, u in ops)

    def readers(self) -> dict:
        text = "\n".join(self.decisions) + ("\n" if self.decisions else "")
        read = {"decisions": tuple(self.decisions),
                "decision_log_text": text,
                "decision_digest":
                    hashlib.sha256(text.encode()).hexdigest()[:16]}
        for member, applied in self.applied.items():
            log_bytes = b"".join(b"%d.%d.%d;" % entry for entry in applied)
            read[("applied_log", member)] = list(applied)
            read[("applied_log_bytes", member)] = log_bytes
            read[("applied_digest", member)] = (
                hashlib.sha256(log_bytes).hexdigest()[:16])
            read[("applied_ids", member)] = frozenset(
                (c, u) for _g, c, u in applied)
        return read


def facade_readers(facade: ServiceFacade) -> dict:
    read = {"decisions": facade.decisions,
            "decision_log_text": facade.decision_log_text(),
            "decision_digest": facade.decision_digest()}
    for member in MEMBERS:
        read[("applied_log", member)] = facade.applied_log(member)
        read[("applied_log_bytes", member)] = facade.applied_log_bytes(member)
        read[("applied_digest", member)] = facade.applied_digest(member)
        read[("applied_ids", member)] = facade.applied_ids(member)
    return read


def make_facade() -> ServiceFacade:
    cluster = SimCluster(ClusterConfig(num_nodes=len(MEMBERS)))
    facade = ServiceFacade(cluster, ServiceConfig(),
                           registry=MetricRegistry())
    # The records are the subject here, not the ring: every admit's
    # submit succeeds without filling a send queue.
    facade.port.submit = lambda group, payload: True
    return facade


# ----- strategies -----

times = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False,
              allow_infinity=False))
clients = st.integers(min_value=0, max_value=2**32 - 1)
uids = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def decisions(draw):
    now = draw(times)
    request = Request(client=draw(clients), uid=draw(uids), key=b"k",
                      body=encode_set(b"k", b"v"),
                      arrival=draw(st.floats(min_value=0.0, max_value=now)))
    reason = draw(st.one_of(st.none(), st.sampled_from(ShedReason)))
    return ("decide", now, request, reason)


@st.composite
def sweeps(draw):
    member = draw(st.sampled_from(MEMBERS))
    group = draw(st.integers(min_value=0, max_value=15))
    ops = draw(st.lists(st.tuples(clients, uids), max_size=6))
    return ("apply", member, group, ops)


operations = st.lists(st.one_of(decisions(), sweeps()), max_size=30)


def run(facade: ServiceFacade, ref: ReferenceLogs, ops) -> None:
    for op in ops:
        if op[0] == "decide":
            _kind, now, request, reason = op
            if reason is None:
                facade._admit(request, 0, now)
                ref.admit(now, request)
            else:
                facade._shed(request, reason, now)
                ref.shed(now, request, reason)
        else:
            _kind, member, group, pairs = op
            payloads = [encode_envelope(c, u, encode_set(b"k%d" % c, b"v"))
                        for c, u in pairs]
            # A foreign payload on the same ring is skipped, not recorded.
            payloads.append(b"not a service op")
            facade._on_apply(member, group, payloads)
            ref.apply(member, group, pairs)


# ----- the properties -----

@settings(max_examples=150, deadline=None)
@given(ops=operations)
def test_every_reader_returns_the_reference_bytes(ops):
    facade, ref = make_facade(), ReferenceLogs()
    run(facade, ref, ops)
    assert facade_readers(facade) == ref.readers()


@settings(max_examples=20, deadline=None)
@given(before=operations, parent=operations, child=operations)
def test_a_deepcopy_taken_mid_run_writes_only_its_own_logs(before, parent,
                                                           child):
    facade, ref = make_facade(), ReferenceLogs()
    run(facade, ref, before)
    fork, fork_ref = copy.deepcopy(facade), copy.deepcopy(ref)
    run(facade, ref, parent)
    run(fork, fork_ref, child)
    assert facade_readers(facade) == ref.readers()
    assert facade_readers(fork) == fork_ref.readers()


def test_an_id_outside_u64_is_refused_whole():
    facade = make_facade()
    facade._shed(Request(client=1, uid=1, key=b"k", body=b""),
                 ShedReason.BACKPRESSURE, 0.5)
    before = facade.decisions
    for client, uid in ((-1, 2), (3, 2**64)):
        with pytest.raises(OverflowError):
            facade._shed(Request(client=client, uid=uid, key=b"k", body=b""),
                         ShedReason.BACKPRESSURE, 0.75)
    facade._shed(Request(client=2**32 - 1, uid=2**64 - 1, key=b"k", body=b""),
                 ShedReason.RATE_LIMITED, 1.0)
    assert facade.decisions == before + (
        "t=1.000000 client=4294967295 uid=18446744073709551615 "
        "shed reason=rate-limited",)


# ----- host-independent size bounds -----

N = 20_000


def traced_growth(action) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_stored_decision_costs_at_most_64_bytes():
    facade = make_facade()
    requests = [Request(client=i, uid=2**40 + i, key=b"k", body=b"")
                for i in range(N)]
    reasons = list(ShedReason)

    def decide():
        for i, request in enumerate(requests):
            facade._shed(request, reasons[i % len(reasons)], 1e6 + i)

    assert traced_growth(decide) / N <= 64
    assert len(facade.decisions) == N


def test_an_applied_op_costs_at_most_32_bytes_per_member():
    facade = make_facade()
    # One key, written over and over: the replica's state does not grow.
    payloads = [encode_envelope(i, 2**40 + i, encode_set(b"t", b"d"))
                for i in range(N)]

    def apply():
        for member in MEMBERS:
            facade._on_apply(member, 3, payloads)

    assert traced_growth(apply) / (N * len(MEMBERS)) <= 32
    assert all(len(facade.applied_log(m)) == N for m in MEMBERS)
