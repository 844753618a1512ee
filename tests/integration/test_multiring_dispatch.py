"""Delivery dispatch of a multi-ring cluster: who sees which message.

Each (group, member) engine's dispatcher holds its own subscribers, resolved
when ``add_merger`` / ``set_app_handler`` are called rather than looked up
per delivery.  What every subscriber sees must not depend on the order of
those calls: a merger sees every message of its groups, in ring order,
markers included; the member's handler sees every data message unwrapped,
unprefixed traffic whole, and never a marker.
"""

from __future__ import annotations

import copy

import pytest

from repro.api.node import TotemNode
from repro.config import TotemConfig
from repro.errors import ConfigError
from repro.multiring import (
    CrossRingMerger,
    MultiRingCluster,
    MultiRingConfig,
    group_addr,
)
from repro.multiring.merge import decode_payload
from repro.types import ReplicationStyle

RINGS = 3


def build() -> MultiRingCluster:
    return MultiRingCluster(MultiRingConfig(
        num_rings=RINGS, num_nodes=2, seed=5, merge_interval=0.004,
        totem=TotemConfig(replication=ReplicationStyle.ACTIVE,
                          num_networks=2)))


class Handler:
    """App handler recording ``(group, payload as delivered, body)``, and
    the size of every sweep it was handed."""

    def __init__(self) -> None:
        self.seen = []
        self.sweeps = []

    def __call__(self, group, batch) -> None:
        assert batch, "a sweep without application messages is not handed on"
        self.sweeps.append(len(batch))
        for message, body in batch:
            self.seen.append((group, message.payload, body))


class Feeds(list):
    """Every message a merger was fed, as ``(merger, group, payload)`` rows
    in feeding order; ``calls`` holds one ``(merger, group, sweep length)``
    per ``feed_sweep`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []


@pytest.fixture
def feeds(monkeypatch):
    """Every ``CrossRingMerger.feed_sweep`` call, flattened into rows by a
    class-level wrapper installed before any merger exists — the way
    ``perfbench/spans.py`` wraps a name."""
    rows = Feeds()
    plain = CrossRingMerger.feed_sweep

    def feed_sweep(self, group, messages):
        rows.calls.append((self, group, len(messages)))
        rows.extend((self, group, m.payload) for m in messages)
        plain(self, group, messages)
    monkeypatch.setattr(CrossRingMerger, "feed_sweep", feed_sweep)
    return rows


@pytest.fixture
def engine_sweeps(monkeypatch):
    """Every delivery sweep of every engine, as ``(node, count)``."""
    sweeps = []
    plain = TotemNode._on_deliver

    def on_deliver(self, count):
        sweeps.append((self, count))
        plain(self, count)
    monkeypatch.setattr(TotemNode, "_on_deliver", on_deliver)
    return sweeps


def drive(cluster: MultiRingCluster, tag: bytes = b"") -> None:
    """Data on every ring, one raw payload on ring 0, a few marker rounds."""
    for group in range(RINGS):
        for i in range(3):
            assert cluster.submit_to_group(
                group, b"%sd%d.%d" % (tag, group, i), sender=1 + i % 2)
    assert cluster.nodes[group_addr(0, 2)].try_submit(b"%sraw-bytes" % tag)
    cluster.run_for(0.02)


def delivered(cluster: MultiRingCluster, group: int, member: int):
    return [m.payload
            for m in cluster.nodes[group_addr(group, member)].delivered]


def expected_handler_view(cluster: MultiRingCluster, member: int):
    """What the handler contract says ``member`` must have seen, per group."""
    view = {}
    for group in range(RINGS):
        rows = []
        for payload in delivered(cluster, group, member):
            kind, body = decode_payload(payload)
            if kind != "marker":
                rows.append((group, payload,
                             body if kind == "data" else payload))
        view[group] = rows
    return view


def per_group(seen):
    view = {group: [] for group in range(RINGS)}
    for row in seen:
        view[row[0]].append(row)
    return view


@pytest.mark.parametrize("handler_first", [True, False])
def test_registration_order_does_not_matter(feeds, engine_sweeps,
                                            handler_first):
    cluster = build()
    handler = Handler()
    if handler_first:
        cluster.set_app_handler(1, handler)
    merger = cluster.add_merger(1)
    if not handler_first:
        cluster.set_app_handler(1, handler)
    cluster.start()
    drive(cluster)

    assert per_group(handler.seen) == expected_handler_view(cluster, 1)
    kinds = [decode_payload(payload)[0] for _g, payload, _b in handler.seen]
    assert kinds.count("raw") == 1 and "marker" not in kinds
    assert (0, b"raw-bytes", b"raw-bytes") in handler.seen
    assert all(body == payload[1:] for _g, payload, body in handler.seen
               if payload != b"raw-bytes")
    for group in range(RINGS):
        fed = [payload for m, g, payload in feeds
               if m is merger and g == group]
        assert fed == delivered(cluster, group, 1)
        assert any(decode_payload(p)[0] == "marker" for p in fed)
        # Each engine sweep reaches the merger whole, in one call.
        engine = cluster.nodes[group_addr(group, 1)]
        assert ([n for m, g, n in feeds.calls if m is merger and g == group]
                == [n for node, n in engine_sweeps if node is engine])
    assert any(n > 1 for _m, _g, n in feeds.calls)
    assert merger.rounds_emitted >= 2
    assert [e.payload for e in merger.merged if e.group == 0][:1] == [b"d0.0"]


def test_a_replaced_handler_takes_over_every_ring():
    cluster = build()
    first, second = Handler(), Handler()
    cluster.set_app_handler(2, first)
    cluster.start()
    drive(cluster, b"a-")
    cluster.set_app_handler(2, second)
    drive(cluster, b"b-")
    assert first.seen and all(body.startswith(b"a-")
                              for _g, _p, body in first.seen)
    assert second.seen and all(body.startswith(b"b-")
                               for _g, _p, body in second.seen)
    assert {g for g, _p, _b in second.seen} == set(range(RINGS))
    assert (per_group(first.seen + second.seen)
            == expected_handler_view(cluster, 2))


def test_mergers_see_their_groups_only_and_other_members_nothing(feeds):
    cluster = build()
    partial = cluster.add_merger(1, groups=[2, 0])
    everything = cluster.add_merger(1)
    elsewhere = cluster.add_merger(2, groups=[1])
    handler = Handler()
    cluster.set_app_handler(2, handler)
    cluster.start()
    drive(cluster)

    assert partial.groups == (0, 2)
    assert {g for m, g, _p in feeds if m is partial} == {0, 2}
    assert {g for m, g, _p in feeds if m is elsewhere} == {1}
    for merger, member, groups in ((partial, 1, (0, 2)),
                                   (everything, 1, range(RINGS)),
                                   (elsewhere, 2, (1,))):
        for group in groups:
            assert [p for m, g, p in feeds if m is merger and g == group] \
                == delivered(cluster, group, member)
    # Two mergers of one member on one ring: each sweep is fed to them in
    # registration order (a sweep's rows come one call at a time).
    ring0 = [m for m, g, _n in feeds.calls if g == 0]
    assert ring0[:2] == [partial, everything]
    # Member 1 has mergers and no handler; member 2's handler is not fed
    # by member 1's engines.
    assert per_group(handler.seen) == expected_handler_view(cluster, 2)


def test_a_delivery_without_subscribers_goes_nowhere():
    cluster = build()
    cluster.start()
    drive(cluster)
    kinds = {decode_payload(p)[0] for p in delivered(cluster, 0, 1)}
    assert kinds == {"data", "marker", "raw"}


@pytest.mark.parametrize("register", [
    lambda cluster: cluster.add_merger(3),
    lambda cluster: cluster.set_app_handler(0, Handler())],
    ids=["add_merger", "set_app_handler"])
def test_unknown_member_is_rejected(register):
    with pytest.raises(ConfigError, match="unknown member"):
        register(build())


def test_a_deep_copied_world_dispatches_to_its_own_subscribers():
    cluster = build()
    handler = Handler()
    cluster.set_app_handler(1, handler)
    merger = cluster.add_merger(1)
    cluster.start()
    drive(cluster, b"a-")
    fork, fork_handler, fork_merger = copy.deepcopy(
        (cluster, handler, merger))
    seen, merged = len(handler.seen), len(merger.merged)
    drive(fork, b"b-")
    assert (len(handler.seen), len(merger.merged)) == (seen, merged)
    assert len(fork_handler.seen) > seen
    assert len(fork_merger.merged) > merged
    assert (per_group(fork_handler.seen)
            == expected_handler_view(fork, 1))
