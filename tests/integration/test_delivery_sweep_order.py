"""A delivery sweep reaches the application before the configuration change
that follows it.

The SRP hands each delivery sweep to a node's consumer in one call, after the
whole sweep is in the node's log.  A configuration change must not overtake
it: extended virtual synchrony delivers every message *in* a configuration,
and an application told of the change first would apply the message in the
wrong one.  A membership change delivers two sweeps of its own from the old
ring — the contiguous prefix before the transitional configuration, the
recovered remainder before the regular one.

Single-ring SMR and the single-ring service run through a crash, its
membership change, a restart and the rejoin, under load on lossy networks
(passive replication, so a lost frame leaves a gap and the recovery sweeps
have something to deliver).  At every configuration change callback the
consumer must have seen every message its node has delivered.
"""

from __future__ import annotations

import pytest

from repro.app import ReplicatedStateMachine
from repro.config import LanConfig
from repro.obs.metrics import MetricRegistry
from repro.service import ServiceConfig, ServiceFacade
from repro.srp.engine import TotemSrp
from repro.types import ReplicationStyle

from conftest import make_cluster

CRASHED = 3
CRASH_AT, RESTART_AT, STOP_AT, END_AT = 0.06, 0.5, 0.7, 1.5


class Counter:
    """A state machine that counts the commands applied to it."""

    def __init__(self) -> None:
        self.applied = 0

    def apply(self, command: bytes) -> None:
        self.applied += 1

    def snapshot(self) -> bytes:
        return b"%d" % self.applied

    def restore(self, snapshot: bytes) -> None:
        self.applied = int(snapshot)


class WatchedSmr(ReplicatedStateMachine):
    """SMR recording, at each configuration change, how many of its node's
    delivered messages it has not been handed yet."""

    def __init__(self, node, lags, **kwargs) -> None:
        self.seen = 0
        self.lags = lags
        super().__init__(node, Counter(), **kwargs)

    def _on_deliver(self, message) -> None:
        self.seen += 1
        super()._on_deliver(message)

    def _on_config_change(self, change) -> None:
        self.lags.append(len(self.node.log.messages) - self.seen)
        super()._on_config_change(change)


@pytest.fixture
def recovery_sweeps(monkeypatch):
    """Sizes of the old-ring recovery sweeps (``TotemSrp._end_sweep``)."""
    sizes = []
    plain = TotemSrp._end_sweep

    def end_sweep(self, before):
        sizes.append(self.stats.msgs_delivered - before)
        plain(self, before)
    monkeypatch.setattr(TotemSrp, "_end_sweep", end_sweep)
    return sizes


def lossy_cluster(seed: int):
    return make_cluster(ReplicationStyle.PASSIVE,
                        lan=LanConfig(loss_rate=0.03), seed=seed)


def drive(cluster, submit, on_restart) -> None:
    """Submit every 0.5 ms until STOP_AT; crash one node and restart it."""
    scheduler = cluster.scheduler
    count = [0]

    def tick() -> None:
        if cluster.now < STOP_AT:
            count[0] += 1
            submit(count[0])
            scheduler.call_after(0.0005, tick)

    scheduler.call_after(0.0005, tick)
    scheduler.call_at(CRASH_AT, cluster.crash_node, CRASHED)

    def restart() -> None:
        on_restart(cluster.restart_node(CRASHED, start=False))
    scheduler.call_at(RESTART_AT, restart)
    cluster.run_until(END_AT)


@pytest.mark.parametrize("seed", [1, 2])
def test_smr_sees_every_delivery_before_each_configuration_change(
        seed, recovery_sweeps):
    cluster = lossy_cluster(seed)
    lags = []
    rsms = {nid: WatchedSmr(node, lags) for nid, node in cluster.nodes.items()}
    cluster.start()

    def submit(i: int) -> None:
        rsm = rsms[1 + i % 2]
        rsm.try_submit(b"cmd-%d" % i)

    def on_restart(fresh) -> None:
        rsms[CRASHED] = WatchedSmr(fresh, lags, initially_synced=False)
        fresh.start(None)

    drive(cluster, submit, on_restart)
    # Boot, the crash's transitional + regular, the rejoin's on every node.
    assert len(lags) >= 4 + 2 * 3 + 2 * 4
    assert lags == [0] * len(lags)
    assert any(recovery_sweeps), "no recovery sweep delivered anything"
    assert all(rsm.synced for rsm in rsms.values())
    assert len({rsm.machine.applied for rsm in rsms.values()}) == 1


# Seeds whose crash leaves a survivor a gap: the facade's single gateway
# sends alone, so a lost frame is rarer at the crash than under SMR's two.
@pytest.mark.parametrize("seed", [2, 3])
def test_service_sees_every_delivery_before_each_configuration_change(
        seed, recovery_sweeps):
    cluster = lossy_cluster(seed)
    facade = ServiceFacade(cluster, ServiceConfig(rate=5000.0, burst=16),
                           registry=MetricRegistry())
    lags = []

    def watch(node) -> None:
        # Only the facade submits, so each delivered message is one applied
        # op at its member; the count is taken per incarnation.
        member = node.node_id
        base = len(facade.applied_log(member))

        def on_config_change(change) -> None:
            applied = len(facade.applied_log(member)) - base
            lags.append(len(node.log.messages) - applied)
        node.set_user_callbacks(on_config_change=on_config_change)

    for node in cluster.nodes.values():
        watch(node)
    cluster.start()

    def submit(i: int) -> None:
        facade.set(i % 50, b"k%d" % (i % 7), b"v%d" % i)

    def on_restart(fresh) -> None:
        facade.rebind_node(fresh)
        watch(fresh)
        fresh.start(None)

    drive(cluster, submit, on_restart)
    assert len(lags) >= 4 + 2 * 3 + 2 * 4
    assert lags == [0] * len(lags)
    assert any(recovery_sweeps), "no recovery sweep delivered anything"
    assert facade.m_completed.value > 0
