"""Both service logs, byte for byte, across every decision branch.

perfbench's ``service_overload`` sheds on one branch (queue full, no
deadlines, weight 1).  These two seeded runs of a facade over 2 rings x 3
nodes go through all of them — immediate admit, queued admit, requeue on a
ring without headroom, and every typed shed: deadline expired at submit, at
the head of a lane and mid-lane, backpressure, rate-limited with and without
queueing, queue full, per-client lane full, unavailable at ``quiesce`` — with
mixed weights, mixed value lengths and a tight inflight budget.  The
expected digests and snapshots were recorded at the commit before the request
path was rebuilt to read the clock, the key's ring and the ring pressure once
per request, so they pin "same event, same value": the decision log, every
member's applied log and the SLO snapshot must not move.

One thing was meant to move and is in the recorded values: with that commit's
``FairAdmissionQueue`` as it was, the queueing run ends in decision digest
``b5c40a278ae9f63b``; a lane emptied by ``sweep_expired`` kept its round-robin
credit there, and resetting it (one line at that commit, or the lane-lifetime
fix that came with the rebuild — both were run) gives the values below.  The
fail-fast run never queues and is that commit's, unpatched.

The queueing pins were re-recorded once since, on purpose: ``requeue_front``
did not refund the round-robin credit ``pop`` had spent, so a weight-2 or
weight-3 client whose request went back to its lane was served once, not
``weight`` times, in its next turn.  With the refund the queueing run's
decision digest moved from ``d651c508215c4ba1`` (9,390 decisions) to the
value below; the fail-fast run did not move.

The service once also had ``delete`` and ``publish``.  When they were
retired, the clients' deletes became ``set(key, b"")`` and their
publications ``set(key, b"news")``: each body keeps its length and the
RNG draws are unchanged, so both runs reproduce every recorded value.  The
one value that went is the count of publications a subscriber saw.
"""

from __future__ import annotations

import random

import pytest

from repro.config import TotemConfig
from repro.multiring import MultiRingCluster, MultiRingConfig
from repro.obs.metrics import MetricRegistry
from repro.service import ServiceConfig, ServiceFacade, Shed
from repro.types import ReplicationStyle

CONFIGS = {
    "fail-fast": ServiceConfig(
        name="pin", rate=20000.0, burst=4, queue_capacity=24,
        per_client_limit=2, inflight_windows=0.05, queue_when_limited=False,
        default_deadline=0.004),
    "queueing": ServiceConfig(
        name="pin", rate=10000.0, burst=12, queue_capacity=24,
        per_client_limit=2, inflight_windows=0.05),
}


class Clients:
    """Closed-loop clients with mixed weights, ops and deadlines."""

    def __init__(self, facade: ServiceFacade, count: int, seed: int) -> None:
        self.facade = facade
        self.scheduler = facade.scheduler
        self.rng = random.Random(seed)
        self.count = count
        self.running = True
        #: Requests of each client still awaiting a shed or a completion.
        self.outstanding = [0] * (count + 1)
        facade.on_decision(self.on_decision)
        facade.on_complete(self.on_complete)

    def start(self) -> None:
        for client in range(1, self.count + 1):
            self.scheduler.call_after(self.rng.uniform(0.0, 0.004),
                                      self.fire, client)

    def fire(self, client: int) -> None:
        if not self.running:
            return
        rng = self.rng
        key = b"k%03d" % rng.randrange(64)
        now = self.scheduler.now()
        # A third of the requests carry their own deadline: some already
        # past (shed at submit), some short enough to expire while queued.
        deadline = (now + rng.choice((-0.001, 0.0005, 0.002, 0.02))
                    if rng.random() < 0.34 else None)
        weight = client % 3 + 1
        # Every fifth client sends three requests back to back, so lanes hold
        # more than one request and the per-client bound is reached.
        burst = 3 if client % 5 == 0 else 1
        self.outstanding[client] = burst
        for _ in range(burst):
            op = rng.randrange(8)
            if op == 0:
                value = b""
            elif op == 1:
                value = b"news"
            else:
                value = b"v%d" % rng.randrange(1000)
            self.facade.set(client, key, value, deadline=deadline,
                            weight=weight)

    def on_decision(self, request, response) -> None:
        if isinstance(response, Shed):
            self.finished(request.client, response.retry_after)

    def on_complete(self, client: int, uid: int, latency: float) -> None:
        self.finished(client, 0.0)

    def finished(self, client: int, retry_after: float) -> None:
        self.outstanding[client] -= 1
        if self.running and not self.outstanding[client]:
            self.scheduler.call_after(
                max(retry_after, self.rng.uniform(0.0005, 0.003)),
                self.fire, client)


def pinned_run(config: ServiceConfig) -> dict:
    cluster = MultiRingCluster(MultiRingConfig(
        num_rings=2, num_nodes=3, seed=21,
        totem=TotemConfig(replication=ReplicationStyle.ACTIVE,
                          num_networks=2, enable_batching=True)))
    cluster.start()
    facade = ServiceFacade(cluster, config, registry=MetricRegistry())
    clients = Clients(facade, count=120, seed=5)
    clients.start()
    cluster.run_for(0.12)
    running = facade.slo_snapshot()
    clients.running = False
    facade.quiesce()
    cluster.run_for(0.05)
    assert facade.converged()
    return {
        "decisions": len(facade.decisions),
        "decision_digest": facade.decision_digest(),
        "applied_digest": {member: facade.applied_digest(member)
                           for member in facade.port.members},
        "running": running,
        "final": facade.slo_snapshot(),
    }


EXPECTED = {'fail-fast': {'decisions': 10936,
               'decision_digest': '9f950c4039f0398f',
               'applied_digest': {1: '0a88f5468e9779cb',
                                  2: '0a88f5468e9779cb',
                                  3: '0a88f5468e9779cb'},
               'running': {'service': 'pin',
                           'requests': 10936,
                           'admitted': 1885,
                           'completed': 1880,
                           'shed': {'rate-limited': 1086,
                                    'deadline-expired': 904,
                                    'backpressure': 7061},
                           'shed_total': 9051,
                           'ring_stalls': 0,
                           'queue_depth': 0,
                           'latency_p50_ms': 0.265837,
                           'latency_p99_ms': 0.916071,
                           'pressure': {'0': 0.5, '1': 0.75}},
               'final': {'service': 'pin',
                         'requests': 10936,
                         'admitted': 1885,
                         'completed': 1885,
                         'shed': {'rate-limited': 1086,
                                  'deadline-expired': 904,
                                  'backpressure': 7061},
                         'shed_total': 9051,
                         'ring_stalls': 0,
                         'queue_depth': 0,
                         'latency_p50_ms': 0.265792,
                         'latency_p99_ms': 0.915848,
                         'pressure': {'0': 0.0, '1': 0.0}}},
 'queueing': {'decisions': 9291,
              'decision_digest': '1b14d330b3351630',
              'applied_digest': {1: 'dc7fd0180bfdd85c',
                                 2: 'd084523a1d7d59fb',
                                 3: 'd084523a1d7d59fb'},
              'running': {'service': 'pin',
                          'requests': 9291,
                          'admitted': 1207,
                          'completed': 1204,
                          'shed': {'rate-limited': 127,
                                   'queue-full': 5924,
                                   'deadline-expired': 977,
                                   'backpressure': 1032},
                          'shed_total': 8060,
                          'ring_stalls': 0,
                          'queue_depth': 24,
                          'latency_p50_ms': 1.90981,
                          'latency_p99_ms': 4.868559,
                          'pressure': {'0': 0.75, '1': 0.0}},
              'final': {'service': 'pin',
                        'requests': 9291,
                        'admitted': 1207,
                        'completed': 1207,
                        'shed': {'rate-limited': 127,
                                 'queue-full': 5924,
                                 'deadline-expired': 977,
                                 'backpressure': 1032,
                                 'unavailable': 24},
                        'shed_total': 8084,
                        'ring_stalls': 0,
                        'queue_depth': 0,
                        'latency_p50_ms': 1.912184,
                        'latency_p99_ms': 4.869935,
                        'pressure': {'0': 0.0, '1': 0.0}}}}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_logs_and_snapshots_equal_the_recorded_run(name):
    assert pinned_run(CONFIGS[name]) == EXPECTED[name]
