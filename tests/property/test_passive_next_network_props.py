"""Property: passive replication's next-network table is the round-robin.

Passive replication (paper §6) sends each message and each token on the
next network after the previous one, skipping networks marked faulty.  The
engine reads that choice from a table it rebuilds when the fault marks'
``version`` moves.  The loop it replaced is kept here as the reference;
the engine is driven with random sequences of marks, clears and sends at
N = 2-4, and after every step the network each send used, and the
network the table gives after every position, must equal the reference's.
"""

from __future__ import annotations

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LanConfig, TotemConfig
from repro.core.factory import make_replication_engine
from repro.sim.runtime import SimRuntime
from repro.sim.scheduler import EventScheduler
from repro.types import ReplicationStyle, RingId
from repro.wire.packets import DataPacket, Token

RING = RingId(seq=4, representative=1)


def reference_next(faulty, current: int) -> int:
    """``_next_network`` as it was: a scan of the marks per send."""
    networks = len(faulty)
    for _ in range(networks):
        current = (current + 1) % networks
        if not faulty[current]:
            return current
    return current  # all faulty (cannot happen: last never marked)


class RecordingStack:
    """The stack interface the engine sends through; records networks."""

    def __init__(self, num_networks: int) -> None:
        self.num_networks = num_networks
        self._lan_config = LanConfig()
        self.sent = []

    def set_receive_handler(self, handler) -> None:
        pass

    def set_recv_cost_fn(self, fn) -> None:
        pass

    def broadcast(self, network: int, packet: object) -> None:
        self.sent.append(network)

    def unicast(self, network: int, dest: int, packet: object) -> None:
        self.sent.append(network)


def build(num_networks: int):
    config = TotemConfig(replication=ReplicationStyle.PASSIVE,
                         num_networks=num_networks)
    stack = RecordingStack(num_networks)
    engine = make_replication_engine(1, config, SimRuntime(EventScheduler()),
                                     stack)
    return engine, stack


PACKET = DataPacket(sender=1, ring_id=RING, seq=1, chunks=())
TOKEN = Token(ring_id=RING, seq=1)


def table_agrees(engine, stack) -> None:
    """Every row of the table, read through a send from each position."""
    faulty = engine.faults._faulty
    for current in range(len(faulty)):
        engine._send_message_via = current
        engine.broadcast_data(PACKET)
        assert stack.sent[-1] == reference_next(faulty, current)


@st.composite
def scenarios(draw):
    num_networks = draw(st.integers(min_value=2, max_value=4))
    network = st.integers(min_value=0, max_value=num_networks - 1)
    operation = st.one_of(
        st.tuples(st.just("mark_faulty"), network),
        st.tuples(st.just("clear_fault"), network),
        st.tuples(st.just("data")),
        st.tuples(st.just("token")))
    return num_networks, draw(st.lists(operation, max_size=30))


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_sends_follow_the_reference_round_robin(scenario):
    num_networks, operations = scenario
    engine, stack = build(num_networks)
    faulty = engine.faults._faulty
    via = {"data": num_networks - 1, "token": num_networks - 1}
    for operation in operations:
        kind = operation[0]
        if kind == "data":
            engine.broadcast_data(PACKET)
        elif kind == "token":
            engine.send_token(TOKEN, dest=2)
        else:
            # A mark from a monitor (refused on the last operational
            # network) or an administrative clear: the table must follow.
            getattr(engine.faults, kind)(operation[1], "test")
            continue
        via[kind] = reference_next(faulty, via[kind])
        assert stack.sent[-1] == via[kind]
        assert engine._send_token_via == via["token"]
    table_agrees(engine, stack)


def test_every_mark_pattern():
    """Each pattern the marks can take at N = 2-4 (never all marked),
    reached by marks and clears on one engine."""
    for num_networks in (2, 3, 4):
        engine, stack = build(num_networks)
        faults = engine.faults
        for pattern in product((False, True), repeat=num_networks):
            if all(pattern):
                continue
            for network, bad in enumerate(pattern):
                if not bad and faults.is_faulty(network):
                    faults.clear_fault(network, "test")
            for network, bad in enumerate(pattern):
                if bad:
                    faults.mark_faulty(network, "test")
            assert faults._faulty == list(pattern)
            table_agrees(engine, stack)
