"""The per-frame functions read no enum member off its class.

On Python 3.11 ``EnumType`` defines ``__getattr__``, so
``SrpState.RECOVERY`` / ``ChunkKind.APP`` takes the metaclass's slow
attribute hook (~100 ns per load against ~8 ns for a module global), and
no Python frame runs, so no profiler counts it: ``py_calls_per_msg`` stays
flat while host time rises.  The hot modules bind the members they test once, as
module constants (``repro.srp.engine._RECOVERY`` ...).  This walks the
bytecode of every function on the per-frame send and receive chain and
fails on a global name that resolves to an ``enum.Enum`` subclass and is
followed by an attribute load.
"""

from __future__ import annotations

import dis
import enum

import pytest

from repro.core.active_passive import ActivePassiveReplication
from repro.core.base import ReplicationEngine
from repro.core.monitor import RecvCountMonitor
from repro.core.passive import PassiveReplication
from repro.net.simlan import SimLan
from repro.net.stack import NodeCpu
from repro.sim.scheduler import EventScheduler
from repro.srp.engine import TotemSrp
from repro.srp.membership import SrpState
from repro.srp.packing import Packer

PER_FRAME = (
    TotemSrp.on_data, TotemSrp.on_batch, TotemSrp._try_deliver,
    ReplicationEngine._recv_cost,
    PassiveReplication.recv_data, ActivePassiveReplication.recv_data,
    RecvCountMonitor.record,
    SimLan.transmit,
    EventScheduler.run_until, EventScheduler.schedule,
    NodeCpu._finish,
    Packer.next_packet_chunks,
)

_ATTRIBUTE_LOADS = frozenset(("LOAD_ATTR", "LOAD_METHOD"))


def enum_class_loads(function) -> list:
    """``Class.MEMBER`` names ``function`` loads off an enum class that it
    resolves through its globals."""
    found = []
    instructions = list(dis.get_instructions(function))
    for here, after in zip(instructions, instructions[1:]):
        if here.opname != "LOAD_GLOBAL":
            continue
        value = function.__globals__.get(here.argval)
        if (isinstance(value, type) and issubclass(value, enum.Enum)
                and after.opname in _ATTRIBUTE_LOADS):
            found.append(f"{here.argval}.{after.argval}")
    return found


@pytest.mark.parametrize("function", PER_FRAME,
                         ids=lambda function: function.__qualname__)
def test_no_enum_member_read_off_its_class(function):
    assert enum_class_loads(function) == []


def _reads_the_class(state):
    return state is SrpState.RECOVERY


def test_the_walk_finds_a_class_load():
    """The check itself: the pattern the hot path dropped is caught."""
    assert enum_class_loads(_reads_the_class) == ["SrpState.RECOVERY"]
