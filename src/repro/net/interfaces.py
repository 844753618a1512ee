"""Transport-facing protocols between the simulated networks and a node's stack."""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from ..types import NodeId

#: Callback invoked when a packet arrives: ``handler(packet, network_index)``.
PacketHandler = Callable[[object, int], None]


@runtime_checkable
class Port(Protocol):
    """One node's attachment to one network.

    A port can broadcast to every other node on the network or unicast to a
    single destination (Totem unicasts tokens, broadcasts everything else).
    """

    def broadcast(self, packet: object) -> None:
        """Send ``packet`` to all other nodes attached to this network."""
        ...

    def unicast(self, dest: NodeId, packet: object) -> None:
        """Send ``packet`` to ``dest`` only."""
        ...
