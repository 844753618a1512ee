"""Run a Totem RRP node on real UDP sockets with asyncio.

The protocol engines are sans-io; this module provides the asyncio
:class:`~repro.sim.runtime.Runtime` (wall-clock timers) and wires the
engines to a :class:`~repro.net.udp.UdpStack`.

Typical use (see ``examples/udp_chat.py``)::

    addresses = local_address_map([1, 2, 3], num_networks=2)
    node = AsyncioTotemNode(1, config, addresses)
    await node.start(initial_members=[1, 2, 3])
    node.submit(b"hello")
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional, Sequence

from ..config import TotemConfig
from ..core.factory import make_replication_engine
from ..net.udp import AddressMap, UdpStack
from ..srp.engine import TotemSrp
from ..types import (
    ConfigChangeFn,
    DeliveryLog,
    DeliverFn,
    FaultReportFn,
    NodeId,
)


class _AsyncioTimer:
    """Adapts ``loop.call_later`` to the engines' TimerHandle protocol."""

    __slots__ = ("_handle", "_fired")

    def __init__(self, loop: asyncio.AbstractEventLoop, delay: float,
                 callback: Callable[..., None], args: tuple) -> None:
        self._fired = False

        def fire() -> None:
            self._fired = True
            callback(*args)
        self._handle = loop.call_later(delay, fire)

    def cancel(self) -> None:
        self._handle.cancel()

    @property
    def active(self) -> bool:
        return not self._fired and not self._handle.cancelled()


class AsyncioRuntime:
    """A :class:`~repro.sim.runtime.Runtime` backed by the asyncio loop."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop or asyncio.get_event_loop()

    def now(self) -> float:
        return self._loop.time()

    def set_timer(self, delay: float, callback: Callable[..., None],
                  *args: Any) -> _AsyncioTimer:
        return _AsyncioTimer(self._loop, delay, callback, args)


class AsyncioTotemNode:
    """A complete Totem RRP node on real UDP sockets."""

    def __init__(
        self,
        node_id: NodeId,
        config: TotemConfig,
        addresses: AddressMap,
        on_deliver: Optional[DeliverFn] = None,
        on_config_change: Optional[ConfigChangeFn] = None,
        on_fault_report: Optional[FaultReportFn] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.log = DeliveryLog()
        self._user_deliver = on_deliver
        self._user_config_change = on_config_change
        self._user_fault_report = on_fault_report
        self.stack = UdpStack(node_id, addresses)
        self._started = False
        # Runtime and engines are created in start(), on the running loop.
        self.runtime: Optional[AsyncioRuntime] = None
        self.rrp = None
        self.srp: Optional[TotemSrp] = None

    async def start(self, initial_members: Optional[Sequence[NodeId]] = None) -> None:
        """Bind sockets and start the protocol engines."""
        if self._started:
            return
        self._started = True
        loop = asyncio.get_running_loop()
        self.runtime = AsyncioRuntime(loop)
        self.rrp = make_replication_engine(
            self.node_id, self.config, self.runtime, self.stack,
            on_fault_report=self._on_fault_report)
        self.srp = TotemSrp(
            self.node_id, self.config, self.runtime, self.rrp,
            on_deliver=self._on_deliver,
            on_config_change=self._on_config_change)
        self.rrp.bind(self.srp)
        await self.stack.open()
        self.rrp.start()
        self.srp.start(initial_members)

    def close(self) -> None:
        self.stack.close()

    # ----- callback fan-out -----

    def _on_deliver(self, message) -> None:
        self.log.on_deliver(message)
        if self._user_deliver is not None:
            self._user_deliver(message)

    def _on_config_change(self, change) -> None:
        self.log.on_config_change(change)
        if self._user_config_change is not None:
            self._user_config_change(change)

    def _on_fault_report(self, report) -> None:
        self.log.on_fault_report(report)
        if self._user_fault_report is not None:
            self._user_fault_report(report)

    # ----- application interface -----

    def submit(self, payload: bytes) -> None:
        assert self.srp is not None, "start() first"
        self.srp.submit(payload)

    def try_submit(self, payload: bytes) -> bool:
        assert self.srp is not None, "start() first"
        return self.srp.try_submit(payload)

    @property
    def delivered(self):
        return self.log.messages

    @property
    def membership(self):
        assert self.srp is not None, "start() first"
        return self.srp.membership
