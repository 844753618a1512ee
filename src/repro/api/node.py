"""One simulated Totem node: CPU + network stack + RRP + SRP, wired up."""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import LanConfig, TotemConfig
from ..core.base import ReplicationEngine
from ..core.factory import make_replication_engine
from ..errors import ConfigError
from ..net.simlan import SimLan
from ..net.stack import NetworkStack, NodeCpu
from ..sim.runtime import SimRuntime
from ..sim.scheduler import EventScheduler
from ..srp.engine import TotemSrp
from ..types import (
    ConfigChangeFn,
    DeliveryLog,
    DeliverFn,
    FaultReportFn,
    NodeId,
    SweepConsumer,
)


class TotemNode:
    """A complete Totem RRP node attached to N simulated LANs.

    The node owns a :class:`DeliveryLog` that records every delivered
    message, configuration change and fault report; user callbacks, when
    provided, are invoked in addition to the log.
    """

    def __init__(
        self,
        node_id: NodeId,
        config: TotemConfig,
        scheduler: EventScheduler,
        lans: Sequence[SimLan],
        lan_config: Optional[LanConfig] = None,
        on_deliver: Optional[DeliverFn] = None,
        on_config_change: Optional[ConfigChangeFn] = None,
        on_fault_report: Optional[FaultReportFn] = None,
        tracer=None,
        channel: int = 0,
    ) -> None:
        if len(lans) != config.num_networks:
            raise ConfigError(
                f"config wants {config.num_networks} networks, "
                f"got {len(lans)} LANs")
        self.node_id = node_id
        self.config = config
        self.channel = channel
        self.log = DeliveryLog()
        self._user_config_change = on_config_change
        self._user_fault_report = on_fault_report

        lan_config = lan_config or lans[0].config
        self.runtime = SimRuntime(scheduler)
        self.cpu = NodeCpu(scheduler)
        self.stack = NetworkStack(node_id, self.cpu, lan_config)
        for i, lan in enumerate(lans):
            self.stack.add_port(lan.attach(node_id, self.stack.make_deliver_fn(i),
                                           channel=channel))
        self.rrp: ReplicationEngine = make_replication_engine(
            node_id, config, self.runtime, self.stack,
            on_fault_report=self._on_fault_report)
        # Every message goes straight into the log, and a sweep reaches the
        # user in one `_on_deliver` call, which the SRP makes only while a
        # user callback is installed.  Both targets are bound *Python*
        # methods: `self.log.messages.append` would save a frame, but
        # deepcopy treats a bound builtin as atomic, so a forked world (the
        # explorer) would append to its parent's log.
        self.srp = TotemSrp(
            node_id, config, self.runtime, self.rrp,
            on_deliver=self.log.on_deliver,
            on_config_change=self._on_config_change,
            trace=(tracer.bind(node_id, "membership")
                   if tracer is not None else None))
        self.rrp.bind(self.srp)
        #: The user's ``on_deliver``, a SweepConsumer when ``_per_sweep``.
        self._user_deliver = None
        self._per_sweep = False
        if on_deliver is not None:
            self._set_user_deliver(on_deliver)

    # ----- callback fan-out -----

    def _set_user_deliver(self, fn) -> None:
        self._user_deliver = fn
        self._per_sweep = isinstance(fn, SweepConsumer)
        self.srp.on_sweep = self._on_deliver

    def _on_deliver(self, count: int) -> None:
        """One delivery sweep: the ``count`` messages the SRP just put in
        the log, handed to the user callback."""
        messages = self.log.messages[-count:]
        user_deliver = self._user_deliver
        if self._per_sweep:
            user_deliver(messages)
            return
        for message in messages:
            user_deliver(message)

    def _on_config_change(self, change) -> None:
        self.log.on_config_change(change)
        if self._user_config_change is not None:
            self._user_config_change(change)

    def _on_fault_report(self, report) -> None:
        self.log.on_fault_report(report)
        if self._user_fault_report is not None:
            self._user_fault_report(report)

    # ----- application interface -----

    def set_user_callbacks(self,
                           on_deliver: Optional[DeliverFn] = None,
                           on_config_change: Optional[ConfigChangeFn] = None,
                           on_fault_report: Optional[FaultReportFn] = None) -> None:
        """Install (or replace) the application callbacks after construction.

        Toolkits such as :class:`repro.app.ReplicatedStateMachine` use this
        to take over the delivery stream of an already-built node.  An
        ``on_deliver`` that is a :class:`SweepConsumer` is called once per
        delivery sweep with the sweep's messages, any other once per message.
        """
        if on_deliver is not None:
            self._set_user_deliver(on_deliver)
        if on_config_change is not None:
            self._user_config_change = on_config_change
        if on_fault_report is not None:
            self._user_fault_report = on_fault_report

    def start(self, initial_members: Optional[Sequence[NodeId]] = None) -> None:
        """Bring the node up (see :meth:`TotemSrp.start`)."""
        self.rrp.start()
        self.srp.start(initial_members)

    def stop(self) -> None:
        """Abandon this incarnation: cancel all protocol timers."""
        self.srp.stop()
        self.rrp.stop()

    def submit(self, payload: bytes) -> None:
        """Queue a message for totally ordered broadcast (raises when full)."""
        self.srp.submit(payload)

    def try_submit(self, payload: bytes) -> bool:
        """Best-effort :meth:`submit`; returns False when the queue is full."""
        return self.srp.try_submit(payload)

    def submit_many(self, payloads) -> int:
        """Bulk :meth:`try_submit`; returns how many fit before the queue
        filled.  Payloads must already be ``bytes``."""
        return self.srp.submit_many(payloads)

    @property
    def delivered(self):
        """Messages delivered so far, in total order."""
        return self.log.messages

    @property
    def membership(self):
        return self.srp.membership

    @property
    def faulty_networks(self):
        """Networks this node has stopped sending on."""
        return self.rrp.faults.faulty_networks
