"""Per-node CPU model and the network stack glue.

The paper attributes its performance results to protocol-stack processing
cost, not just wire bandwidth: active replication loses throughput because it
"doubles the number of calls to the network protocol stack" (§8), and passive
replication scales sub-linearly because ordering/retransmission/liveness
processing saturates the CPU before the second network does.

:class:`NodeCpu` is a single-server FIFO queue in virtual time: every
stack traversal (send or receive) and every per-message protocol action
occupies the CPU for a configured cost.  :class:`NetworkStack` routes frames
between a node's protocol engine and its N :class:`~repro.net.simlan.LanPort`
attachments, charging CPU on both paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence

from ..config import LanConfig
from ..errors import TransportError
from ..sim.scheduler import EventScheduler
from ..types import NodeId
from .interfaces import PacketHandler
from .simlan import LanPort

#: Returns the CPU seconds to charge for receiving ``packet``.
RecvCostFn = Callable[[object], float]


@dataclass
class CpuStats:
    """CPU accounting for one node."""

    busy_time: float = 0.0
    operations: int = 0

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


def _rejected_job() -> None:
    """Stand-in for a queued job whose cost was rejected (see ``_finish``)."""


class NodeCpu:
    """A single-server FIFO CPU in virtual time.

    ``submit(cost, fn)`` runs ``fn`` once all previously submitted work has
    finished and ``cost`` further seconds have elapsed.  ``cost`` may be a
    callable, evaluated when the job *starts* — this matters for the
    duplicate-receive discount: whether a frame is a duplicate is only known
    once every earlier frame has actually been processed.

    A job is two bodies, one per scheduler event boundary: :meth:`submit`
    bills and schedules a job that finds the CPU idle, and :meth:`_finish`
    (the scheduled event) runs the job and bills and schedules the one
    queued behind it.  A cost is validated before anything is marked or
    scheduled, so a rejected job — negative cost, or a cost callable that
    raises — is dropped without leaving the CPU "running" with nothing
    on the heap.
    """

    def __init__(self, scheduler: EventScheduler) -> None:
        self._scheduler = scheduler
        self._queue: "deque" = deque()
        self._running = False
        self.stats = CpuStats()

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + (1 if self._running else 0)

    def submit(self, cost, fn: Callable[..., None], *args: object) -> None:
        """Queue ``fn(*args)`` behind all pending work.

        ``cost`` is seconds of CPU time, or a zero-argument callable
        returning seconds, evaluated when the job reaches the head of the
        queue.
        """
        if self._running:
            self._queue.append((cost, fn, args))
            return
        if type(cost) is not float and callable(cost):
            cost = cost()
        if cost < 0:
            raise TransportError(f"negative CPU cost {cost}")
        self._running = True
        stats = self.stats
        stats.busy_time += cost
        stats.operations += 1
        scheduler = self._scheduler
        scheduler.schedule(scheduler.clock._now + cost, self._finish, fn, args)

    def _finish(self, fn: Callable[..., None], args: tuple) -> None:
        """The scheduled end of a job: run it, then begin the next one."""
        try:
            fn(*args)
        finally:
            queue = self._queue
            if not queue:
                self._running = False
            else:
                cost, fn, args = queue.popleft()
                try:
                    cls = type(cost)
                    # A queued frame's deferred cost (see _PortDeliver) is
                    # known by its type; anything else not a float is asked.
                    if cls is partial or (cls is not float
                                          and callable(cost)):
                        cost = cost()
                    if cost < 0:
                        raise TransportError(f"negative CPU cost {cost}")
                except Exception:
                    # Drop the rejected job and begin the one behind it
                    # before the error propagates: every later frame of
                    # this node would otherwise queue forever.
                    self._finish(_rejected_job, ())
                    raise
                stats = self.stats
                stats.busy_time += cost
                stats.operations += 1
                scheduler = self._scheduler
                scheduler.schedule(scheduler.clock._now + cost,
                                   self._finish, fn, args)


class _DefaultRecvCost:
    """Flat per-frame receive cost, used until the protocol glue installs a
    classifier via :meth:`NetworkStack.set_recv_cost_fn`.

    A callable object rather than a closure: ``copy.deepcopy`` treats plain
    functions as atomic, so a closure here would keep a copied stack wired
    to the original's config.  Every long-lived callable the simulated world
    stores must be an object (or a bound method) for cluster snapshots to be
    self-contained.
    """

    __slots__ = ("_lan_config",)

    def __init__(self, lan_config: LanConfig) -> None:
        self._lan_config = lan_config

    def __call__(self, packet: object) -> float:
        return self._lan_config.cpu_per_recv


class _PortDeliver:
    """The per-network delivery callback a stack registers with a LAN.

    A frame that finds the CPU idle starts its job inside this very call,
    so it is classified and billed at once.  A frame that must queue defers
    its cost as ``partial(stack._recv_cost_fn, packet)``, resolved when its
    job *starts* — so a copy queued behind its twin is billed as a
    duplicate, from the same engine state the job start always read.  The
    job is the installed receive handler itself; ``_dispatch`` only stands
    in for a frame that arrives before there is one.

    Instances live in ``SimLan._receivers`` and inside in-flight fanout
    events, so they must be deepcopy-safe (see :class:`_DefaultRecvCost`).
    """

    __slots__ = ("_stack", "_network")

    def __init__(self, stack: "NetworkStack", network: int) -> None:
        self._stack = stack
        self._network = network

    def __call__(self, src: NodeId, packet: object) -> None:
        stack = self._stack
        cpu = stack._cpu
        cpu.submit(partial(stack._recv_cost_fn, packet) if cpu._running
                   else stack._recv_cost_fn(packet),
                   stack._handler or stack._dispatch, packet, self._network)


class NetworkStack:
    """A node's view of its N redundant networks.

    Downward: ``broadcast(i, pkt)`` / ``unicast(i, dest, pkt)`` charge one
    stack-call CPU cost, then hand the frame to network ``i``.  Upward:
    frames arriving from any network are queued on the CPU (cost decided by
    ``recv_cost_fn``, which the protocol glue sets so duplicate frames are
    cheaper) and then passed to the receive handler with the network index —
    the ``recvMsg(m, nx)`` / ``recvToken(t, nx)`` interface of Figures 2
    and 4.
    """

    def __init__(self, node: NodeId, cpu: NodeCpu, lan_config: LanConfig,
                 ports: Sequence[LanPort] = ()) -> None:
        self.node = node
        self._cpu = cpu
        self._lan_config = lan_config
        self._ports: List[LanPort] = list(ports)
        self._handler: Optional[PacketHandler] = None
        self._recv_cost_fn: RecvCostFn = _DefaultRecvCost(lan_config)
        #: Frames dropped because no handler was installed yet.
        self.undelivered = 0

    @property
    def num_networks(self) -> int:
        return len(self._ports)

    def add_port(self, port: LanPort) -> None:
        """Attach one more network (ports are indexed in attachment order)."""
        self._ports.append(port)

    def set_receive_handler(self, handler: PacketHandler) -> None:
        """Install the upward handler: ``handler(packet, network_index)``."""
        self._handler = handler

    def set_recv_cost_fn(self, fn: RecvCostFn) -> None:
        """Install the receive CPU-cost classifier (duplicates are cheaper)."""
        self._recv_cost_fn = fn

    # ----- downward path (engine -> network) -----

    def _send_cost(self, packet: object) -> float:
        lan = self._lan_config
        return lan.cpu_per_send + lan.cpu_per_byte_send * packet.wire_size()  # type: ignore[attr-defined]

    def broadcast(self, network: int, packet: object) -> None:
        port = self._port(network)
        self._cpu.submit(self._send_cost(packet), port.broadcast, packet)

    def unicast(self, network: int, dest: NodeId, packet: object) -> None:
        port = self._port(network)
        self._cpu.submit(self._send_cost(packet), port.unicast, dest, packet)

    def _port(self, network: int) -> LanPort:
        try:
            return self._ports[network]
        except IndexError:
            raise TransportError(
                f"node {self.node} has no network {network} "
                f"(has {len(self._ports)})") from None

    # ----- upward path (network -> engine) -----

    def make_deliver_fn(self, network: int) -> _PortDeliver:
        """The per-network delivery callback to register with a LAN."""
        return _PortDeliver(self, network)

    def _dispatch(self, packet: object, network: int) -> None:
        if self._handler is None:
            self.undelivered += 1
            return
        self._handler(packet, network)
