"""Span recorder for the traced pass: outside-in, from the benchmark's files.

``install(recorder)`` replaces the public entry points of every layer with
recording wrappers *before* the cluster is built (objects capture bound
methods at construction).  It relies on ``REPRO_PURE=1``: only in pure mode
does wrapping a public method leave the code path unchanged.

Two kinds of span:

* **call spans** around the listed entry points (``sim.run_until``,
  ``net.lan_transmit``, ``srp.on_token`` ...);
* **event spans** around every scheduler callback.  The wrappers of
  ``schedule`` / ``call_at`` / ``call_after`` / ``schedule_now`` /
  ``drain_now`` substitute a trampoline for the callback, so the work one
  event causes is one tree whose root is named after the callback
  (``ev:NodeCpu._finish``; ``tm:`` for the cancellable timers of
  ``call_at`` / ``call_after``) and belongs to the layer of the callback's
  module.  Private code reached from an event therefore lands in its own
  layer, not in the scheduler's.

A span is four integers in one flat preallocated list: name id, start ns,
end ns, parent slot (-1 for a root).  ``fold()`` turns the spans of one
slice into per-name totals — self time is a span's duration minus the
durations of its direct children — and empties the list, so memory stays
bounded by one slice.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns
from types import FunctionType
from typing import Callable, Dict, List, Optional

LAYERS = ("sim", "net", "core", "srp", "api", "multiring", "service", "gen",
          "other")

#: Module prefix -> layer.  ``repro.types`` holds the delivery log the API
#: layer hands out; ``loadgen`` is the benchmark's own generator.
_MODULE_LAYERS = {
    "repro.sim": "sim", "repro.net": "net", "repro.core": "core",
    "repro.srp": "srp", "repro.api": "api", "repro.types": "api",
    "repro.multiring": "multiring", "repro.service": "service",
    "loadgen": "gen",
}

#: Raw spans kept for ``trace-<workload>.json`` (from the first folded slice).
SAMPLE_SPANS = 20_000


def layer_of_module(module: str) -> str:
    return _MODULE_LAYERS.get(".".join(module.split(".")[:2]), "other")


class Recorder:
    """Preallocated span buffer plus per-name aggregates."""

    def __init__(self, capacity: int = 600_000,
                 clock: Callable[[], int] = perf_counter_ns) -> None:
        self._clock = clock
        self._buf: List[int] = [0] * (4 * capacity)
        #: [next free slot, slot of the open span, recording?]
        self._state = [0, -1, 0]
        self.names: List[str] = []
        self.layers: List[str] = []
        self.count: List[int] = []
        self.total_ns: List[int] = []
        self.self_ns: List[int] = []
        self.sample: Optional[List[list]] = None

    # ----- naming -----

    def name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.count.append(0)
        self.total_ns.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    # ----- wrappers -----

    def span(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` wrapped in a call span."""
        nid = self.name_id(name, layer)
        buf, state, clock = self._buf, self._state, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not state[2]:
                return fn(*args, **kwargs)
            slot = state[0]
            state[0] = slot + 4
            parent = state[1]
            state[1] = slot
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                state[1] = parent
                buf[slot] = nid
                buf[slot + 1] = start
                buf[slot + 2] = end
                buf[slot + 3] = parent
        return wrapper

    def trampoline(self, prefix: str) -> Callable:
        """``trampoline(callback, *args)``: the event span around a callback,
        named ``prefix`` + the callback's qualified name."""
        buf, state, clock = self._buf, self._state, self._clock
        ids: Dict[object, int] = {}

        def new_id(key) -> int:
            # ``key`` is a function or, for callable objects, their class.
            nid = self.name_id(prefix + key.__qualname__,
                               layer_of_module(key.__module__))
            ids[key] = nid
            return nid

        def trampoline(callback, *args):
            if not state[2]:
                callback(*args)
                return
            try:
                key = callback.__func__
            except AttributeError:
                key = callback if type(callback) is FunctionType \
                    else type(callback)
            nid = ids.get(key)
            if nid is None:
                nid = new_id(key)
            slot = state[0]
            state[0] = slot + 4
            parent = state[1]
            state[1] = slot
            start = clock()
            try:
                callback(*args)
            finally:
                end = clock()
                state[1] = parent
                buf[slot] = nid
                buf[slot + 1] = start
                buf[slot + 2] = end
                buf[slot + 3] = parent
        return trampoline

    # ----- slices -----

    def start(self) -> None:
        """Begin recording (call with no span open)."""
        self._state[0] = 0
        self._state[2] = 1

    def fold(self) -> None:
        """Stop recording and fold the slice's spans into the aggregates."""
        state, buf = self._state, self._buf
        state[2] = 0
        if state[1] != -1:
            raise RuntimeError("fold() called with a span still open")
        spans = state[0] >> 2
        self_ns = [0] * spans
        count, total = self.count, self.total_ns
        for k in range(spans):
            slot = k << 2
            duration = buf[slot + 2] - buf[slot + 1]
            self_ns[k] += duration
            parent = buf[slot + 3]
            if parent >= 0:
                self_ns[parent >> 2] -= duration
            nid = buf[slot]
            count[nid] += 1
            total[nid] += duration
        aggregate = self.self_ns
        for k in range(spans):
            aggregate[buf[k << 2]] += self_ns[k]
        if self.sample is None:
            self.sample = self._export(min(spans, SAMPLE_SPANS), self_ns)
        state[0] = 0

    def _export(self, spans: int, self_ns: List[int]) -> List[list]:
        """Raw spans as ``[name, layer, start, end, self, parent, root]``
        with times in ns from the first span's start and parent/root as
        span indices (-1: none; a root's root is itself)."""
        buf = self._buf
        origin = buf[1] if spans else 0
        roots: List[int] = []
        rows: List[list] = []
        for k in range(spans):
            slot = k << 2
            parent = buf[slot + 3] >> 2 if buf[slot + 3] >= 0 else -1
            # Roots are the spans directly under the run loop (or under
            # nothing): one per scheduler event.
            if parent < 0 or buf[(parent << 2) + 3] < 0:
                roots.append(k)
            else:
                roots.append(roots[parent])
            nid = buf[slot]
            rows.append([self.names[nid], self.layers[nid],
                         buf[slot + 1] - origin, buf[slot + 2] - origin,
                         self_ns[k], parent, roots[k]])
        return rows

    # ----- results -----

    def by_name(self) -> Dict[str, dict]:
        return {name: {"layer": self.layers[nid], "count": self.count[nid],
                       "total_ns": self.total_ns[nid],
                       "self_ns": self.self_ns[nid]}
                for nid, name in enumerate(self.names) if self.count[nid]}

    def by_layer(self) -> Dict[str, dict]:
        table = {layer: {"count": 0, "self_ns": 0} for layer in LAYERS}
        for nid, layer in enumerate(self.layers):
            table[layer]["count"] += self.count[nid]
            table[layer]["self_ns"] += self.self_ns[nid]
        return table


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------

#: Stage spans: ``srp.stage_deliver`` wraps ``_try_deliver``, the one place
#: every delivery pass goes through (``stage_deliver`` is a named alias the
#: hot path does not call).
STAGES = ("token_receive", "retransmit_serve", "aru_update",
          "retransmit_request", "dequeue_pack", "stability_update",
          "token_forward", "deliver")


def _wrap(recorder: Recorder, cls: type, attr: str, name: str,
          layer: Optional[str] = None) -> None:
    setattr(cls, attr, recorder.span(cls.__dict__[attr], name,
                                     layer or name.split(".")[0]))


def install(recorder: Recorder) -> None:
    """Patch every layer's entry points.  Call before building a cluster."""
    from repro.api.node import TotemNode
    from repro.core.active import ActiveReplication
    from repro.core.active_passive import ActivePassiveReplication
    from repro.core.base import ReplicationEngine, SingleNetwork
    from repro.core.passive import PassiveReplication
    from repro.multiring.cluster import MultiRingCluster, _EngineDeliver
    from repro.multiring.merge import CrossRingMerger
    from repro.net.simlan import SimLan
    from repro.net.stack import NetworkStack, NodeCpu
    from repro.service.admission import FairAdmissionQueue, TokenBucket
    from repro.service.facade import ServiceFacade, _AppHandler
    from repro.sim.scheduler import EventScheduler
    from repro.srp.engine import TotemSrp
    from repro.srp.ordering import ReceiveBuffer
    from repro.srp.packing import Packer, Reassembler
    from repro.types import DeliveryLog

    import loadgen

    _install_scheduler(recorder, EventScheduler)
    _wrap(recorder, NodeCpu, "submit", "net.cpu_submit")
    _wrap(recorder, SimLan, "transmit", "net.lan_transmit")
    _wrap(recorder, NetworkStack, "broadcast", "net.stack_broadcast")
    _wrap(recorder, NetworkStack, "unicast", "net.stack_unicast")
    for engine in (ReplicationEngine, SingleNetwork, ActiveReplication,
                   PassiveReplication, ActivePassiveReplication):
        for attr in ("on_packet", "broadcast_data", "broadcast_batch",
                     "send_token"):
            if attr in engine.__dict__:
                _wrap(recorder, engine, attr, "core." + attr)
    for attr in ("submit_many", "on_data", "on_batch", "on_token"):
        _wrap(recorder, TotemSrp, attr, "srp." + attr)
    for stage in STAGES[:-1]:
        _wrap(recorder, TotemSrp, "stage_" + stage, "srp.stage_" + stage)
    _wrap(recorder, TotemSrp, "_try_deliver", "srp.stage_deliver")
    _wrap(recorder, Packer, "next_batch", "srp.packer_next_batch")
    _wrap(recorder, Packer, "next_packet_chunks", "srp.packer_next_packet")
    _wrap(recorder, Reassembler, "feed", "srp.reassembler_feed")
    _wrap(recorder, ReceiveBuffer, "insert", "srp.buffer_insert")
    _wrap(recorder, TotemNode, "submit_many", "api.submit_many")
    _wrap(recorder, TotemNode, "_on_deliver", "api.node_deliver")
    _wrap(recorder, DeliveryLog, "on_deliver", "api.log_deliver")
    _wrap(recorder, MultiRingCluster, "submit_to_group",
          "multiring.submit_to_group")
    _wrap(recorder, _EngineDeliver, "__call__", "multiring.dispatch")
    _wrap(recorder, CrossRingMerger, "feed", "multiring.merger_feed")
    _wrap(recorder, ServiceFacade, "set", "service.set")
    _wrap(recorder, ServiceFacade, "submit", "service.submit")
    _wrap(recorder, _AppHandler, "__call__", "service.apply")
    _wrap(recorder, FairAdmissionQueue, "offer", "service.queue_offer")
    _wrap(recorder, FairAdmissionQueue, "pop", "service.queue_pop")
    _wrap(recorder, TokenBucket, "try_take", "service.bucket_take")
    # The generator's refill/fire run as scheduler events and get event
    # spans; its callbacks are called from inside other layers.
    _wrap(recorder, loadgen.SaturatingSenders, "on_deliver", "gen.on_deliver")
    _wrap(recorder, loadgen.ClosedLoopClients, "on_decision",
          "gen.on_decision")
    _wrap(recorder, loadgen.ClosedLoopClients, "on_complete",
          "gen.on_complete")


def _install_scheduler(recorder: Recorder, scheduler_cls: type) -> None:
    trampoline = recorder.trampoline("ev:")
    timer_trampoline = recorder.trampoline("tm:")
    plain = {attr: scheduler_cls.__dict__[attr]
             for attr in ("schedule", "call_at", "call_after",
                          "schedule_now", "drain_now")}

    def schedule(self, when, callback, *args):
        plain["schedule"](self, when, trampoline, callback, *args)

    def call_at(self, when, callback, *args):
        return plain["call_at"](self, when, timer_trampoline, callback,
                                *args)

    def call_after(self, delay, callback, *args):
        return plain["call_after"](self, delay, timer_trampoline, callback,
                                   *args)

    def schedule_now(self, callback, *args):
        plain["schedule_now"](self, trampoline, callback, *args)

    def drain_now(self, pairs):
        plain["drain_now"](self, [(trampoline, (callback,) + args)
                                  for callback, args in pairs])

    for shim in (schedule, call_at, call_after, schedule_now, drain_now):
        functools.update_wrapper(shim, plain[shim.__name__])
        setattr(scheduler_cls, shim.__name__,
                recorder.span(shim, "sim." + shim.__name__, "sim"))
    setattr(scheduler_cls, "run_until",
            recorder.span(scheduler_cls.__dict__["run_until"],
                          "sim.run_until", "sim"))
