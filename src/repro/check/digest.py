"""Deterministic cluster state digests for ``repro.campaign explore``.

The model-checking explorer (:mod:`repro.campaign.explore`) deduplicates its
search frontier on a canonical digest of the *entire* simulated world: every
node's protocol state, every LAN's fault state, and every pending event on
the scheduler.  Two worlds with equal digests behave identically on every
future schedule, so one of them can be pruned.

Canonicalisation rules (see docs/MODELCHECK.md):

* Protocol components expose ``digest_state()`` returning canonical tuples
  (sets and dicts sorted, packets rendered through the wire codec).
* Absolute virtual times appear only *relative to now* (``round(t - now,
  9)``), so states reached at different times can still coincide.
* Statistics counters, trace/obs hooks and fault-report logs are excluded —
  they never feed back into a protocol decision.
* Scheduled callbacks are identified structurally (owner type + method name
  + owning node), never by object identity.
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import Tuple

from ..net.stack import _DefaultRecvCost, _PortDeliver
from ..types import Membership, RingId
from ..wire.codec import encode_packet
from ..wire.packets import (BatchPacket, CommitToken, DataPacket,
                            JoinMessage, Token)

_PACKETS = (DataPacket, BatchPacket, Token, JoinMessage, CommitToken)

#: Attributes probed (in order) to attribute a callback to its owning actor.
_OWNER_ATTRS = ("node_id", "node", "_node", "index")


def _owner_key(owner) -> Tuple:
    """A structural identity for the object a bound method lives on."""
    for attr in _OWNER_ATTRS:
        value = getattr(owner, attr, None)
        if isinstance(value, int):
            return (attr, value)
    return ()


def callback_digest(callback) -> Tuple:
    """Identify a scheduled callback structurally.

    Bound methods become (owner type, method name, owner id); the network
    stack's callable helper objects get bespoke encodings; plain functions
    fall back to module + qualified name.
    """
    owner = getattr(callback, "__self__", None)
    if owner is not None:  # bound method
        return ("method", type(owner).__name__, callback.__name__,
                _owner_key(owner))
    if isinstance(callback, _PortDeliver):
        return ("portdeliver", callback._stack.node, callback._network)
    if isinstance(callback, partial):
        # A queued frame's deferred receive cost (net.stack._PortDeliver):
        # ``partial(stack._recv_cost_fn, packet)``.
        return ("recvjob", callback_digest(callback.func),
                value_digest(callback.args))
    if isinstance(callback, _DefaultRecvCost):
        return ("defaultcost",)
    name = getattr(callback, "__qualname__", None)
    if name is not None:
        return ("function", getattr(callback, "__module__", ""), name)
    return ("callable", type(callback).__name__, _owner_key(callback))


def value_digest(value):
    """Canonicalise an arbitrary event argument.

    Containers recurse; packets use their wire encoding; callables go
    through :func:`callback_digest`; anything exposing ``digest_state()``
    delegates to it.  Unknown objects collapse to their type name — fine
    for dedup (it can only make the digest *coarser* via a hash collision
    never finer), and loud in practice because event args are closed over
    a small set of simulator types.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, _PACKETS):
        return encode_packet(value)
    if isinstance(value, RingId):
        return ("ring", value.seq, value.representative)
    if isinstance(value, Membership):
        return ("membership", value.ring_id.seq,
                value.ring_id.representative, tuple(value.members))
    if isinstance(value, (tuple, list)):
        return tuple(value_digest(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted((value_digest(v) for v in value),
                                       key=repr))
    if isinstance(value, dict):
        return ("dict",) + tuple(sorted(
            ((value_digest(k), value_digest(v)) for k, v in value.items()),
            key=repr))
    if callable(value):
        return callback_digest(value)
    digest_state = getattr(value, "digest_state", None)
    if digest_state is not None:
        return digest_state()
    return ("opaque", type(value).__name__)


def scheduler_digest(scheduler) -> Tuple:
    """Pending (live) events in firing order, times relative to now."""
    now = scheduler.clock._now
    entries = [e for e in scheduler._heap if e[2] is not None]
    entries.sort(key=lambda e: (e[0], e[1]))
    return tuple((round(e[0] - now, 9), callback_digest(e[2]),
                  value_digest(e[3])) for e in entries)


def _cpu_digest(cpu) -> Tuple:
    """A node CPU's queued jobs (the in-flight job is a scheduler event)."""
    return ("cpu", cpu._running,
            tuple((value_digest(cost), callback_digest(fn), value_digest(args))
                  for cost, fn, args in cpu._queue))


def _log_digest(log) -> Tuple:
    """A node's delivery history, as the EVS oracles will judge it."""
    def ring(r):
        return None if r is None else (r.seq, r.representative)
    return (
        tuple((m.sender, m.seq, m.payload, ring(m.ring_id), m.safe,
               ring(m.delivered_in)) for m in log.messages),
        tuple((ring(c.membership.ring_id), tuple(c.membership.members),
               c.transitional) for c in log.config_changes),
    )


def _lan_digest(lan, now: float) -> Tuple:
    faults = lan.faults
    state = ("lan", lan.index, faults.digest_state(),
             round(max(0.0, lan._medium_free_at - now), 9),
             tuple(sorted(lan._receivers)),
             tuple(sorted(lan._generations.items())))
    if faults.drop_serials:
        # Pending targeted drops address absolute transmit serials, so the
        # serial counters become behaviour-relevant exactly then.  They are
        # excluded otherwise: a monotone per-frame counter would make every
        # state unique and disable dedup entirely.
        state += (tuple(sorted(lan._tx_serial.items())),)
    return state


def cluster_digest_tuple(cluster) -> Tuple:
    """The full canonical state tuple of a :class:`SimCluster`."""
    now = cluster.scheduler.clock._now
    nodes = tuple(
        (node_id,
         node.srp.digest_state(),
         node.rrp.digest_state(),
         _cpu_digest(node.cpu),
         _log_digest(node.log))
        for node_id, node in sorted(cluster.nodes.items()))
    lans = tuple(_lan_digest(lan, now) for lan in cluster.lans)
    rngs = tuple((name, hashlib.sha256(
                     repr(rng.getstate()).encode()).hexdigest())
                 for name, rng in sorted(cluster.rng._streams.items()))
    return ("cluster", nodes, lans, scheduler_digest(cluster.scheduler), rngs)


def cluster_digest(cluster) -> str:
    """A stable hex digest of the cluster's canonical state tuple."""
    blob = repr(cluster_digest_tuple(cluster)).encode()
    return hashlib.sha256(blob).hexdigest()
