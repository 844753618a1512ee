"""Passive replication (paper §6, Figures 4 and 5).

Each message and each token is sent over exactly one network, assigned
round-robin (skipping networks marked faulty), so the fault-free bandwidth
is the *sum* of the networks' bandwidths at the cost of no loss masking.

Receive side (Figure 4):

* data packets pass straight up;
* a token is passed up only when no messages are missing relative to it
  (``anyMessagesMissing()``, i.e. the SRP's aru has reached the token's
  sequence number) — this is requirement P1: a message merely *delayed* on
  a slower network must never trigger a retransmission request;
* otherwise the token is buffered and a token timer started (10 ms in the
  paper); the timer is never restarted while active.  On expiry the buffered
  token is delivered anyway (requirement P3: progress under real loss);
* as a latency optimisation the paper also checks on every message arrival
  whether the arrival closed the last gap — if so the buffered token is
  released immediately instead of waiting out the timer.

Monitoring (Figure 5): M+1 receive-count modules — one per message origin
and one for the token.  A network whose count lags the best network by more
than a threshold is declared faulty (P4); lagging counters are topped up
periodically so sporadic loss is forgiven (P5).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..types import NodeId, TIMEOUT_NETWORK
from ..wire.packets import BatchPacket, DataPacket, Token
from .base import ReplicationEngine
from .monitor import RecvCountMonitor


class PassiveReplication(ReplicationEngine):
    """The Figure-4 algorithm plus the Figure-5 monitor modules."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._send_message_via = self.config.num_networks - 1
        self._send_token_via = self.config.num_networks - 1
        self._buffered_token: Optional[Token] = None
        self._token_timer = None
        self._topup_timer = None
        self.token_monitor = RecvCountMonitor(
            self.faults, self.config.recv_count_threshold, label="token")
        self.message_monitors: Dict[NodeId, RecvCountMonitor] = {}

    def start(self) -> None:
        self._schedule_topup()

    def _cancel_timers(self) -> None:
        self._stop_token_timer()
        if self._topup_timer is not None:
            self._topup_timer.cancel()
            self._topup_timer = None

    def _schedule_topup(self) -> None:
        if self._stopped:
            return
        self._topup_timer = self.runtime.set_timer(
            self.config.recv_count_topup_interval, self._on_topup)

    def _on_topup(self) -> None:
        self._note_timer_fired("topup")
        if self._stopped:
            return
        self.token_monitor.topup()
        for monitor in self.message_monitors.values():
            monitor.topup()
        self._schedule_topup()

    def _message_monitor(self, origin: NodeId) -> RecvCountMonitor:
        monitor = self.message_monitors.get(origin)
        if monitor is None:
            monitor = RecvCountMonitor(
                self.faults, self.config.recv_count_threshold,
                label=f"messages from {origin}")
            self.message_monitors[origin] = monitor
        return monitor

    def _style_digest(self) -> tuple:
        return (self._send_message_via, self._send_token_via,
                self._packet_digest(self._buffered_token),
                self._timer_digest(self._token_timer),
                self._timer_digest(self._topup_timer),
                tuple(self.token_monitor.recv_count),
                tuple((origin, tuple(monitor.recv_count))
                      for origin, monitor
                      in sorted(self.message_monitors.items())))

    # ----- sends: round-robin over non-faulty networks -----

    def _next_network(self, current: int) -> int:
        for _ in range(self.config.num_networks):
            current = (current + 1) % self.config.num_networks
            if not self.faults.is_faulty(current):
                return current
        return current  # all faulty (cannot happen: last never marked)

    def broadcast_data(self, packet: DataPacket) -> None:
        self.stats.data_sends += 1
        self._send_message_via = self._next_network(self._send_message_via)
        self.stack.broadcast(self._send_message_via, packet)

    def broadcast_batch(self, batch: BatchPacket) -> None:
        # One round-robin slot per frame train, exactly as for one frame.
        self.stats.data_sends += 1
        self._send_message_via = self._next_network(self._send_message_via)
        self.stack.broadcast(self._send_message_via, batch)

    def send_token(self, token: Token, dest: NodeId) -> int:
        self.stats.token_sends += 1
        self._send_token_via = self._next_network(self._send_token_via)
        self.stack.unicast(self._send_token_via, dest, token)
        return 1

    # ----- receives -----

    def recv_data(self, packet: DataPacket, network: int) -> None:
        srp = self._srp or self.srp  # the property raises when unbound
        if srp.on_data(packet, network):
            # Not a duplicate (on_data's verdict is the sequence filter's).
            # Retransmitted copies are rebroadcast by whichever node holds
            # them, on that node's round-robin position — counting them
            # against the *original* sender's monitor only adds noise.
            monitor = self.message_monitors.get(packet.sender)
            if monitor is None:
                monitor = self._message_monitor(packet.sender)
            monitor.record(network)
        # Latency optimisation from §6: this message may have been the last
        # gap blocking a buffered token.
        buffered = self._buffered_token
        if (buffered is not None
                and not srp.has_gaps_up_to(buffered.seq)):
            self._release_buffered(network)

    def recv_batch(self, batch: BatchPacket, network: int) -> None:
        if self.srp.on_batch(batch, network):
            # Something in the train was new (on_batch's verdict, as
            # recv_data uses on_data's).  One frame arrived on this network;
            # the monitor counts frames, not carried packets, so a batch
            # records once (all nodes batch identically, so the per-network
            # comparison stays symmetric).
            self._message_monitor(batch.sender).record(network)
        # §6 latency optimisation, as in recv_data: the train was applied
        # inline, so it may have closed the last gap blocking the token.
        buffered = self._buffered_token
        if (buffered is not None
                and not self.srp.has_gaps_up_to(buffered.seq)):
            self._release_buffered(network)

    def recv_token(self, token: Token, network: int) -> None:
        self.token_monitor.record(network)
        buffered = self._buffered_token
        if (buffered is not None and token.ring_id == buffered.ring_id
                and token.stamp <= buffered.stamp):
            # A retransmitted copy of (or a straggler older than) the token
            # already waiting in the buffer: the buffered one subsumes it.
            # Re-buffering it would double-count ``tokens_buffered`` and the
            # original code let it inherit the old token's partially elapsed
            # timer.
            self.stats.stale_tokens_dropped += 1
            return
        if (token.ring_id == self.srp.ring_id
                and self.srp.has_gaps_up_to(token.seq)):
            # Messages are missing: they may be merely delayed on another
            # network (Figure 3 scenarios).  Buffer the token (P1).
            if buffered is not None:
                # A newer token arrived while an older one was buffered.
                # The new token subsumes the old one's sequencing state (the
                # SRP would reject the old one as a duplicate stamp), so the
                # old token is dropped explicitly, counted, and the timer is
                # restarted so the new token gets its full timeout.
                self._drop_superseded()
            self._buffered_token = token
            self.stats.tokens_buffered += 1
            self._start_token_timer()
            return
        if buffered is not None and token.ring_id == self.srp.ring_id:
            # A newer current-ring token with nothing missing: deliver it
            # and retire the superseded buffered token (its timer must not
            # fire later and push a stale token into the SRP).  A foreign
            # ring's token (passed up for the SRP to discard) does not
            # supersede anything.
            self._drop_superseded()
        self.stats.tokens_delivered += 1
        self.srp.on_token(token, network)

    def _start_token_timer(self) -> None:
        self._stop_token_timer()
        self._token_timer = self.runtime.set_timer(
            self.config.passive_token_timeout, self._on_token_timeout)

    def _stop_token_timer(self) -> None:
        if self._token_timer is not None:
            self._token_timer.cancel()
            self._token_timer = None

    def _drop_superseded(self) -> None:
        self._buffered_token = None
        self._stop_token_timer()
        self.stats.tokens_superseded += 1

    def _release_buffered(self, network: int) -> None:
        token = self._buffered_token
        self._buffered_token = None
        self._stop_token_timer()
        if token is not None:
            self.stats.tokens_buffer_released += 1
            self.stats.tokens_delivered += 1
            self.srp.on_token(token, network)

    def _on_token_timeout(self) -> None:
        self._note_timer_fired("token")
        self._token_timer = None
        if self._stopped or self._buffered_token is None:
            return
        self.stats.token_timer_expiries += 1
        self._note_token_timeout("passive-gap")
        self._release_buffered(network=TIMEOUT_NETWORK)
