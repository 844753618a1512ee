"""Active replication (paper §5, Figure 2).

Every message and token is sent over all N (non-faulty) networks, in the
same network order, so per-network FIFO gives the timing inequalities (1)-(7)
of §5.  On the receive side:

* data packets pass straight up — the SRP's sequence-number filter destroys
  the duplicate copies (requirement A1);
* a token is passed up only once a copy has arrived on *every* non-faulty
  network (requirements A2: no spurious retransmission requests, and A3: a
  slower network can never fall behind, because the ring does not advance
  until the token has cleared all networks);
* a token timer started at the first copy of each new token guarantees
  progress when copies are lost or a network dies (requirement A4) — on
  expiry the token is delivered anyway and the problem counter of every
  silent network is incremented (A5), with periodic decay so sporadic loss
  is forgiven (A6).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..types import NodeId, TIMEOUT_NETWORK
from ..wire.packets import BatchPacket, DataPacket, Token
from .base import ReplicationEngine
from .monitor import ProblemCounterMonitor


class ActiveReplication(ReplicationEngine):
    """The Figure-2 algorithm."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.monitor = ProblemCounterMonitor(
            self.faults, self.config.problem_counter_threshold)
        self._last_token: Optional[Token] = None
        self._recv_flags: List[bool] = [False] * self.config.num_networks
        self._delivered_current = False
        self._token_timer = None
        self._decay_timer = None

    def start(self) -> None:
        self._schedule_decay()

    def _cancel_timers(self) -> None:
        self._stop_token_timer()
        if self._decay_timer is not None:
            self._decay_timer.cancel()
            self._decay_timer = None

    def _schedule_decay(self) -> None:
        if self._stopped:
            return
        self._decay_timer = self.runtime.set_timer(
            self.config.problem_counter_decay_interval, self._on_decay)

    def _on_decay(self) -> None:
        self._note_timer_fired("decay")
        if self._stopped:
            return
        self.monitor.decay()
        self._schedule_decay()

    def _style_digest(self) -> Tuple:
        return (self._packet_digest(self._last_token),
                tuple(self._recv_flags), self._delivered_current,
                self._timer_digest(self._token_timer),
                self._timer_digest(self._decay_timer),
                tuple(self.monitor.counters))

    # ----- sends: every packet via every non-faulty network, same order -----

    def broadcast_data(self, packet: DataPacket) -> None:
        self.stats.data_sends += 1
        for i in self.faults.operational_networks:
            self.stack.broadcast(i, packet)

    def broadcast_batch(self, batch: BatchPacket) -> None:
        # The whole frame train is replicated like any data frame; the SRP's
        # per-packet sequence filter destroys the duplicate copies (A1).
        self.stats.data_sends += 1
        for i in self.faults.operational_networks:
            self.stack.broadcast(i, batch)

    def send_token(self, token: Token, dest: NodeId) -> int:
        self.stats.token_sends += 1
        copies = 0  # counted in the loop: no len() call per token visit
        for i in self.faults.operational_networks:
            self.stack.unicast(i, dest, token)
            copies += 1
        return copies

    # ----- receives -----

    def recv_data(self, packet: DataPacket, network: int) -> None:
        # Duplicate copies are destroyed by the SRP (requirement A1); packets
        # are accepted even from networks marked faulty (paper §3).
        self.srp.on_data(packet, network)

    def recv_token(self, token: Token, network: int) -> None:
        if token.ring_id != self.srp.ring_id:
            # A token for a ring we are not on — typically a delayed copy
            # from a *previous* ring incarnation.  It must not be mistaken
            # for a new token: resetting the merge state here would clobber
            # ``_last_token``/``_recv_flags`` and let the current ring's
            # token be passed up a second time when its copies re-arrive.
            # The SRP would discard it anyway (wrong ring), so drop it.
            self.stats.foreign_ring_tokens += 1
            return
        last = self._last_token
        is_new = (last is None
                  or token.ring_id != last.ring_id
                  or token.stamp > last.stamp)
        if is_new:
            self._last_token = token
            self._recv_flags = [False] * self.config.num_networks
            self._recv_flags[network] = True
            self._delivered_current = False
            self.stats.tokens_merged += 1
            # Once running, the timer is never restarted: a new token can
            # only arrive after the current one completed another rotation.
            self._start_token_timer()
        elif token.ring_id == last.ring_id and token.stamp == last.stamp:
            self._recv_flags[network] = True
            if self._delivered_current:
                self.stats.late_token_copies += 1
        else:
            self.stats.stale_tokens_dropped += 1
            return  # older than the current token: a stale retransmission

        if self._delivered_current:
            return
        for i in range(self.config.num_networks):
            if not self._recv_flags[i] and not self.faults.is_faulty(i):
                return  # keep waiting (or let the timer expire)
        self._stop_token_timer()
        self._deliver_current(network)

    def _deliver_current(self, network: int) -> None:
        assert self._last_token is not None
        self._delivered_current = True
        self.stats.tokens_delivered += 1
        if self.probe is not None:
            self.probe.engine_token_up(self._last_token, network)
        self.srp.on_token(self._last_token, network)

    # ----- token timer (requirements A4-A6) -----

    def _start_token_timer(self) -> None:
        self._stop_token_timer()
        self._token_timer = self.runtime.set_timer(
            self.config.active_token_timeout, self._on_token_timeout)

    def _stop_token_timer(self) -> None:
        if self._token_timer is not None:
            self._token_timer.cancel()
            self._token_timer = None

    def _on_token_timeout(self) -> None:
        self._note_timer_fired("token")
        self._token_timer = None
        if self._stopped:
            return
        if self._last_token is None or self._delivered_current:
            return
        self.stats.token_timer_expiries += 1
        self._note_token_timeout("active-merge")
        for i in range(self.config.num_networks):
            if not self._recv_flags[i]:
                self.monitor.token_copy_missing(i)
        self._deliver_current(network=TIMEOUT_NETWORK)
