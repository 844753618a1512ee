"""Active-passive replication (paper §7).

A hybrid usable with at least three networks: every message and token is
sent over K of the N networks (1 < K < N), the window of K advancing
round-robin (if the last copy went via network m, the next packet uses
networks m+1 … m+K mod N).  Up to K-1 lossy networks are masked without any
retransmission delay, at K× (not N×) bandwidth cost.

The receive side is the two-stage pipeline §7 describes:

* **stage 1 (passive-style)**: receive-count monitor modules observe every
  message and token per network;
* **stage 2 (active-style)**: a token is passed up once copies have arrived
  on K distinct networks, or when the token timer expires.

One addition on top of the paper's sketch: because a message's K-network
window and the token's K-network window need not intersect for K ≤ N/2, K
token copies do not by themselves prove that earlier messages have arrived
(the FIFO argument of §5 holds per shared network only).  We therefore run
the assembled token through the passive gap check as well — if messages are
still missing the token is briefly buffered exactly as in Figure 4.  This
composes the protections of both parents and is noted in DESIGN.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..types import NodeId, TIMEOUT_NETWORK
from ..wire.packets import BatchPacket, DataPacket, Token
from .base import ReplicationEngine
from .monitor import RecvCountMonitor


class ActivePassiveReplication(ReplicationEngine):
    """The §7 two-stage pipeline."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._send_message_via = self.config.num_networks - 1
        self._send_token_via = self.config.num_networks - 1
        #: Per-start send windows and effective K (:meth:`_build_windows`).
        self._windows: List[List[int]] = []
        self._effective_k = 0
        self._windows_version = -1
        # Stage 2 (active-style) token assembly state.
        self._last_token: Optional[Token] = None
        self._recv_flags: List[bool] = [False] * self.config.num_networks
        self._delivered_current = False
        self._assemble_timer = None
        # Passive-style gap buffering after assembly.
        self._buffered_token: Optional[Token] = None
        self._gap_timer = None
        # Stage 1 (passive-style) monitors.
        self.token_monitor = RecvCountMonitor(
            self.faults, self.config.recv_count_threshold, label="token")
        self.message_monitors: Dict[NodeId, RecvCountMonitor] = {}
        self._topup_timer = None

    def start(self) -> None:
        self._schedule_topup()

    def _cancel_timers(self) -> None:
        self._stop_assemble_timer()
        self._stop_gap_timer()
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
                self._packet_digest(self._last_token),
                tuple(self._recv_flags), self._delivered_current,
                self._packet_digest(self._buffered_token),
                self._timer_digest(self._assemble_timer),
                self._timer_digest(self._gap_timer),
                self._timer_digest(self._topup_timer),
                tuple(self.token_monitor.recv_count),
                tuple((origin, tuple(monitor.recv_count))
                      for origin, monitor
                      in sorted(self.message_monitors.items())))

    # ----- sends: K copies, round-robin window -----

    def _build_windows(self) -> None:
        """Tabulate, per start index, the next K non-faulty networks after
        it, cyclically — K capped by how many networks are operational.

        Windows depend only on the fault marks: rebuilt when
        ``faults.version`` moved, read per packet in between.
        """
        faults = self.faults
        networks = self.config.num_networks
        k = min(self.config.active_passive_k, faults.operational_count())
        windows: List[List[int]] = []
        for start in range(networks):
            chosen: List[int] = []
            current = start
            for _ in range(2 * networks):
                current = (current + 1) % networks
                if not faults.is_faulty(current) and current not in chosen:
                    chosen.append(current)
                    if len(chosen) == k:
                        break
            windows.append(chosen)
        self._windows = windows
        self._effective_k = k
        self._windows_version = faults.version

    def broadcast_data(self, packet: DataPacket) -> None:
        self.stats.data_sends += 1
        if self._windows_version != self.faults.version:
            self._build_windows()
        window = self._windows[self._send_message_via]
        broadcast = self.stack.broadcast
        for i in window:
            broadcast(i, packet)
        if window:
            self._send_message_via = window[-1]

    # K copies of the whole frame train, advancing the same window as a
    # single data frame would.
    broadcast_batch = broadcast_data

    def send_token(self, token: Token, dest: NodeId) -> int:
        self.stats.token_sends += 1
        if self._windows_version != self.faults.version:
            self._build_windows()
        window = self._windows[self._send_token_via]
        unicast = self.stack.unicast
        for i in window:
            unicast(i, dest, token)
        if window:
            self._send_token_via = window[-1]
        return len(window)

    # ----- receives -----

    def recv_data(self, packet: DataPacket, network: int) -> None:
        # Same shape as passive replication's data receive.
        srp = self._srp or self.srp  # the property raises when unbound
        if srp.on_data(packet, network):
            monitor = self.message_monitors.get(packet.sender)
            if monitor is None:
                monitor = self._message_monitor(packet.sender)
            monitor.record(network)
        buffered = self._buffered_token
        if (buffered is not None
                and not srp.has_gaps_up_to(buffered.seq)):
            self._release_buffered(network)

    def recv_batch(self, batch: BatchPacket, network: int) -> None:
        # Same shape as passive replication's batch receive: the monitor
        # records once per frame, then the §6 gap-closure check.
        if self.srp.on_batch(batch, network):
            self._message_monitor(batch.sender).record(network)
        buffered = self._buffered_token
        if (buffered is not None
                and not self.srp.has_gaps_up_to(buffered.seq)):
            self._release_buffered(network)

    def recv_token(self, token: Token, network: int) -> None:
        self.token_monitor.record(network)
        if token.ring_id != self.srp.ring_id:
            # Same guard as active replication: a delayed token from a
            # previous ring must not reset the stage-2 assembly state of the
            # current ring's token.
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
            self._start_assemble_timer()
        elif token.ring_id == last.ring_id and token.stamp == last.stamp:
            self._recv_flags[network] = True
            if self._delivered_current:
                self.stats.late_token_copies += 1
        else:
            self.stats.stale_tokens_dropped += 1
            return

        if self._delivered_current:
            return
        if self._windows_version != self.faults.version:
            self._build_windows()
        if sum(self._recv_flags) >= self._effective_k:
            self._stop_assemble_timer()
            self._deliver_assembled(network)

    def _deliver_assembled(self, network: int) -> None:
        """Stage 2 complete: run the token through the passive gap check."""
        assert self._last_token is not None
        self._delivered_current = True
        token = self._last_token
        if self.probe is not None:
            self.probe.engine_token_up(token, network)
        if self._buffered_token is not None:
            # A newer token finished assembly while an older one was still
            # gap-buffered: the new token supersedes it (same reasoning as
            # passive replication's supersession handling).
            self._drop_superseded()
        if (token.ring_id == self.srp.ring_id
                and self.srp.has_gaps_up_to(token.seq)):
            self._buffered_token = token
            self.stats.tokens_buffered += 1
            self._start_gap_timer()
            return
        self.stats.tokens_delivered += 1
        self.srp.on_token(token, network)

    def _start_gap_timer(self) -> None:
        self._stop_gap_timer()
        self._gap_timer = self.runtime.set_timer(
            self.config.passive_token_timeout, self._on_gap_timeout)

    def _stop_gap_timer(self) -> None:
        if self._gap_timer is not None:
            self._gap_timer.cancel()
            self._gap_timer = None

    def _drop_superseded(self) -> None:
        self._buffered_token = None
        self._stop_gap_timer()
        self.stats.tokens_superseded += 1

    def _release_buffered(self, network: int) -> None:
        token = self._buffered_token
        self._buffered_token = None
        self._stop_gap_timer()
        if token is not None:
            self.stats.tokens_buffer_released += 1
            self.stats.tokens_delivered += 1
            self.srp.on_token(token, network)

    def _on_gap_timeout(self) -> None:
        self._note_timer_fired("gap")
        self._gap_timer = None
        if self._stopped:
            return
        if self._buffered_token is not None:
            self.stats.token_timer_expiries += 1
            self._note_token_timeout("ap-gap")
            self._release_buffered(network=TIMEOUT_NETWORK)

    # ----- stage-2 token timer -----

    def _start_assemble_timer(self) -> None:
        self._stop_assemble_timer()
        self._assemble_timer = self.runtime.set_timer(
            self.config.active_token_timeout, self._on_assemble_timeout)

    def _stop_assemble_timer(self) -> None:
        if self._assemble_timer is not None:
            self._assemble_timer.cancel()
            self._assemble_timer = None

    def _on_assemble_timeout(self) -> None:
        self._note_timer_fired("assemble")
        self._assemble_timer = None
        if self._stopped:
            return
        if self._last_token is None or self._delivered_current:
            return
        self.stats.token_timer_expiries += 1
        self._note_token_timeout("ap-assemble")
        self._deliver_assembled(network=TIMEOUT_NETWORK)
