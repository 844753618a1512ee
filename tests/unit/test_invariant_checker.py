"""Unit tests for the invariant checker (:mod:`repro.check`)."""

from __future__ import annotations

import pytest

from conftest import make_cluster
from repro.check import (
    INVARIANTS,
    CheckMode,
    InvariantChecker,
    InvariantViolation,
)
from repro.config import ClusterConfig
from repro.errors import ConfigError, InvariantViolationError
from repro.types import ReplicationStyle, RingId, TIMEOUT_NETWORK
from repro.wire.packets import DataPacket, Token


def observed_cluster(style=ReplicationStyle.ACTIVE, **kwargs):
    cluster = make_cluster(style, invariants="observe", **kwargs)
    assert cluster.checker is not None
    return cluster


class TestWiring:
    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            ClusterConfig(invariants="paranoid")

    def test_off_means_no_checker_and_no_probes(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE, invariants="off")
        assert cluster.checker is None
        node = cluster.nodes[1]
        assert node.rrp.probe is None
        assert node.srp.probe is None
        assert node.rrp.faults.probe is None

    def test_probes_installed_on_every_node(self):
        cluster = observed_cluster()
        assert len(cluster.checker.probes) == len(cluster.nodes)
        for node in cluster.nodes.values():
            assert node.rrp.probe is node.srp.probe
            assert node.rrp.faults.probe is node.rrp.probe

    def test_restart_attaches_fresh_probe_keeps_old_one(self):
        cluster = observed_cluster()
        cluster.start()
        cluster.run_for(0.05)
        old_probe = cluster.nodes[2].rrp.probe
        cluster.crash_node(2)
        fresh = cluster.restart_node(2)
        assert fresh.rrp.probe is not old_probe
        assert old_probe in cluster.checker.probes
        assert fresh.rrp.probe in cluster.checker.probes

    def test_clean_run_records_no_violations(self):
        cluster = observed_cluster()
        cluster.start()
        for node in cluster.nodes.values():
            node.submit(b"payload")
        cluster.run_for(0.2)
        cluster.checker.check_all()
        assert cluster.checker.violations == []


class TestRules:
    def test_merge_once_detected(self):
        cluster = observed_cluster()
        probe = cluster.checker.probes[0]
        tok = Token(ring_id=RingId(4, 1), seq=5)
        probe.engine_token_up(tok, 0)
        probe.engine_token_up(tok, 1)  # same (ring, stamp) passed up twice
        assert [v.invariant for v in cluster.checker.violations] == ["merge-once"]

    def test_token_once_detected(self):
        cluster = observed_cluster()
        probe = cluster.checker.probes[0]
        tok = Token(ring_id=RingId(4, 1), seq=5)
        probe.srp_token_accepted(tok, 0)
        probe.srp_token_accepted(tok, 1)
        assert [v.invariant for v in cluster.checker.violations] == ["token-once"]

    def test_timer_after_stop_detected(self):
        cluster = observed_cluster()
        probe = cluster.checker.probes[0]
        probe.engine_timer_fired("token", stopped=False)  # fine
        assert cluster.checker.violations == []
        probe.engine_timer_fired("token", stopped=True)
        assert [v.invariant for v in cluster.checker.violations] == [
            "timer-after-stop"]

    def test_last_network_detected(self):
        cluster = observed_cluster()
        probe = cluster.checker.probes[0]
        probe.network_marked_faulty(0, operational_left=1)  # fine
        probe.network_marked_faulty(1, operational_left=0)  # the bug
        assert [v.invariant for v in cluster.checker.violations] == [
            "last-network"]

    def test_network_index_detected(self):
        cluster = observed_cluster()
        probe = cluster.checker.probes[0]
        tok = Token(ring_id=RingId(4, 1), seq=5)
        # TIMEOUT_NETWORK is fine on delivery paths...
        probe.engine_token_up(tok, TIMEOUT_NETWORK)
        assert cluster.checker.violations == []
        # ...but never on the receive path, and out-of-range is never fine.
        # (The synthetic token_up above also unbalances the token ledger,
        # which the receive hook checks — only count the index rule here.)
        probe.engine_recv_token(tok, TIMEOUT_NETWORK)
        probe.engine_recv_token(tok, 7)
        kinds = [v.invariant for v in cluster.checker.violations]
        assert kinds.count("network-index") == 2

    def test_token_ledger_detected_on_tampered_counter(self):
        cluster = observed_cluster()
        cluster.start()
        cluster.run_for(0.05)
        cluster.nodes[1].rrp.stats.tokens_delivered += 1  # break accounting
        cluster.checker.check_all()
        assert any(v.invariant == "token-ledger"
                   for v in cluster.checker.violations)

    def test_strict_mode_raises_immediately(self):
        cluster = make_cluster(ReplicationStyle.ACTIVE, invariants="strict")
        probe = cluster.checker.probes[0]
        with pytest.raises(InvariantViolationError):
            probe.engine_timer_fired("decay", stopped=True)

    def test_violations_are_traced(self):
        cluster = observed_cluster()
        probe = cluster.checker.probes[0]
        probe.engine_timer_fired("token", stopped=True)
        events = cluster.tracer.events(category="invariant")
        assert len(events) == 1
        assert events[0].event == "timer-after-stop"


class TestRtrInflight:
    def _ring(self):
        return RingId(4, 1)

    def _schedule_frame(self, cluster, dst, seq, arrival, network=0):
        packet = DataPacket(sender=2, ring_id=self._ring(), seq=seq, chunks=())
        cluster.checker._on_frame_scheduled(network, 2, dst, packet, arrival)

    def test_request_for_inflight_message_flagged(self):
        cluster = observed_cluster()
        probe = cluster.checker.probes[0]
        self._schedule_frame(cluster, dst=1, seq=9, arrival=1.0)
        probe._token_via = 0  # token arrived on a real network
        probe.retransmission_requested(self._ring(), 9)
        assert [v.invariant for v in cluster.checker.violations] == [
            "rtr-inflight"]

    def test_timeout_path_requests_are_exempt(self):
        cluster = observed_cluster()
        probe = cluster.checker.probes[0]
        self._schedule_frame(cluster, dst=1, seq=9, arrival=1.0)
        probe._token_via = TIMEOUT_NETWORK
        probe.retransmission_requested(self._ring(), 9)
        assert cluster.checker.violations == []

    def test_request_for_lost_message_is_fine(self):
        cluster = observed_cluster()
        probe = cluster.checker.probes[0]
        probe._token_via = 0
        probe.retransmission_requested(self._ring(), 9)  # nothing in flight
        assert cluster.checker.violations == []

    def test_delivered_frames_age_out(self):
        cluster = observed_cluster()
        # Frame arrives at t=1.0; at t=0 it is in flight, afterwards not.
        self._schedule_frame(cluster, dst=1, seq=9, arrival=1.0)
        assert cluster.checker.data_in_flight(1, self._ring(), 9) == 0
        cluster.run_until(2.0)
        assert cluster.checker.data_in_flight(1, self._ring(), 9) is None

    def test_frames_on_requesters_faulty_network_ignored(self):
        cluster = observed_cluster()
        probe = cluster.checker.probes[0]
        self._schedule_frame(cluster, dst=1, seq=9, arrival=1.0, network=1)
        cluster.nodes[1].rrp.faults.mark_faulty(1)
        probe._token_via = 0
        probe.retransmission_requested(self._ring(), 9)
        assert cluster.checker.violations == []


class TestEndToEnd:
    def test_checker_catches_reintroduced_timer_leak(self, monkeypatch):
        """Reverting the S3 fix (stop() cancelling timers) is flagged."""
        from repro.core.base import ReplicationEngine
        monkeypatch.setattr(
            ReplicationEngine, "stop",
            lambda self: setattr(self, "_stopped", True))
        cluster = observed_cluster()
        cluster.start()
        cluster.run_for(0.05)
        cluster.restart_node(2)  # old incarnation's timers leak past stop()
        cluster.run_for(0.5)     # decay timer interval is 0.2 s
        assert any(v.invariant == "timer-after-stop"
                   for v in cluster.checker.violations)

    def test_assert_clean_raises_in_observe_mode(self):
        cluster = observed_cluster()
        probe = cluster.checker.probes[0]
        probe.engine_timer_fired("token", stopped=True)
        with pytest.raises(InvariantViolationError):
            cluster.checker.assert_clean()

    def test_report_and_str_are_readable(self):
        checker = InvariantChecker(mode=CheckMode.OBSERVE)
        assert checker.report() == "no invariant violations"
        violation = InvariantViolation(
            time=0.5, node=3, invariant="merge-once", detail="twice")
        assert "merge-once" in str(violation)
        assert "node 3" in str(violation)

    def test_every_rule_used_is_catalogued(self):
        import inspect

        from repro.check import invariants as module
        source = inspect.getsource(module)
        for name in INVARIANTS:
            assert f'"{name}"' in source
