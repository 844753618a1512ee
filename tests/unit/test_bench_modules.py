"""Unit tests for the benchmark harness itself (workload, runner) and the
hot paths' cost regressions.  The §8 experiments built on them are asserted
in ``tests/integration/test_paper_claims.py``."""

from __future__ import annotations

import pytest

# The suite's write guard on the wire records (conftest) is a Python
# ``__setattr__``; the call-counting tests leave its frames out.
from conftest import WRITE_GUARD_CODE
from repro.bench.runner import ThroughputResult, build_config, run_throughput
from repro.bench.workload import SaturatingWorkload
from repro.api.cluster import SimCluster
from repro.types import ReplicationStyle


def saturated_run(style, message_size, num_nodes=4, duration=0.05,
                  warmup=0.02, enable_batching=True):
    """Saturate a ring, then count ``(events, messages, payload bytes)``
    over ``duration`` virtual seconds at the lowest-numbered node."""
    config = build_config(style, num_nodes, seed=42,
                          enable_batching=enable_batching)
    assert config.totem.enable_batching is enable_batching
    cluster = SimCluster(config)
    cluster.start()
    SaturatingWorkload(cluster, message_size).start()
    cluster.run_for(warmup)
    stats = cluster.nodes[min(cluster.nodes)].srp.stats
    events0 = cluster.scheduler.events_processed
    msgs0, bytes0 = stats.msgs_delivered, stats.bytes_delivered
    cluster.run_for(duration)
    return (cluster.scheduler.events_processed - events0,
            stats.msgs_delivered - msgs0,
            stats.bytes_delivered - bytes0)


class TestWorkload:
    def test_keeps_ring_saturated(self):
        cluster = SimCluster(build_config(ReplicationStyle.NONE, 3))
        cluster.start()
        workload = SaturatingWorkload(cluster, 256)
        workload.start()
        cluster.run_for(0.05)
        # Far more traffic than a non-saturating workload would produce,
        # and the queues are continuously refilled.
        assert workload.total_sent > 500
        for node in cluster.nodes.values():
            assert (len(node.srp.send_queue) > 0
                    or node.srp._packer.has_pending())

    def test_stop_halts_refills(self):
        cluster = SimCluster(build_config(ReplicationStyle.NONE, 3))
        cluster.start()
        workload = SaturatingWorkload(cluster, 256)
        workload.start()
        cluster.run_for(0.02)
        workload.stop()
        sent = workload.total_sent
        cluster.run_for(0.05)
        assert workload.total_sent == sent

    def test_payload_carries_index(self):
        cluster = SimCluster(build_config(ReplicationStyle.NONE, 2))
        cluster.start()
        workload = SaturatingWorkload(cluster, 64, senders=[1])
        workload.start()
        cluster.run_for(0.05)
        first = cluster.nodes[2].delivered[0]
        assert int.from_bytes(first.payload[:8], "big") == 0

    def test_rejects_tiny_messages(self):
        cluster = SimCluster(build_config(ReplicationStyle.NONE, 2))
        with pytest.raises(ValueError):
            SaturatingWorkload(cluster, 4)

    def test_start_idempotent(self):
        cluster = SimCluster(build_config(ReplicationStyle.NONE, 2))
        cluster.start()
        workload = SaturatingWorkload(cluster, 64)
        workload.start()
        workload.start()
        cluster.run_for(0.01)
        assert workload.total_sent > 0


class TestRunner:
    def test_throughput_result_fields(self):
        result = run_throughput(ReplicationStyle.NONE, 2, 512,
                                duration=0.05, warmup=0.02)
        assert result.msgs_per_sec > 0
        assert result.kbytes_per_sec > 0
        assert len(result.network_utilization) == 1
        assert 0.0 <= result.cpu_utilization <= 1.0

    def test_build_config_defaults_per_style(self):
        assert build_config(ReplicationStyle.NONE, 4).totem.num_networks == 1
        assert build_config(ReplicationStyle.ACTIVE, 4).totem.num_networks == 2
        assert build_config(
            ReplicationStyle.ACTIVE_PASSIVE, 4).totem.num_networks == 3

    def test_zero_duration_rates(self):
        result = ThroughputResult(
            style=ReplicationStyle.NONE, num_nodes=1, num_networks=1,
            message_size=1, duration=0.0, messages_delivered=0,
            payload_bytes=0, network_utilization=[0.0], cpu_utilization=0.0,
            retransmission_requests=0, token_timer_expiries=0)
        assert result.msgs_per_sec == 0.0
        assert result.kbytes_per_sec == 0.0


@pytest.mark.perf
class TestGateSmoke:
    """Cost regressions on tiny saturated workloads: scheduler events and
    Python frames per delivered message, counted in virtual time."""

    def test_fig6_microworkload_runs_with_batching_disabled(self):
        """The unbatched fallback path must stay live: the fig6 active
        700 B and unreplicated 1024 B points still saturate and deliver
        with batching off."""
        for style, size in ((ReplicationStyle.ACTIVE, 700),
                            (ReplicationStyle.NONE, 1024)):
            events, messages, payload_bytes = saturated_run(
                style, size, enable_batching=False)
            assert messages > 0
            assert events > 0
            assert payload_bytes > 0

    def test_one_frame_train_is_one_receiver_event(self):
        """Saturated 4-node active batched ring: a received frame train
        is one scheduler event, not one per carried packet, so the whole
        simulation runs under one event per delivered message (0.46; it
        was 3.61 while ``on_batch`` posted per-packet micro-events)."""
        events, messages, _ = saturated_run(ReplicationStyle.ACTIVE, 700)
        assert messages > 0
        assert events / messages < 1.0

    def test_per_frame_chain_python_calls_per_message(self):
        """Saturated 4-node passive ring, 2 networks, unbatched, 4096 B
        (three frames per message): the send -> receive -> deliver chain
        runs one body per layer per frame.  Python-level function calls per
        message delivered at the reference node, counted with
        ``sys.setprofile`` ('call' events only, so C builtins do not enter;
        3.12's inlined comprehensions only lower the count): 269 here, 428
        while every frame was classified three times and each CPU job was
        four calls."""
        import sys

        from repro.api.cluster import SimCluster
        from repro.bench.runner import build_config
        from repro.bench.workload import SaturatingWorkload
        from repro.types import ReplicationStyle

        calls = 0

        def count_calls(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is not WRITE_GUARD_CODE:
                calls += 1
        config = build_config(ReplicationStyle.PASSIVE, 4, seed=42,
                              enable_batching=False)
        assert config.totem.num_networks == 2
        cluster = SimCluster(config)
        cluster.start()
        SaturatingWorkload(cluster, 4096).start()
        cluster.run_for(0.02)
        reference = cluster.nodes[min(cluster.nodes)]
        delivered = reference.srp.stats.msgs_delivered
        sys.setprofile(count_calls)
        try:
            cluster.run_for(0.05)
        finally:
            sys.setprofile(None)
        messages = reference.srp.stats.msgs_delivered - delivered
        assert messages > 200
        assert calls / messages <= 300

    def test_batched_path_python_calls_per_message(self):
        """Saturated 4-node active ring, 2 networks, batched, 700 B (two
        messages per packet, twenty packets per train): a frame train costs
        one pass per layer — one ``insert_run`` and one delivery sweep per
        received train, the second network's copy refused by its last
        sequence number, one queue drain per packed packet.  Python-level
        function calls per message delivered at the reference node, counted
        with ``sys.setprofile`` ('call' events only): 15.2 here, 32.0 while
        every carried packet went through ``on_data`` and ``insert`` and
        every packed message through ``peek`` / ``dequeue``."""
        import sys

        from repro.api.cluster import SimCluster
        from repro.bench.runner import build_config
        from repro.bench.workload import SaturatingWorkload
        from repro.types import ReplicationStyle

        calls = 0

        def count_calls(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is not WRITE_GUARD_CODE:
                calls += 1
        config = build_config(ReplicationStyle.ACTIVE, 4, seed=42,
                              enable_batching=True)
        assert config.totem.num_networks == 2
        cluster = SimCluster(config)
        cluster.start()
        SaturatingWorkload(cluster, 700).start()
        cluster.run_for(0.02)
        reference = cluster.nodes[min(cluster.nodes)]
        delivered = reference.srp.stats.msgs_delivered
        sys.setprofile(count_calls)
        try:
            cluster.run_for(0.05)
        finally:
            sys.setprofile(None)
        messages = reference.srp.stats.msgs_delivered - delivered
        assert messages > 500
        assert calls / messages <= 18

    def test_received_train_is_refused_in_constant_python_frames(self):
        """The redundant network's copy of a 20-packet train: ``on_batch``
        learns from the last sequence number that nothing is new — four
        Python frames (``on_batch``, the ring lookup, ``insert_run``, the
        delivery sweep) and twenty counted duplicates, where the per-packet
        loop entered ``on_data`` and ``insert`` twenty times each."""
        import sys

        from repro.config import TotemConfig
        from repro.sim.runtime import SimRuntime
        from repro.sim.scheduler import EventScheduler
        from repro.srp.engine import TotemSrp
        from repro.types import RingId
        from repro.wire.packets import BatchPacket, Chunk, DataPacket

        class NullTransport:
            def broadcast_join(self, join):
                pass

        delivered = []
        srp = TotemSrp(2, TotemConfig(), SimRuntime(EventScheduler()),
                       NullTransport(), on_deliver=delivered.append)
        srp.start([1, 2])
        train = BatchPacket(packets=tuple(
            DataPacket(sender=1, ring_id=RingId(4, 1), seq=seq,
                       chunks=(Chunk.whole(seq, b"x" * 700),))
            for seq in range(1, 21)))
        srp.on_batch(train, 0)
        assert len(delivered) == 20
        frames = 0

        def count_calls(frame, event, arg):
            nonlocal frames
            if event == "call" and frame.f_code is not WRITE_GUARD_CODE:
                frames += 1
        sys.setprofile(count_calls)
        try:
            verdict = srp.on_batch(train, 1)
        finally:
            sys.setprofile(None)
        assert frames <= 5
        assert verdict is False
        assert srp.stats.duplicate_packets == 20
        assert srp.stats.packets_received == 40
        assert len(delivered) == 20

    def test_lossy_k_of_n_path_python_calls_per_message(self):
        """Saturated 4-node active-passive ring, N = 3, K = 2, unbatched,
        700 B (two messages per packet), 0.3 % loss on every network — the
        path no fault-free shortcut serves: the send window is read from a
        table, a lossy broadcast is thinned from the cached receiver list,
        a queued copy defers its cost without a Python object, the job is
        the engine's handler itself and every packet of the boot ring
        passes the ring-identity test.  Python-level function calls per
        message delivered at the reference node, counted with
        ``sys.setprofile`` ('call' events only): 64.9 here, 79.7 while each
        of those was recomputed per frame."""
        import sys

        from repro.api.cluster import SimCluster
        from repro.bench.runner import build_config
        from repro.bench.workload import SaturatingWorkload
        from repro.types import ReplicationStyle

        calls = 0

        def count_calls(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is not WRITE_GUARD_CODE:
                calls += 1
        config = build_config(ReplicationStyle.ACTIVE_PASSIVE, 4, seed=42,
                              enable_batching=False)
        assert config.totem.num_networks == 3
        assert config.totem.active_passive_k == 2
        cluster = SimCluster(config)
        for lan in cluster.lans:
            lan.faults.extra_loss_rate = 0.003
        cluster.start()
        SaturatingWorkload(cluster, 700).start()
        cluster.run_for(0.02)
        reference = cluster.nodes[min(cluster.nodes)]
        delivered = reference.srp.stats.msgs_delivered
        sys.setprofile(count_calls)
        try:
            cluster.run_for(0.05)
        finally:
            sys.setprofile(None)
        messages = reference.srp.stats.msgs_delivered - delivered
        assert messages > 500
        assert sum(lan.stats.frames_lost for lan in cluster.lans) > 0
        assert calls / messages <= 72

    def test_k_copies_cost_constant_python_frames_in_the_send_window(self):
        """``broadcast_data`` on an active-passive engine whose fault marks
        did not move: one frame for the send and one per copy handed to the
        stack — the window is a table read, where the per-packet loop made
        17 Python and builtin calls (``is_faulty``, ``effective_k``,
        ``operational_count``, ``sum``, ``len``, ``min``, ``append``)."""
        import sys

        from repro.config import TotemConfig
        from repro.core.active_passive import ActivePassiveReplication
        from repro.sim.runtime import SimRuntime
        from repro.sim.scheduler import EventScheduler
        from repro.types import ReplicationStyle, RingId
        from repro.wire.packets import Chunk, DataPacket

        class Stack:
            def set_receive_handler(self, handler):
                pass

            def broadcast(self, network, packet):
                pass

        engine = ActivePassiveReplication(
            1, TotemConfig(replication=ReplicationStyle.ACTIVE_PASSIVE,
                           num_networks=5, active_passive_k=3),
            SimRuntime(EventScheduler()), Stack())
        packet = DataPacket(sender=1, ring_id=RingId(4, 1), seq=1,
                            chunks=(Chunk.whole(1, b"x"),))
        engine.faults.mark_faulty(2)
        engine.broadcast_data(packet)       # sees the mark, builds the table
        events = 0

        def count_calls(frame, event, arg):
            nonlocal events
            if event in ("call", "c_call"):
                events += 1
        sys.setprofile(count_calls)
        try:
            engine.broadcast_data(packet)
        finally:
            sys.setprofile(None)
        # One more c_call is sys.setprofile(None) itself.
        assert events <= 1 + 3 + 1
        assert engine.stats.data_sends == 2

    def test_service_path_python_calls_per_completed_request(self):
        """A facade over 2 rings x 3 nodes with closed-loop clients offering
        twice the probed capacity (2.3 requests offered per completion, the
        excess shed queue-full): each request reads the clock, its key's ring
        and the ring pressure once, queued requests leave the pressure gauges
        alone, and each applied op is dispatched without a lookup and parsed
        once.  Python-level function calls per completed request, counted
        with ``sys.setprofile`` ('call' events only): 141 here, 193 while
        every layer fetched those facts again."""
        import sys

        from conftest import overloaded_service

        cluster, facade, workload, _ = overloaded_service()
        mark = workload.checkpoint()
        calls = 0

        def count_calls(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code is not WRITE_GUARD_CODE:
                calls += 1
        sys.setprofile(count_calls)
        try:
            cluster.run_for(0.05)
        finally:
            sys.setprofile(None)
        window = {key: value - mark[key]
                  for key, value in workload.checkpoint().items()}
        assert window["completed"] > 1000
        assert window["shed"] > window["completed"]
        assert facade.slo_snapshot()["ring_stalls"] == 0
        assert calls / window["completed"] <= 160
