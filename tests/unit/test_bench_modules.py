"""Unit tests for the benchmark harness itself (workload, runner, report,
figures, latency, CLI)."""

from __future__ import annotations

import pytest

from repro.bench.figures import (
    FigurePoint,
    FigureResult,
    as_bandwidth_view,
    extension_failover_timeline,
    run_figure,
    table_claims,
    table_srp_saturation,
)
from repro.bench.latency import LatencyResult, measure_delivery_latency
from repro.bench.report import ascii_loglog_chart, format_table
from repro.bench.runner import ThroughputResult, build_config, run_throughput
from repro.bench.workload import SaturatingWorkload
from repro.api.cluster import SimCluster
from repro.types import ReplicationStyle


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
        assert "msg/s" in result.row()

    def test_build_config_defaults_per_style(self):
        assert build_config(ReplicationStyle.NONE, 4).totem.num_networks == 1
        assert build_config(ReplicationStyle.ACTIVE, 4).totem.num_networks == 2
        assert build_config(
            ReplicationStyle.ACTIVE_PASSIVE, 4).totem.num_networks == 3

    @pytest.mark.parametrize("peak,beyond", [(700, 1024), (1400, 2048)])
    def test_packing_peaks(self, peak, beyond):
        """Paper §8: KB/s peaks at 700 B (two messages per Ethernet frame)
        and at 1400 B (one full frame per message) — the shape the packer's
        whole-message drain produces.  Two of the paper's five T2 claims,
        at the window of ``tests/integration/test_paper_claims.py``, which
        asserts the other three."""
        at_peak, past_it = (
            run_throughput(ReplicationStyle.NONE, 4, size,
                           duration=0.2, warmup=0.1).kbytes_per_sec
            for size in (peak, beyond))
        assert at_peak > past_it

    def test_zero_duration_rates(self):
        result = ThroughputResult(
            style=ReplicationStyle.NONE, num_nodes=1, num_networks=1,
            message_size=1, duration=0.0, messages_delivered=0,
            payload_bytes=0, network_utilization=[0.0], cpu_utilization=0.0,
            retransmission_requests=0, token_timer_expiries=0)
        assert result.msgs_per_sec == 0.0
        assert result.kbytes_per_sec == 0.0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # aligned

    def test_chart_renders_all_series(self):
        chart = ascii_loglog_chart({
            "one": [(100, 1000), (1000, 500)],
            "two": [(100, 2000), (1000, 800)]})
        assert "o = one" in chart
        assert "x = two" in chart
        assert "log-log" in chart

    def test_chart_empty(self):
        assert ascii_loglog_chart({}) == "(no data)"

    def test_chart_single_point(self):
        chart = ascii_loglog_chart({"s": [(700, 9000)]})
        assert "o = s" in chart


class TestFigures:
    @pytest.fixture(scope="class")
    def tiny_figure(self):
        return run_figure("t", "tiny", num_nodes=2, unit="msgs/s",
                          sizes=(512,),
                          styles=(ReplicationStyle.NONE,
                                  ReplicationStyle.ACTIVE),
                          duration=0.05, warmup=0.02)

    def test_run_figure_collects_all_points(self, tiny_figure):
        assert len(tiny_figure.points) == 2
        assert tiny_figure.get(ReplicationStyle.NONE, 512) is not None
        assert tiny_figure.get(ReplicationStyle.NONE, 999) is None

    def test_series_and_table(self, tiny_figure):
        series = tiny_figure.series()
        assert set(series) == {"none", "active"}
        table = tiny_figure.to_table()
        assert "512" in table
        rendered = tiny_figure.render()
        assert "tiny" in rendered

    def test_bandwidth_view_reuses_points(self, tiny_figure):
        view = as_bandwidth_view(tiny_figure, "v", "view")
        assert view.unit == "KB/s"
        assert len(view.points) == len(tiny_figure.points)
        point = view.points[0]
        assert view.value_of(point) == point.kbytes_per_sec

    def test_srp_saturation_table(self):
        text = table_srp_saturation(duration=0.1, warmup=0.05)
        assert "msgs/s" in text

    def test_claims_table_from_prebuilt_figure(self):
        figure = run_figure("c", "claims", num_nodes=4, unit="msgs/s",
                            sizes=(700, 1024),
                            duration=0.1, warmup=0.05)
        text = table_claims(figure=figure)
        assert "packing peak" in text
        assert "active deficit" in text

    def test_failover_timeline_runs(self):
        text = extension_failover_timeline(
            style=ReplicationStyle.ACTIVE, fail_at=0.1, total=0.3,
            bin_width=0.1)
        assert "network failed" in text


class TestLatency:
    def test_latency_result_ordering(self):
        result = measure_delivery_latency(ReplicationStyle.NONE,
                                          num_nodes=2, samples=10)
        assert result.samples == 10
        assert result.p50 <= result.p99 <= result.worst
        assert result.mean > 0
        assert "ms" in result.row()


class TestCli:
    def test_cli_runs_quick_target(self, capsys):
        from repro.bench.cli import main
        assert main(["srp"]) == 0
        out = capsys.readouterr().out
        assert "saturation" in out

    def test_cli_rejects_unknown_target(self):
        from repro.bench.cli import main
        with pytest.raises(SystemExit):
            main(["nope"])


class TestGate:
    """Error paths and comparison logic of the benchmark-regression gate."""

    def _fake_result(self, events=100_000.0, ops=10_000.0,
                     p50=0.4, p99=0.5):
        from repro.bench.gate import SCHEMA_VERSION
        return {
            "schema": SCHEMA_VERSION,
            "label": "x",
            "quick": True,
            "workloads": {
                "fig6_active_4n_700B": {
                    "events_per_sec": events, "ops_per_sec": ops},
            },
            "latency": {"virtual_p50_ms": p50, "virtual_p99_ms": p99},
        }

    def test_missing_explicit_baseline_raises(self, tmp_path):
        from repro.bench.gate import run_gate
        from repro.errors import GateError
        with pytest.raises(GateError, match="cannot read baseline"):
            run_gate(output=str(tmp_path / "BENCH_out.json"),
                     baseline=str(tmp_path / "BENCH_missing.json"),
                     quick=True)

    def test_malformed_baseline_raises(self, tmp_path):
        from repro.bench.gate import load_result
        from repro.errors import GateError
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(GateError, match="malformed"):
            load_result(str(bad))

    def test_baseline_without_workloads_raises(self, tmp_path):
        import json

        from repro.bench.gate import load_result
        from repro.errors import GateError
        doc = tmp_path / "BENCH_odd.json"
        doc.write_text(json.dumps({"schema": 1}), encoding="utf-8")
        with pytest.raises(GateError, match="not a gate result"):
            load_result(str(doc))

    def test_wrong_schema_raises(self, tmp_path):
        import json

        from repro.bench.gate import load_result
        from repro.errors import GateError
        doc = tmp_path / "BENCH_old.json"
        doc.write_text(json.dumps({"schema": 999, "workloads": {}}),
                       encoding="utf-8")
        with pytest.raises(GateError, match="schema"):
            load_result(str(doc))

    def test_compare_passes_within_threshold(self):
        from repro.bench.gate import compare
        baseline = self._fake_result(ops=10_000.0)
        current = self._fake_result(ops=9_500.0)  # 5% drop: tolerated
        assert compare(current, baseline) == []

    def test_compare_flags_throughput_regression(self):
        from repro.bench.gate import compare
        baseline = self._fake_result(ops=10_000.0)
        current = self._fake_result(ops=8_000.0)  # 20% drop
        regressions = compare(current, baseline)
        assert len(regressions) == 1
        assert "ops_per_sec" in regressions[0]

    def test_compare_does_not_gate_events_per_sec(self):
        # Fewer scheduler events for the same delivered messages is the
        # point of a simplification, not a regression.
        from repro.bench.gate import compare
        baseline = self._fake_result(events=100_000.0)
        current = self._fake_result(events=15_000.0)
        assert compare(current, baseline) == []

    def test_compare_flags_latency_rise(self):
        from repro.bench.gate import compare
        baseline = self._fake_result(p99=0.4)
        current = self._fake_result(p99=0.6)
        regressions = compare(current, baseline)
        assert any("virtual_p99_ms" in line for line in regressions)

    def test_compare_ignores_unknown_workloads(self):
        from repro.bench.gate import compare
        baseline = self._fake_result()
        current = self._fake_result()
        current["workloads"]["brand_new"] = {"events_per_sec": 1.0,
                                             "ops_per_sec": 1.0}
        assert compare(current, baseline) == []

    def test_find_baseline_prefers_newest_sibling(self, tmp_path):
        import os

        from repro.bench.gate import find_baseline
        old = tmp_path / "BENCH_pr1.json"
        new = tmp_path / "BENCH_pr2.json"
        out = tmp_path / "BENCH_pr3.json"
        old.write_text("{}", encoding="utf-8")
        new.write_text("{}", encoding="utf-8")
        out.write_text("{}", encoding="utf-8")  # excluded: it is the output
        os.utime(old, (1, 1))
        os.utime(new, (2, 2))
        assert find_baseline(str(tmp_path), str(out)) == str(new)
        assert find_baseline(str(tmp_path / "empty"), str(out)) is None


@pytest.mark.perf
class TestGateSmoke:
    """Tier-1 smoke run of the full gate path: tiny workload, no baseline,
    no threshold enforcement — proves the harness end to end."""

    def test_gate_quick_run_writes_expected_fields(self, tmp_path):
        import json

        from repro.bench.gate import run_gate
        output = tmp_path / "BENCH_smoke.json"
        result = run_gate(output=str(output), quick=True, enforce=False)
        assert result["regressions"] == []
        document = json.loads(output.read_text(encoding="utf-8"))
        assert document["schema"] == 1
        for metrics in document["workloads"].values():
            assert metrics["events_per_sec"] > 0
            assert metrics["ops_per_sec"] > 0
            assert metrics["events"] > 0
        assert document["latency"]["virtual_p99_ms"] > 0

    def test_fig6_microworkload_runs_with_batching_disabled(self):
        """The unbatched fallback path must stay live: every fig6 gate
        workload still saturates and delivers with batching off."""
        from repro.bench.gate import GATE_WORKLOADS, _measure_workload

        for _name, style, nodes, size in GATE_WORKLOADS:
            metrics = _measure_workload(style, nodes, size, duration=0.05,
                                        warmup=0.02, enable_batching=False)
            assert metrics["batching"] is False
            assert metrics["messages"] > 0
            assert metrics["events_per_sec"] > 0
            assert metrics["virtual_mbps"] > 0

    def test_one_frame_train_is_one_receiver_event(self):
        """Saturated 4-node active batched ring: a received frame train
        is one scheduler event, not one per carried packet, so the whole
        simulation runs under one event per delivered message (0.46; it
        was 3.61 while ``on_batch`` posted per-packet micro-events)."""
        from repro.bench.gate import _measure_workload
        from repro.types import ReplicationStyle

        metrics = _measure_workload(ReplicationStyle.ACTIVE, 4, 700,
                                    duration=0.05, warmup=0.02)
        assert metrics["batching"] is True
        assert metrics["messages"] > 0
        assert metrics["events"] / metrics["messages"] < 1.0

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
            if event == "call":
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
            if event == "call":
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
            if event == "call":
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
            if event == "call":
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

        from repro.bench.multiring import MULTIRING_LAN
        from repro.bench.workload import (
            ClosedLoopWorkload,
            MultiRingSaturatingWorkload,
        )
        from repro.config import TotemConfig
        from repro.multiring import MultiRingCluster, MultiRingConfig
        from repro.obs.metrics import MetricRegistry
        from repro.service import ServiceConfig, ServiceFacade
        from repro.types import ReplicationStyle

        def started_cluster():
            cluster = MultiRingCluster(MultiRingConfig(
                num_rings=2, num_nodes=3, seed=42, lan=MULTIRING_LAN,
                totem=TotemConfig(replication=ReplicationStyle.ACTIVE,
                                  num_networks=2, enable_batching=True)))
            cluster.start()
            return cluster

        probe = started_cluster()
        MultiRingSaturatingWorkload(probe, 64).start()
        probe.run_for(0.03)
        references = [view.representative.srp.stats
                      for view in probe.groups.values()]
        before = sum(stats.msgs_delivered for stats in references)
        probe.run_for(0.03)
        capacity = (sum(stats.msgs_delivered for stats in references)
                    - before) / 0.03

        cluster = started_cluster()
        facade = ServiceFacade(cluster, ServiceConfig(
            name="calls", rate=capacity, burst=256, queue_capacity=512,
            per_client_limit=64, inflight_windows=4.0),
            registry=MetricRegistry())
        think_mean = 4000 / (2.0 * capacity)
        workload = ClosedLoopWorkload(facade, num_clients=4000,
                                      think_mean=think_mean, seed=1,
                                      ramp=think_mean / 2)
        workload.start()
        cluster.run_for(0.06)
        mark = workload.checkpoint()
        calls = 0

        def count_calls(frame, event, arg):
            nonlocal calls
            if event == "call":
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

    def test_no_gate_escape_hatch_reports_but_passes(self, tmp_path, capsys):
        import json

        from repro.bench.cli import main
        from repro.bench.gate import SCHEMA_VERSION
        # An impossible baseline: any real machine regresses against it.
        baseline = tmp_path / "BENCH_prev.json"
        baseline.write_text(json.dumps({
            "schema": SCHEMA_VERSION,
            "workloads": {
                "fig6_active_4n_700B": {"events_per_sec": 1e15,
                                        "ops_per_sec": 1e15},
                "fig6_none_4n_1024B": {"events_per_sec": 1e15,
                                       "ops_per_sec": 1e15},
            },
            "latency": {"virtual_p50_ms": 1e-9, "virtual_p99_ms": 1e-9},
        }), encoding="utf-8")
        output = tmp_path / "BENCH_now.json"
        # Enforced: the gate must fail (exit 1)...
        assert main(["gate", "--quick", "--output", str(output),
                     "--baseline", str(baseline)]) == 1
        assert "GATE FAILED" in capsys.readouterr().err
        # ...with --no-gate it reports the regression but exits 0.
        assert main(["gate", "--quick", "--output", str(output),
                     "--baseline", str(baseline), "--no-gate"]) == 0
        err = capsys.readouterr().err
        assert "not enforced" in err
        document = json.loads(output.read_text(encoding="utf-8"))
        assert document["regressions"]
