"""Unit tests for the node CPU model and the network stack."""

from __future__ import annotations

import random

import pytest

from repro.config import LanConfig
from repro.errors import TransportError
from repro.net.simlan import SimLan
from repro.net.stack import NetworkStack, NodeCpu
from repro.sim.scheduler import EventScheduler
from repro.types import RingId
from repro.wire.packets import Chunk, DataPacket

RING = RingId(4, 1)


def packet(seq: int = 1) -> DataPacket:
    return DataPacket(sender=1, ring_id=RING, seq=seq,
                      chunks=(Chunk.whole(1, b"x" * 64),))


class TestNodeCpu:
    def test_serialises_jobs(self):
        scheduler = EventScheduler()
        cpu = NodeCpu(scheduler)
        done = []
        cpu.submit(0.010, lambda: done.append(("a", scheduler.now())))
        cpu.submit(0.005, lambda: done.append(("b", scheduler.now())))
        scheduler.run()
        assert done[0] == ("a", pytest.approx(0.010))
        assert done[1] == ("b", pytest.approx(0.015))

    def test_fifo_even_with_zero_cost(self):
        scheduler = EventScheduler()
        cpu = NodeCpu(scheduler)
        order = []
        for label in "abc":
            cpu.submit(0.0, order.append, label)
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_callable_cost_evaluated_at_start(self):
        """The cost of a queued job may depend on the effects of earlier
        jobs (this is how duplicate receives get the cheap rate)."""
        scheduler = EventScheduler()
        cpu = NodeCpu(scheduler)
        state = {"seen": False}
        costs = []

        def first():
            state["seen"] = True

        def dynamic_cost():
            cost = 0.001 if state["seen"] else 0.100
            costs.append(cost)
            return cost
        cpu.submit(0.010, first)
        cpu.submit(dynamic_cost, lambda: None)
        scheduler.run()
        assert costs == [0.001]

    def test_negative_cost_rejected(self):
        scheduler = EventScheduler()
        cpu = NodeCpu(scheduler)
        # The queue is idle, so the job starts (and validates) synchronously.
        with pytest.raises(TransportError):
            cpu.submit(-1.0, lambda: None)

    def test_busy_time_accumulates(self):
        scheduler = EventScheduler()
        cpu = NodeCpu(scheduler)
        cpu.submit(0.010, lambda: None)
        cpu.submit(0.020, lambda: None)
        scheduler.run()
        assert cpu.stats.busy_time == pytest.approx(0.030)
        assert cpu.stats.operations == 2

    def test_jobs_submitted_from_jobs_run_after(self):
        scheduler = EventScheduler()
        cpu = NodeCpu(scheduler)
        order = []

        def outer():
            order.append("outer")
            cpu.submit(0.001, order.append, "inner")
        cpu.submit(0.001, outer)
        cpu.submit(0.001, order.append, "next")
        scheduler.run()
        assert order == ["outer", "next", "inner"]

    def test_idle_gap_then_new_work(self):
        scheduler = EventScheduler()
        cpu = NodeCpu(scheduler)
        done = []
        cpu.submit(0.001, lambda: done.append(scheduler.now()))
        scheduler.run()
        # The clock is at 0.001 after the first job; the new work arrives
        # 1.0s later and costs 0.002.
        scheduler.call_after(1.0, lambda: cpu.submit(
            0.002, lambda: done.append(scheduler.now())))
        scheduler.run()
        assert done[1] == pytest.approx(1.003)


class TestRejectedJobDoesNotWedgeTheCpu:
    """A job whose cost is rejected used to leave ``_running`` set with no
    finish event scheduled: every later frame of the node queued forever."""

    def test_rejected_submit_leaves_the_cpu_idle(self):
        scheduler = EventScheduler()
        cpu = NodeCpu(scheduler)
        ran = []
        with pytest.raises(TransportError):
            cpu.submit(-1.0, ran.append, "rejected")
        assert cpu.queue_depth == 0
        cpu.submit(0.001, ran.append, "next")
        scheduler.run_until(1.0)
        assert ran == ["next"]
        assert cpu.queue_depth == 0
        assert cpu.stats.operations == 1
        assert cpu.stats.busy_time == pytest.approx(0.001)

    def test_cost_callable_that_raises_on_an_idle_cpu(self):
        scheduler = EventScheduler()
        cpu = NodeCpu(scheduler)
        ran = []

        def broken():
            raise ZeroDivisionError("no cost")
        with pytest.raises(ZeroDivisionError):
            cpu.submit(broken, ran.append, "rejected")
        cpu.submit(0.001, ran.append, "next")
        scheduler.run_until(1.0)
        assert ran == ["next"]

    def test_rejected_queued_job_is_dropped_and_the_next_one_starts(self):
        scheduler = EventScheduler()
        cpu = NodeCpu(scheduler)
        ran = []
        cpu.submit(0.001, ran.append, "first")
        cpu.submit(lambda: -1.0, ran.append, "rejected")
        cpu.submit(0.002, ran.append, "third")
        assert cpu.queue_depth == 3
        # The rejection surfaces from the event that tried to start the job.
        with pytest.raises(TransportError):
            scheduler.run_until(1.0)
        assert ran == ["first"]
        assert cpu.queue_depth == 1  # "third" is running, nothing is stuck
        scheduler.run_until(1.0)
        assert ran == ["first", "third"]
        assert cpu.queue_depth == 0
        assert cpu.stats.operations == 2
        assert cpu.stats.busy_time == pytest.approx(0.003)
        # ... and the CPU takes new work.
        cpu.submit(0.001, ran.append, "later")
        scheduler.run_until(2.0)
        assert ran == ["first", "third", "later"]

    def test_every_queued_job_rejected_goes_idle(self):
        scheduler = EventScheduler()
        cpu = NodeCpu(scheduler)
        ran = []
        cpu.submit(0.001, ran.append, "first")
        cpu.submit(lambda: -1.0, ran.append, "rejected")
        cpu.submit(lambda: -2.0, ran.append, "rejected too")
        with pytest.raises(TransportError) as info:
            scheduler.run_until(1.0)
        # The last rejection is raised, the earlier one is its context.
        assert "-2.0" in str(info.value)
        assert "-1.0" in str(info.value.__context__)
        assert cpu.queue_depth == 0
        cpu.submit(0.001, ran.append, "next")
        scheduler.run_until(2.0)
        assert ran == ["first", "next"]


class TestNetworkStack:
    def _build(self):
        scheduler = EventScheduler()
        lan_config = LanConfig()
        lan = SimLan(scheduler, lan_config, random.Random(1))
        cpu = NodeCpu(scheduler)
        stack = NetworkStack(1, cpu, lan_config)
        stack.add_port(lan.attach(1, stack.make_deliver_fn(0)))
        return scheduler, lan, cpu, stack

    def test_broadcast_goes_through_cpu_then_wire(self):
        scheduler, lan, cpu, stack = self._build()
        got = []
        lan.attach(2, lambda src, p: got.append(p))
        stack.broadcast(0, packet())
        scheduler.run()
        assert len(got) == 1
        assert cpu.stats.operations == 1

    def test_unicast(self):
        scheduler, lan, cpu, stack = self._build()
        got2, got3 = [], []
        lan.attach(2, lambda src, p: got2.append(p))
        lan.attach(3, lambda src, p: got3.append(p))
        stack.unicast(0, 2, packet())
        scheduler.run()
        assert len(got2) == 1 and got3 == []

    def test_bad_network_index(self):
        _, _, _, stack = self._build()
        with pytest.raises(TransportError):
            stack.broadcast(5, packet())

    def test_receive_dispatches_with_network_index(self):
        scheduler, lan, cpu, stack = self._build()
        received = []
        stack.set_receive_handler(lambda p, net: received.append((p.seq, net)))
        lan.attach(2, lambda src, p: None)
        lan.transmit(2, packet(9))
        scheduler.run()
        assert received == [(9, 0)]

    def test_receive_without_handler_counts_undelivered(self):
        scheduler, lan, _, stack = self._build()
        lan.attach(2, lambda src, p: None)
        lan.transmit(2, packet())
        scheduler.run()
        assert stack.undelivered == 1

    def test_recv_cost_fn_applied(self):
        scheduler, lan, cpu, stack = self._build()
        stack.set_receive_handler(lambda p, net: None)
        stack.set_recv_cost_fn(lambda p: 0.5)
        lan.attach(2, lambda src, p: None)
        lan.transmit(2, packet())
        scheduler.run()
        assert cpu.stats.busy_time == pytest.approx(0.5)

    def test_send_cost_includes_per_byte_term(self):
        scheduler = EventScheduler()
        lan_config = LanConfig(cpu_per_send=1e-6, cpu_per_byte_send=1e-6)
        lan = SimLan(scheduler, lan_config, random.Random(1))
        cpu = NodeCpu(scheduler)
        stack = NetworkStack(1, cpu, lan_config)
        stack.add_port(lan.attach(1, stack.make_deliver_fn(0)))
        pkt = packet()
        stack.broadcast(0, pkt)
        scheduler.run()
        assert cpu.stats.busy_time == pytest.approx(
            1e-6 + 1e-6 * pkt.wire_size())

    def test_num_networks(self):
        _, _, _, stack = self._build()
        assert stack.num_networks == 1
