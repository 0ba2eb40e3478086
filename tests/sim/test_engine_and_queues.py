"""Tests for the discrete-event engine and queueing disciplines."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, EcnQueue, PfabricQueue, StfqQueue


def make_packet(flow_id=0, size=1500, **kwargs):
    return Packet(flow_id=flow_id, source="a", destination="b", size_bytes=size, **kwargs)


class TestSimulator:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(3e-6, order.append, "c")
        simulator.schedule(1e-6, order.append, "a")
        simulator.schedule(2e-6, order.append, "b")
        simulator.run()
        assert order == ["a", "b", "c"]
        assert simulator.now == pytest.approx(3e-6)

    def test_ties_break_by_insertion_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(1e-6, order.append, 1)
        simulator.schedule(1e-6, order.append, 2)
        simulator.run()
        assert order == [1, 2]

    def test_run_until(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1e-6, fired.append, 1)
        simulator.schedule(5e-6, fired.append, 2)
        simulator.run(until=2e-6)
        assert fired == [1]
        assert simulator.now == pytest.approx(2e-6)
        simulator.run()
        assert fired == [1, 2]

    def test_cancelled_event_does_not_fire(self):
        simulator = Simulator()
        fired = []
        handle = simulator.schedule(1e-6, fired.append, 1)
        handle.cancel()
        simulator.run()
        assert fired == []

    def test_cannot_schedule_in_the_past(self):
        simulator = Simulator()
        with pytest.raises(ValueError):
            simulator.schedule(-1.0, lambda: None)

    def test_periodic_timer_fires_until_stopped(self):
        simulator = Simulator()
        ticks = []
        timer = simulator.every(1e-6, lambda: ticks.append(simulator.now))
        simulator.run(until=5.5e-6)
        timer.stop()
        simulator.run(until=10e-6)
        assert len(ticks) == 5


class TestPeriodicTimerParking:
    """``park`` / ``unpark``: a parked timer holds no heap entry, and the
    ticks after any parked stretch fall where an unparked twin's do."""

    INTERVAL = 6e-5  # not a dyadic fraction: the accumulated grid is not k * interval

    def _twin_fire_times(self, ticks):
        simulator = Simulator()
        times = []
        simulator.every(self.INTERVAL, lambda: times.append(simulator.now))
        simulator.run(max_events=ticks)
        return times

    def test_fire_times_match_unparked_twin_bit_for_bit(self):
        reference = self._twin_fire_times(10_000)
        assert reference[-1] != 10_000 * self.INTERVAL  # the grid really is accumulated

        simulator = Simulator()
        fired = []

        def tick():
            fired.append(simulator.now)
            if len(fired) % 3 == 0:  # park from inside the callback
                timer.park()

        timer = simulator.every(self.INTERVAL, tick)
        # Wake-ups at irregular offsets: some land inside the interval the
        # timer parked in (nothing skipped), some skip dozens of ticks.
        skipped = 0
        wake, index = 0.0, 0
        while wake < reference[-1]:
            simulator.run(until=wake)
            skipped += timer.unpark()
            index += 1
            wake += self.INTERVAL * (0.37 + (index % 11) * 0.61)
        simulator.run(until=reference[-1])
        skipped += timer.unpark()
        # Every tick it fired is a tick of the twin, bit for bit, and fired
        # plus skipped ticks account for the whole grid: none lost, none added.
        assert set(fired) <= set(reference)
        assert fired == sorted(set(fired))
        assert len(fired) + skipped == len(reference)
        assert skipped > 1000 and len(fired) > 1000

    def test_unpark_resumes_on_the_same_grid_after_a_long_park(self):
        reference = self._twin_fire_times(10_000)
        simulator = Simulator()
        fired = []
        timer = simulator.every(self.INTERVAL, lambda: fired.append(simulator.now))
        simulator.run(max_events=5)
        timer.park()
        simulator.run(until=0.5 * (reference[8999] + reference[9000]))
        assert timer.unpark() == 9000 - 5
        simulator.run(until=reference[-1])
        assert fired == reference[:5] + reference[9000:]

    def test_unpark_exactly_at_a_tick_time_counts_that_tick_as_skipped(self):
        reference = self._twin_fire_times(8)
        simulator = Simulator()
        fired = []
        timer = simulator.every(self.INTERVAL, lambda: fired.append(simulator.now))
        simulator.run(max_events=2)
        timer.park()
        simulator.schedule_at(reference[4], lambda: None)
        simulator.run()
        assert simulator.now == reference[4]
        assert timer.unpark() == 3  # ticks 3, 4 and the one due now
        simulator.run(until=reference[-1])
        assert fired == reference[:2] + reference[5:]

    def test_park_and_unpark_are_idempotent_and_stop_is_safe(self):
        simulator = Simulator()
        fired = []
        timer = simulator.every(self.INTERVAL, lambda: fired.append(simulator.now))
        assert timer.unpark() == 0  # armed: nothing skipped, nothing re-armed
        assert simulator.pending_events == 1
        timer.park()
        timer.park()
        assert timer.parked and simulator.pending_events == 0
        timer.stop()
        assert not timer.parked
        assert timer.unpark() == 0
        timer.park()
        simulator.run(until=1e-3)
        assert fired == [] and simulator.pending_events == 0

    def test_unpark_inside_the_callback_arms_exactly_once(self):
        simulator = Simulator()
        fired = []

        def tick():
            fired.append(simulator.now)
            timer.park()
            assert timer.unpark() == 0

        timer = simulator.every(self.INTERVAL, tick)
        simulator.run(max_events=4)
        assert fired == self._twin_fire_times(4)
        assert simulator.pending_events == 1

    def test_run_until_returns_at_until_while_every_timer_is_parked(self):
        simulator = Simulator()
        timers = [simulator.every(self.INTERVAL * (k + 1), lambda: None) for k in range(14)]
        for timer in timers:
            timer.park()
        assert simulator.pending_events == 0
        simulator.run(until=0.5)
        assert simulator.now == 0.5
        assert simulator.events_processed == 0


class TestDropTailQueue:
    def test_fifo_order(self):
        queue = DropTailQueue(capacity_bytes=10_000)
        first, second = make_packet(sequence=1), make_packet(sequence=2)
        queue.enqueue(first, 0.0)
        queue.enqueue(second, 0.0)
        assert queue.dequeue(0.0) is first
        assert queue.dequeue(0.0) is second
        assert queue.dequeue(0.0) is None

    def test_drops_when_full(self):
        queue = DropTailQueue(capacity_bytes=3000)
        assert queue.enqueue(make_packet(), 0.0)
        assert queue.enqueue(make_packet(), 0.0)
        assert not queue.enqueue(make_packet(), 0.0)
        assert queue.packets_dropped == 1
        assert queue.bytes_queued == 3000


class TestEcnQueue:
    def test_marks_above_threshold(self):
        queue = EcnQueue(capacity_bytes=1_000_000, marking_threshold_packets=2, mtu_bytes=1500)
        packets = [make_packet(ecn_capable=True) for _ in range(4)]
        for packet in packets:
            queue.enqueue(packet, 0.0)
        assert not packets[0].ecn_marked
        assert not packets[1].ecn_marked
        assert packets[2].ecn_marked
        assert packets[3].ecn_marked

    def test_non_ecn_packets_never_marked(self):
        queue = EcnQueue(marking_threshold_packets=1)
        packets = [make_packet(ecn_capable=False) for _ in range(3)]
        for packet in packets:
            queue.enqueue(packet, 0.0)
        assert not any(p.ecn_marked for p in packets)


class TestStfqQueue:
    def test_weighted_service_order(self):
        """A heavier flow (smaller virtual length) gets served more often."""
        queue = StfqQueue()
        # Flow A weight 1 (virtual length 1500), flow B weight 3 (500).
        for i in range(3):
            queue.enqueue(make_packet(flow_id="A", sequence=i, virtual_length=1500.0), 0.0)
            queue.enqueue(make_packet(flow_id="B", sequence=i, virtual_length=500.0), 0.0)
        served = [queue.dequeue(0.0).flow_id for _ in range(6)]
        # Among the first four served packets, flow B gets at least two and
        # is never starved behind all of A's backlog.
        assert served.count("B") == 3
        assert served[:4].count("B") >= 2

    def test_control_packets_not_blocked(self):
        queue = StfqQueue()
        queue.enqueue(make_packet(flow_id="bulk", virtual_length=1e9), 0.0)
        queue.enqueue(make_packet(flow_id="ctrl", size=40, virtual_length=0.0), 0.0)
        # The control packet's zero virtual length puts it no later than the
        # backlogged bulk packet that arrived first.
        first = queue.dequeue(0.0)
        assert first.flow_id == "bulk" or first.flow_id == "ctrl"
        assert len(queue) == 1

    def test_drop_when_full(self):
        queue = StfqQueue(capacity_bytes=3000)
        assert queue.enqueue(make_packet(), 0.0)
        assert queue.enqueue(make_packet(), 0.0)
        assert not queue.enqueue(make_packet(), 0.0)

    def test_forget_flow(self):
        queue = StfqQueue()
        queue.enqueue(make_packet(flow_id="x", virtual_length=100.0), 0.0)
        queue.dequeue(0.0)
        queue.forget_flow("x")
        assert queue._last_finish == {}


class TestPfabricQueue:
    def test_serves_smallest_priority_first(self):
        queue = PfabricQueue(capacity_packets=10)
        queue.enqueue(make_packet(flow_id="big", priority=1_000_000), 0.0)
        queue.enqueue(make_packet(flow_id="small", priority=1_000), 0.0)
        assert queue.dequeue(0.0).flow_id == "small"

    def test_drops_largest_priority_on_overflow(self):
        queue = PfabricQueue(capacity_packets=2)
        queue.enqueue(make_packet(flow_id="a", priority=100), 0.0)
        queue.enqueue(make_packet(flow_id="b", priority=10_000), 0.0)
        assert queue.enqueue(make_packet(flow_id="c", priority=50), 0.0)
        remaining = {queue.dequeue(0.0).flow_id, queue.dequeue(0.0).flow_id}
        assert remaining == {"a", "c"}
        assert queue.packets_dropped == 1

    def test_arriving_least_urgent_packet_is_dropped(self):
        queue = PfabricQueue(capacity_packets=1)
        queue.enqueue(make_packet(flow_id="a", priority=10), 0.0)
        assert not queue.enqueue(make_packet(flow_id="b", priority=1000), 0.0)


class TestLazyCancellationPurge:
    def test_pending_events_is_live_count(self):
        simulator = Simulator()
        handles = [simulator.schedule(1e-6 * (i + 1), lambda: None) for i in range(10)]
        assert simulator.pending_events == 10
        for handle in handles[:4]:
            handle.cancel()
        assert simulator.pending_events == 6
        handles[0].cancel()  # double-cancel must not double-count
        assert simulator.pending_events == 6

    def test_compaction_purges_cancelled_entries(self):
        simulator = Simulator()
        fired = []
        keep = [simulator.schedule(1e-6 * (i + 1), fired.append, i) for i in range(40)]
        doomed = [simulator.schedule(1.0 + 1e-6 * i, fired.append, 1000 + i) for i in range(160)]
        for handle in doomed:
            handle.cancel()
        # Compaction keeps the cancelled fraction bounded: the heap may hold
        # at most ~half dead entries, never all 160.
        assert len(simulator._queue) <= 2 * len(keep) + 1
        assert simulator.pending_events == len(keep)
        simulator.run()
        assert fired == list(range(40))

    def test_cancel_after_fire_keeps_count_consistent(self):
        simulator = Simulator()
        handle = simulator.schedule(1e-6, lambda: None)
        simulator.schedule(2e-6, lambda: None)
        simulator.run(until=1.5e-6)
        handle.cancel()  # already fired; must not affect the live count
        assert simulator.pending_events == 1
        simulator.run()
        assert simulator.pending_events == 0

    def test_cancellation_inside_callback(self):
        simulator = Simulator()
        fired = []
        later = [simulator.schedule(1.0 + 1e-6 * i, fired.append, i) for i in range(100)]

        def cancel_all():
            for handle in later:
                handle.cancel()

        simulator.schedule(1e-6, cancel_all)
        simulator.run()
        assert fired == []
        assert simulator.pending_events == 0


class TestHotPathSlots:
    def test_hot_path_objects_have_no_instance_dict(self):
        packet = make_packet()
        assert not hasattr(packet, "__dict__")
        for queue in (DropTailQueue(), EcnQueue(), StfqQueue(), PfabricQueue()):
            assert not hasattr(queue, "__dict__")
        simulator = Simulator()
        handle = simulator.schedule(1e-6, lambda: None)
        assert not hasattr(handle, "__dict__")
