"""The event engine's ordering contract, property-tested.

Events fire in ``(time, key)`` order.  A :class:`PeriodicTimer` tick's key
is its timer's rank (negative, in timer-creation order); every other
entry's key is the sequence number drawn when it was pushed -- by
``schedule``, ``schedule_uncancellable``, ``schedule_at`` or an
``OutputPort``'s own serialization and propagation pushes.  A cancelled
event never fires, and once ``run()`` has returned -- on an empty heap, at
``until``, at ``max_events`` or by an exception -- ``events_processed`` is
the number of events fired.

The programs below mix all of these, with scheduling, cancellation and
park / unpark from inside callbacks (port deliveries included), on a dyadic
time grid so that sums of delays are exact and ties are frequent.
"""

from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort

UNIT = 2.0**-20  # seconds; sums of whole units are exact
PORT_DELAYS = (2, 0)  # units: one propagating port, one zero-delay (coalesced) port
HORIZON = 64  # units; every timer is stopped here, so the heap can drain
KINDS = ("schedule", "uncancellable", "at", "send", "cancel", "park", "unpark", "decoys")


class SequenceTap:
    """Stands in for the simulator's sequence counter; remembers the last draw."""

    def __init__(self):
        self.last = -1

    def __iter__(self):
        return self

    def __next__(self):
        self.last += 1
        return self.last


class Program:
    """One drawn program on a fresh simulator with two ports.

    ``ops`` are ``(kind, arg, parent)``: an op runs at set-up when its parent
    is ``None``, else when op ``parent``'s event fires (a ``send`` op's
    event is the delivery of its packet).
    """

    def __init__(self, timers, ops):
        self.sim = Simulator()
        # Before the ports are built: they bind the counter at construction.
        self.tap = self.sim._sequence = SequenceTap()
        self.ports = []
        for index, delay in enumerate(PORT_DELAYS):
            port = OutputPort(self.sim, f"p{index}", 8.0 / UNIT, delay * UNIT)  # 1 byte/unit
            port.connect(_Peer(self, port))
            self.ports.append(port)
        self.ops = ops
        self.children = defaultdict(list)
        for index, (_, _, parent) in enumerate(ops):
            self.children[parent].append(index)
        self.handles = {}
        self.scheduled = set()
        self.cancelled = set()
        self.fired_labels = []
        self.sent = []
        self.delivered = []
        self.trace = []  # (time, key) per event fired; key None where unknown
        self.coalesced = 0  # zero-delay deliveries happen inside a port event
        self.timers = [
            self.sim.every(interval * UNIT, self._tick(k), start_delay=start * UNIT)
            for k, (interval, start) in enumerate(timers)
        ]
        self.sim.schedule_at(HORIZON * UNIT, self._stop_timers, self.tap.last + 1)
        self._run_children(None)

    # -- what fires ------------------------------------------------------------

    def _fired(self, key):
        """Record an event; nothing still queued may precede it."""
        now = self.sim.now
        live = [(e[0], e[1]) for e in self.sim._queue if not e[2].cancelled]
        # Every entry but a tick holds its own number from the one counter.
        drawn = [k for _, k in live if k >= 0]
        assert len(drawn) == len(set(drawn)) and all(k <= self.tap.last for k in drawn)
        if key is None:
            assert all(time >= now for time, _ in live)
        else:
            assert all(entry > (now, key) for entry in live), (now, key, min(live))
        self.trace.append((now, key))

    def _tick(self, k):
        def tick():
            timer = self.timers[k]
            self._fired(timer._rank)
            if len(self.trace) % 3 == 0:  # park from inside the tick, as controllers do
                timer.park()

        return tick

    def _stop_timers(self, key):
        self._fired(key)
        for timer in self.timers:
            timer.stop()

    def _event(self, label, key):
        self._fired(key)
        self.fired_labels.append(label)
        self._run_children(label)

    def deliver(self, port, packet):
        if port.propagation_delay == 0.0:
            self.coalesced += 1
        self._fired(None)
        self.delivered.append((port.name, packet.sequence))
        self._run_children(packet.sequence)

    # -- what the program does -------------------------------------------------

    def _run_children(self, parent):
        for index in self.children[parent]:
            self._apply(index)

    def _apply(self, index):
        kind, arg, _ = self.ops[index]
        sim = self.sim
        if kind in ("schedule", "uncancellable", "at"):
            key = self.tap.last + 1  # the sequence number the push will draw
            if kind == "schedule":
                handle = sim.schedule(arg * UNIT, self._event, index, key)
            elif kind == "at":
                handle = sim.schedule_at(sim.now + arg * UNIT, self._event, index, key)
            else:
                handle = sim.schedule_uncancellable(arg * UNIT, self._event, index, key)
            assert self.tap.last == key
            self.scheduled.add(index)
            if handle is not None:
                self.handles[index] = handle
        elif kind == "send":
            port = self.ports[arg % len(self.ports)]
            assert port.send(Packet(flow_id=0, source="a", destination="b",
                                    size_bytes=1 + arg % 3, sequence=index))
            self.sent.append((port.name, index))
        elif kind == "cancel":
            target = arg % len(self.ops)
            handle = self.handles.get(target)
            if handle is not None:
                if target not in self.fired_labels:
                    self.cancelled.add(target)
                handle.cancel()
        elif kind in ("park", "unpark"):
            if self.timers:
                timer = self.timers[arg % len(self.timers)]
                if kind == "park":
                    timer.park()
                else:
                    timer.unpark()
        else:  # decoys: enough dead weight to compact the heap mid-run
            for handle in [sim.schedule((1000 + i) * UNIT, _never) for i in range(70)]:
                handle.cancel()

    # -- what must hold --------------------------------------------------------

    def events_fired(self):
        serializations = sum(port.packets_transmitted for port in self.ports)
        return len(self.trace) - self.coalesced + serializations

    def check_order(self):
        times = [time for time, _ in self.trace]
        assert times == sorted(times)
        keyed = [entry for entry in self.trace if entry[1] is not None]
        assert all(a < b for a, b in zip(keyed, keyed[1:]))


class _Peer:
    def __init__(self, program, port):
        self.program = program
        self.port = port

    def receive(self, packet):
        self.program.deliver(self.port, packet)


def _never():
    raise AssertionError("a cancelled event fired")


@st.composite
def programs(draw):
    timers = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 4)), max_size=2))
    ops = []
    for index in range(draw(st.integers(1, 24))):
        parent = draw(st.one_of(st.none(), st.integers(0, index - 1))) if index else None
        ops.append((draw(st.sampled_from(KINDS)), draw(st.integers(0, 30)), parent))
    return timers, ops, draw(st.integers(0, 40)), draw(st.integers(1, 30))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=programs())
def test_events_fire_in_time_key_order_and_are_counted(case):
    timers, ops, until, max_events = case
    program = Program(timers, ops)
    sim = program.sim

    sim.run(until=until * UNIT)
    assert sim.events_processed == program.events_fired()
    sim.run(max_events=max_events)
    assert sim.events_processed == program.events_fired()
    sim.run()
    assert sim.events_processed == program.events_fired()
    assert sim.pending_events == 0

    program.check_order()
    fired = program.fired_labels
    assert len(fired) == len(set(fired))
    assert set(fired) == program.scheduled - program.cancelled
    for port in program.ports:  # every packet delivered, in the order sent
        assert [s for p, s in program.delivered if p == port.name] == [
            s for p, s in program.sent if p == port.name
        ]


def test_a_raising_callback_is_not_counted_but_those_before_it_are():
    sim = Simulator()
    sim.schedule(1e-6, lambda: None)
    sim.schedule_uncancellable(2e-6, lambda: None)
    sim.schedule(3e-6, _never)
    sim.schedule(4e-6, lambda: None)
    with pytest.raises(AssertionError):
        sim.run()
    assert sim.events_processed == 2
    sim.run()  # the loop resumes after the failed event
    assert sim.events_processed == 3


def test_a_timer_re_armed_at_its_cancelled_tick_instant():
    """park() on an armed timer leaves a cancelled entry at (due, rank);
    unpark() in the same instant re-arms the same key beside it."""
    sim = Simulator()
    fired = []
    timer = sim.every(1e-6, lambda: fired.append(sim.now))
    timer.park()
    assert timer.unpark() == 0
    sim.run(until=3.5e-6)
    assert len(fired) == 3 and sim.events_processed == 3
