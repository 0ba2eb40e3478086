"""Common machinery shared by every packet-level transport.

A *scheme* (one per protocol) builds queues, optional switch-side port
controllers and per-flow connections.  ``SenderBase`` / ``ReceiverBase``
implement the bookkeeping every protocol needs -- packetization, tracking of
sent/acknowledged bytes, inter-packet-time measurement at the receiver, flow
completion -- so concrete transports only implement their control laws.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

from repro.core.config import SimulationParameters
from repro.sim.engine import PeriodicTimer
from repro.sim.flow import FlowCompletion, FlowDescriptor
from repro.sim.packet import Packet
from repro.sim.port import OutputPort
from repro.sim.queues import DropTailQueue, QueueDiscipline

MTU_BYTES = 1500


class TransportScheme(ABC):
    """Factory bundle for one transport protocol."""

    name = "abstract"

    @abstractmethod
    def make_queue(self, link_rate: float) -> QueueDiscipline:
        """Queue discipline used at switch output ports."""

    def make_host_queue(self, link_rate: float) -> QueueDiscipline:
        """Queue used at host uplinks (a large FIFO by default)."""
        return DropTailQueue(capacity_bytes=10_000_000)

    def make_port_controller(self, network, port: OutputPort):
        """Switch-side per-port protocol logic; ``None`` if the scheme has none."""
        return None

    @abstractmethod
    def create_connection(
        self, network, flow: FlowDescriptor
    ) -> Tuple["SenderBase", "ReceiverBase"]:
        """Create the (sender, receiver) endpoints of one flow."""


class DemandDrivenPortController:
    """A switch-side controller whose periodic control tick is demand-driven.

    The paper's switch recomputes its price on a fixed timeout at every
    port (Fig. 3).  Realised literally that is one heap event per port per
    interval whether or not the port carried a byte, so the tick that
    closes an *idle* interval parks the timer instead of re-arming it, and
    :meth:`settle` -- called first thing by every hook, every read of the
    control variable and ``OutputPort.set_rate`` -- replays the skipped
    ticks through the same update before anything else happens.  Results
    are those of the always-on timer, event for event (grid, tie rule and
    why port ticks commute: "Packet engine, idle ports" in
    ``docs/ARCHITECTURE.md``).

    A subclass arms ``self._timer`` with ``Simulator.every`` on ``self._tick``
    and starts its public reads with ``self.settle()`` and the per-packet
    hooks ``on_enqueue`` / ``on_dequeue`` with the same behind an
    ``if self._timer.parked`` (a no-op call is still a call, twice a packet).
    """

    port: OutputPort
    _timer: PeriodicTimer

    def _interval_was_idle(self) -> bool:
        """Whether nothing the update reads happened since the last tick."""
        raise NotImplementedError

    def _update(self, queue_bytes: int) -> None:
        """One control update: close the interval, move the control variable.

        ``queue_bytes`` is the port's backlog at the tick.  A replayed tick
        gets 0: a parked port's queue was empty at every tick it skipped,
        while by the time the replay runs the packet that woke it is queued.
        """
        raise NotImplementedError

    def _control_value(self) -> float:
        """The variable :meth:`_update` moves (price, fair rate)."""
        raise NotImplementedError

    def _tick(self) -> None:
        idle = self._interval_was_idle()
        self._update(self.port.queue_bytes)
        if idle:
            self._timer.park()

    def settle(self) -> None:
        """Replay the idle ticks a parked timer skipped, up to and including now."""
        for _ in range(self._timer.unpark()):
            before = self._control_value()
            self._update(0)
            # An idle update is a function of the control variable alone, so
            # once it leaves it unchanged (price 0, rate at capacity, link
            # down) every later one does too.
            if self._control_value() == before:
                break


class SenderBase:
    """Window/credit bookkeeping common to all senders.

    Concrete transports drive :meth:`maybe_send` from their control law
    (ACK clocking, pacing timers, ...) after setting ``window_bytes``.
    """

    def __init__(self, network, flow: FlowDescriptor, mtu_bytes: int = MTU_BYTES):
        self.network = network
        self.flow = flow
        self.simulator = network.simulator
        self.host = network.hosts[flow.source]
        self.mtu_bytes = mtu_bytes
        self.window_bytes = mtu_bytes
        self.bytes_sent = 0
        self.bytes_acked = 0
        self.next_sequence = 0
        self.started = False
        self.stopped = False
        self.completed = False
        self.start_time: Optional[float] = None
        self.completion_time: Optional[float] = None

    # -- size bookkeeping -----------------------------------------------------

    @property
    def unacked_remaining_bytes(self) -> float:
        """Bytes not yet acknowledged (pFabric's notion of remaining size)."""
        flow_size = self.flow.size_bytes
        if flow_size is None:
            return float("inf")
        return max(flow_size - self.bytes_acked, 0)

    @property
    def bytes_in_flight(self) -> int:
        return max(self.bytes_sent - self.bytes_acked, 0)

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting (called by the network at the flow start time)."""
        if self.started:
            return
        self.started = True
        self.start_time = self.simulator.now
        self.on_start()
        self.maybe_send()

    def on_start(self) -> None:
        """Hook for protocol-specific initialization (e.g. initial window)."""

    def stop(self) -> None:
        """Stop a long-lived flow: no further packets are sent."""
        self.stopped = True

    # -- transmission ------------------------------------------------------------

    def maybe_send(self) -> None:
        """Send as many packets as the window and remaining bytes allow.

        A packet is the MTU or what is left of the flow, whichever is
        smaller, and goes out while the bytes in flight plus one MTU fit the
        window.  The loop runs once per data packet of every window-clocked
        sender, so it reads the counters directly.
        """
        if not self.started or self.stopped:
            return
        flow_size = self.flow.size_bytes
        mtu = self.mtu_bytes
        while True:
            if flow_size is None:
                size = mtu
            else:
                remaining = flow_size - self.bytes_sent
                if not remaining > 0:
                    break
                size = int(remaining if remaining < mtu else mtu)
            in_flight = self.bytes_sent - self.bytes_acked
            if not (0 if 0 > in_flight else in_flight) + mtu <= self.window_bytes:
                break
            if size <= 0:
                break
            self.send_packet(size)

    def send_packet(self, size_bytes: int) -> Packet:
        packet = Packet(
            flow_id=self.flow.flow_id,
            source=self.flow.source,
            destination=self.flow.destination,
            size_bytes=size_bytes,
            sequence=self.next_sequence,
            created_at=self.simulator.now,
        )
        self.prepare_packet(packet)
        self.next_sequence += 1
        self.bytes_sent += size_bytes
        self.host.send(packet)
        self.on_packet_sent(packet)
        return packet

    def prepare_packet(self, packet: Packet) -> None:
        """Hook: fill protocol-specific header fields before transmission."""

    def on_packet_sent(self, packet: Packet) -> None:
        """Hook called after a packet has been handed to the host uplink."""

    # -- acknowledgment ------------------------------------------------------------

    def on_ack(self, ack: Packet) -> None:
        """Process an ACK: account bytes, run the control law, keep sending."""
        if self.completed:
            return
        self.bytes_acked += ack.acked_bytes
        self.process_ack(ack)
        flow_size = self.flow.size_bytes
        if flow_size is not None and self.bytes_acked >= flow_size:
            self._complete()
            return
        self.maybe_send()

    def process_ack(self, ack: Packet) -> None:
        """Hook: protocol-specific reaction to an ACK (window/rate update)."""

    def _complete(self) -> None:
        self.completed = True
        self.completion_time = self.simulator.now
        self.network.record_completion(
            FlowCompletion(
                flow_id=self.flow.flow_id,
                size_bytes=self.flow.size_bytes or self.bytes_acked,
                start_time=self.start_time if self.start_time is not None else 0.0,
                finish_time=self.simulator.now,
            )
        )
        self.on_complete()

    def on_complete(self) -> None:
        """Hook called once when the flow finishes."""


class ReceiverBase:
    """Receives data packets, measures inter-packet times and emits ACKs."""

    def __init__(self, network, flow: FlowDescriptor):
        self.network = network
        self.flow = flow
        self.simulator = network.simulator
        self.host = network.hosts[flow.destination]
        self.bytes_received = 0
        self.packets_received = 0
        self._last_arrival: Optional[float] = None

    def on_data(self, packet: Packet) -> None:
        now = self.simulator.now
        inter_packet_time = 0.0 if self._last_arrival is None else now - self._last_arrival
        self._last_arrival = now
        self.bytes_received += packet.size_bytes
        self.packets_received += 1
        self.network.record_delivery(self.flow.flow_id, now, packet.size_bytes)
        ack = packet.make_ack(now, acked_bytes=packet.size_bytes,
                              inter_packet_time=inter_packet_time)
        self.prepare_ack(ack, packet)
        self.host.send(ack)

    def prepare_ack(self, ack: Packet, data_packet: Packet) -> None:
        """Hook: add protocol-specific feedback to the ACK."""


def bdp_bytes(params: SimulationParameters) -> float:
    """Bandwidth-delay product of an access link (bytes)."""
    return params.edge_link_rate * params.baseline_rtt / 8.0
