"""Output ports: a queue discipline plus a serializing link.

An :class:`OutputPort` models one unidirectional link attached to a node's
output: packets are queued by the configured discipline, serialized at the
link rate, and delivered to the peer node after the propagation delay.

Protocol logic that lives "at the link" (the NUMFabric price computation,
DGD's price update, RCP*'s fair-rate update) attaches to the port as a
:class:`PortController` and gets callbacks on enqueue and dequeue, and
before a rate change.
"""

from __future__ import annotations

from typing import List, Optional, Protocol

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, QueueDiscipline


class PortController(Protocol):
    """Switch-side protocol hook attached to an output port."""

    def on_enqueue(self, packet: Packet, now: float) -> None:
        """Called for every packet accepted into the port's queue."""

    def on_dequeue(self, packet: Packet, now: float) -> None:
        """Called when a packet starts transmission on the link."""

    def settle(self) -> None:
        """Bring time-driven state up to now; called before the link rate changes."""


class OutputPort:
    """One output link of a node: queue + serializer + propagation delay."""

    __slots__ = (
        "simulator",
        "name",
        "rate_bps",
        "propagation_delay",
        "queue",
        "peer",
        "controllers",
        "_busy",
        "bytes_transmitted",
        "packets_transmitted",
    )

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        rate_bps: float,
        propagation_delay: float,
        queue: Optional[QueueDiscipline] = None,
    ):
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation_delay must be non-negative")
        self.simulator = simulator
        self.name = name
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.queue = queue if queue is not None else DropTailQueue()
        self.peer = None  # set by connect()
        self.controllers: List[PortController] = []
        self._busy = False
        self.bytes_transmitted = 0
        self.packets_transmitted = 0

    def connect(self, peer) -> None:
        """Attach the receiving node of this port's link."""
        self.peer = peer

    def attach_controller(self, controller: PortController) -> None:
        self.controllers.append(controller)

    @property
    def is_busy(self) -> bool:
        return self._busy

    @property
    def queue_bytes(self) -> int:
        return self.queue.bytes_queued

    def send(self, packet: Packet) -> bool:
        """Queue a packet for transmission; returns False if it was dropped."""
        if self.peer is None:
            raise RuntimeError(f"port {self.name} is not connected")
        now = self.simulator.now
        accepted = self.queue.enqueue(packet, now)
        if not accepted:
            return False
        for controller in self.controllers:
            controller.on_enqueue(packet, now)
        if not self._busy:
            self._start_transmission()
        return True

    def set_rate(self, rate_bps: float) -> None:
        """Change the link rate mid-run (fault injection).

        A rate of ``0`` takes the link down: queued packets stay queued and
        nothing new serializes until the rate becomes positive again.  A
        packet already on the wire finishes at the rate it started with
        (the serialization event is immutable once scheduled).
        """
        if rate_bps < 0:
            raise ValueError("rate_bps must be non-negative")
        # A controller that parked its timer on an idle port owes ticks at
        # the old rate; it pays them before the rate moves.
        for controller in self.controllers:
            controller.settle()
        was_down = self.rate_bps <= 0.0
        self.rate_bps = rate_bps
        if was_down and rate_bps > 0.0 and not self._busy:
            self._start_transmission()

    def _start_transmission(self) -> None:
        if self.rate_bps <= 0.0:  # link is down: hold the queue
            self._busy = False
            return
        now = self.simulator.now
        packet = self.queue.dequeue(now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        for controller in self.controllers:
            controller.on_dequeue(packet, now)
        transmission_time = packet.size_bytes * 8.0 / self.rate_bps
        # Serialization and propagation events are never cancelled, so both
        # go through the allocation-free fire-and-forget scheduling path --
        # back-to-back transmissions during a busy period cost two heap
        # pushes per packet and no EventHandle churn.
        self.simulator.schedule_uncancellable(transmission_time, self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        self.bytes_transmitted += packet.size_bytes
        self.packets_transmitted += 1
        if self.propagation_delay == 0.0:
            # Zero-delay link: coalesce propagation into this serialization
            # event instead of scheduling a same-timestamp delivery, saving
            # one heap push+pop per packet.  The next packet starts
            # serializing before the peer sees this one -- the same
            # within-timestamp order the two-event path produces -- and a
            # mid-flight set_rate(0) still only holds the *queue* (this
            # packet already finished serializing, so it is delivered).
            self._start_transmission()
            self.peer.receive(packet)
            return
        # The packet propagates to the peer while the port moves on to the
        # next queued packet.
        self.simulator.schedule_uncancellable(self.propagation_delay, self.peer.receive, packet)
        self._start_transmission()

    def utilization(self, elapsed: float) -> float:
        """Fraction of the link capacity used over ``elapsed`` seconds."""
        if elapsed <= 0 or self.rate_bps <= 0:
            return 0.0
        return min(8.0 * self.bytes_transmitted / (elapsed * self.rate_bps), 1.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OutputPort({self.name}, rate={self.rate_bps:g}bps, queued={len(self.queue)})"
