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

from heapq import heappush
from typing import List, Optional, Protocol

from repro.sim.engine import _FIRE_AND_FORGET, Simulator
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
        "_events",
        "_sequence",
        "_finish",
        "_deliver",
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
        # A hop is two fire-and-forget events (end of serialization, end of
        # propagation).  The port pushes them onto the simulator's heap
        # itself -- the entries Simulator.schedule_uncancellable would push,
        # sequence numbers drawn from the same counter -- with callbacks
        # bound once here rather than once per packet.
        self._events = simulator._queue
        self._sequence = simulator._sequence
        self._finish = self._finish_transmission
        self._deliver = None  # peer.receive, set by connect()

    def connect(self, peer) -> None:
        """Attach the receiving node of this port's link."""
        self.peer = peer
        self._deliver = peer.receive

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
        now = self.simulator._now
        if not self.queue.enqueue(packet, now):
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
        """Start a busy period: serialize the head of the queue, if any."""
        if self.rate_bps <= 0.0:  # link is down: hold the queue
            self._busy = False
            return
        now = self.simulator._now
        packet = self.queue.dequeue(now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        for controller in self.controllers:
            controller.on_dequeue(packet, now)
        heappush(
            self._events,
            (
                now + packet.size_bytes * 8.0 / self.rate_bps,
                next(self._sequence),
                _FIRE_AND_FORGET,
                self._finish,
                (packet,),
            ),
        )

    def _finish_transmission(self, packet: Packet) -> None:
        """End of serialization: deliver, then the next packet or idle.

        Continues the busy period itself rather than through
        :meth:`_start_transmission` (most calls find the queue empty).
        """
        self.bytes_transmitted += packet.size_bytes
        self.packets_transmitted += 1
        now = self.simulator._now
        events = self._events
        delay = self.propagation_delay
        if delay != 0.0:
            # The packet propagates to the peer while the port moves on.
            heappush(
                events,
                (now + delay, next(self._sequence), _FIRE_AND_FORGET, self._deliver, (packet,)),
            )
        following = self.queue.dequeue(now) if self.rate_bps > 0.0 else None
        if following is None:
            self._busy = False
        else:
            for controller in self.controllers:
                controller.on_dequeue(following, now)
            heappush(
                events,
                (
                    now + following.size_bytes * 8.0 / self.rate_bps,
                    next(self._sequence),
                    _FIRE_AND_FORGET,
                    self._finish,
                    (following,),
                ),
            )
        if delay == 0.0:
            # Zero-delay link: propagation is coalesced into this event
            # instead of a same-timestamp delivery, saving one heap push+pop
            # per packet.  The next packet starts serializing before the peer
            # sees this one -- the within-timestamp order of the two-event
            # path -- and a mid-flight set_rate(0) still only holds the
            # *queue* (this packet finished serializing, so it is delivered).
            self._deliver(packet)

    def utilization(self, elapsed: float) -> float:
        """Fraction of the link capacity used over ``elapsed`` seconds."""
        if elapsed <= 0 or self.rate_bps <= 0:
            return 0.0
        return min(8.0 * self.bytes_transmitted / (elapsed * self.rate_bps), 1.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OutputPort({self.name}, rate={self.rate_bps:g}bps, queued={len(self.queue)})"
