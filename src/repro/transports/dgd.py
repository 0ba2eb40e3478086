"""Packet-level DGD rate control (Sec. 3 and the Sec. 6 baseline).

Switches maintain a per-link price updated periodically from the observed
throughput and queue occupancy (Eq. (14)); senders set their rate directly
to ``U'^{-1}(path price)`` and pace packets at that rate, with the number of
unacknowledged bytes capped at two bandwidth-delay products (as in the
paper's enhanced implementation).

The gains are normalized (per relative over-subscription and per BDP of
queueing) so the same defaults work at any link speed; Table 2's absolute
values correspond to this form at 10 Gbps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.utility import Utility
from repro.sim.flow import FlowDescriptor
from repro.sim.packet import Packet
from repro.sim.port import OutputPort
from repro.sim.queues import DropTailQueue, QueueDiscipline
from repro.transports.base import (
    MTU_BYTES,
    DemandDrivenPortController,
    ReceiverBase,
    SenderBase,
    TransportScheme,
)


@dataclass(frozen=True)
class DgdSchemeParameters:
    """Normalized DGD gains and timing for the packet-level implementation."""

    price_update_interval: float = 16e-6
    utilization_gain: float = 0.05
    queue_gain: float = 0.02
    max_outstanding_bdp: float = 2.0
    baseline_rtt: float = 16e-6


class DgdPortController(DemandDrivenPortController):
    """Per-link price computation: ``p <- [p + a (y - C) + b q]+`` (Eq. (14))."""

    def __init__(self, network, port: OutputPort, params: DgdSchemeParameters):
        self.port = port
        self.params = params
        self._price = 0.0
        self._bytes_serviced = 0.0
        self._seed_price = 1.0 / port.rate_bps  # marginal log-utility at capacity
        self._timer = network.simulator.every(params.price_update_interval, self._tick)

    def on_enqueue(self, packet: Packet, now: float) -> None:
        if self._timer.parked:
            self.settle()

    def on_dequeue(self, packet: Packet, now: float) -> None:
        if self._timer.parked:
            self.settle()
        self._bytes_serviced += packet.size_bytes
        if packet.is_data:
            packet.path_price += self._price
            packet.path_length += 1

    def _interval_was_idle(self) -> bool:
        return self._bytes_serviced == 0 and self.port.queue_bytes == 0

    def _update(self, queue_bytes: int) -> None:
        if self.port.rate_bps <= 0.0:  # link down (fault injection): hold price
            self._bytes_serviced = 0.0
            return
        interval = self.params.price_update_interval
        throughput = 8.0 * self._bytes_serviced / interval
        excess = (throughput - self.port.rate_bps) / self.port.rate_bps
        bdp = self.port.rate_bps * self.params.baseline_rtt / 8.0
        queue_in_bdp = queue_bytes / bdp
        price_scale = max(self._price, self._seed_price)
        delta = (self.params.utilization_gain * excess + self.params.queue_gain * queue_in_bdp)
        self._price = max(self._price + delta * price_scale, self._seed_price * 1e-6)
        self._bytes_serviced = 0.0

    def _control_value(self) -> float:
        return self._price

    @property
    def price(self) -> float:
        self.settle()
        return self._price


class DgdSender(SenderBase):
    """Rate-paced sender: ``x = U'^{-1}(path price)``, outstanding <= 2 BDP."""

    def __init__(
        self,
        network,
        flow: FlowDescriptor,
        params: DgdSchemeParameters,
        utility: Optional[Utility] = None,
        mtu_bytes: int = MTU_BYTES,
    ):
        super().__init__(network, flow, mtu_bytes)
        self.params = params
        self.utility = utility if utility is not None else flow.utility
        self.max_rate = params.max_outstanding_bdp * network.access_link_rate
        self.rate = network.access_link_rate / 10.0
        bdp = network.access_link_rate * params.baseline_rtt / 8.0
        self.window_bytes = int(params.max_outstanding_bdp * bdp)
        self._pacing_scheduled = False

    def on_start(self) -> None:
        self._schedule_next_packet()

    def process_ack(self, ack: Packet) -> None:
        price = ack.echo_path_price
        if price > 0.0:
            self.rate = min(self.utility.inverse_marginal(price), self.max_rate)
        else:
            self.rate = self.max_rate

    def maybe_send(self) -> None:
        # Sending is driven by the pacing timer, not by ACK clocking; ACKs
        # only update the rate and open the outstanding-bytes cap.
        if self.started and not self._pacing_scheduled and not self.stopped:
            self._schedule_next_packet()

    def _schedule_next_packet(self) -> None:
        size = self.flow.size_bytes
        if self.stopped or self.completed or (size is not None and size <= self.bytes_sent):
            self._pacing_scheduled = False
            return
        self._pacing_scheduled = True
        gap = self.mtu_bytes * 8.0 / max(self.rate, 1e3)
        self.simulator.schedule(gap, self._pace)

    def _pace(self) -> None:
        self._pacing_scheduled = False
        if self.stopped or self.completed:
            return
        size = self.flow.size_bytes
        remaining = None if size is None else size - self.bytes_sent
        if (remaining is None or remaining > 0) and (
            self.bytes_in_flight + self.mtu_bytes <= self.window_bytes
        ):
            mtu = self.mtu_bytes
            self.send_packet(mtu if remaining is None else int(min(mtu, remaining)))
        self._schedule_next_packet()


class DgdReceiver(ReceiverBase):
    """Standard receiver: the ACK already echoes the path price."""


class DgdScheme(TransportScheme):
    """Scheme bundle: FIFO switches + price controllers + rate-paced hosts."""

    name = "DGD"

    def __init__(
        self,
        params: Optional[DgdSchemeParameters] = None,
        buffer_bytes: float = 1_000_000,
        mtu_bytes: int = MTU_BYTES,
    ):
        self.params = params or DgdSchemeParameters()
        self.buffer_bytes = buffer_bytes
        self.mtu_bytes = mtu_bytes
        self.controllers = []

    def make_queue(self, link_rate: float) -> QueueDiscipline:
        return DropTailQueue(capacity_bytes=self.buffer_bytes)

    def make_port_controller(self, network, port: OutputPort):
        controller = DgdPortController(network, port, self.params)
        self.controllers.append(controller)
        return controller

    def create_connection(self, network, flow: FlowDescriptor) -> Tuple[DgdSender, DgdReceiver]:
        sender = DgdSender(network, flow, self.params, mtu_bytes=self.mtu_bytes)
        receiver = DgdReceiver(network, flow)
        return sender, receiver
