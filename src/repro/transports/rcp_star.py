"""Packet-level RCP* -- RCP generalized for alpha-fairness (Sec. 6, Eqs. (15)-(16)).

Every switch port advertises a fair-share rate ``R_l`` that it adapts from
spare capacity and queue backlog.  When a data packet departs, the switch
adds ``R_l^{-alpha}`` to a header field; the source sets its sending rate to
``(sum_l R_l^{-alpha})^{-1/alpha}`` using the value echoed in ACKs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

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
class RcpStarSchemeParameters:
    """RCP* gains and timing (Table 2, second row)."""

    rate_update_interval: float = 16e-6
    gain_a: float = 0.1
    gain_b: float = 0.05
    alpha: float = 1.0
    max_outstanding_bdp: float = 2.0
    baseline_rtt: float = 16e-6


class RcpStarPortController(DemandDrivenPortController):
    """Per-link fair-rate computation (Eq. (15))."""

    def __init__(self, network, port: OutputPort, params: RcpStarSchemeParameters):
        self.port = port
        self.params = params
        self._fair_rate = port.rate_bps * 0.1
        self._bytes_serviced = 0.0
        self._timer = network.simulator.every(params.rate_update_interval, self._tick)

    def on_enqueue(self, packet: Packet, now: float) -> None:
        if self._timer.parked:
            self.settle()

    def on_dequeue(self, packet: Packet, now: float) -> None:
        if self._timer.parked:
            self.settle()
        self._bytes_serviced += packet.size_bytes
        if packet.is_data:
            packet.rcp_price_sum += self._fair_rate ** (-self.params.alpha)
            packet.path_length += 1

    def _interval_was_idle(self) -> bool:
        return self._bytes_serviced == 0 and self.port.queue_bytes == 0

    def _update(self, queue_bytes: int) -> None:
        params = self.params
        interval = params.rate_update_interval
        capacity = self.port.rate_bps
        if capacity <= 0.0:  # link down (fault injection): hold the fair rate
            self._bytes_serviced = 0.0
            return
        throughput = 8.0 * self._bytes_serviced / interval
        spare_fraction = (capacity - throughput) / capacity
        queue_in_rtt = 8.0 * queue_bytes / (capacity * params.baseline_rtt)
        factor = 1.0 + (interval / params.baseline_rtt) * (
            params.gain_a * spare_fraction - params.gain_b * queue_in_rtt
        )
        factor = min(max(factor, 0.5), 2.0)
        self._fair_rate = min(max(self._fair_rate * factor, capacity * 1e-6), capacity)
        self._bytes_serviced = 0.0

    def _control_value(self) -> float:
        return self._fair_rate

    @property
    def fair_rate(self) -> float:
        self.settle()
        return self._fair_rate


class RcpStarSender(SenderBase):
    """Rate-paced sender using the echoed sum of ``R_l^{-alpha}`` (Eq. (16))."""

    def __init__(
        self,
        network,
        flow: FlowDescriptor,
        params: RcpStarSchemeParameters,
        mtu_bytes: int = MTU_BYTES,
    ):
        super().__init__(network, flow, mtu_bytes)
        self.params = params
        self.max_rate = params.max_outstanding_bdp * network.access_link_rate
        self.rate = network.access_link_rate / 10.0
        bdp = network.access_link_rate * params.baseline_rtt / 8.0
        self.window_bytes = int(params.max_outstanding_bdp * bdp)
        self._pacing_scheduled = False

    def on_start(self) -> None:
        self._schedule_next_packet()

    def process_ack(self, ack: Packet) -> None:
        price_sum = ack.echo_rcp_price_sum
        if price_sum > 0.0:
            self.rate = min(price_sum ** (-1.0 / self.params.alpha), self.max_rate)
        else:
            self.rate = self.max_rate

    def maybe_send(self) -> None:
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


class RcpStarReceiver(ReceiverBase):
    """Standard receiver: ``make_ack`` already echoes the RCP price sum."""


class RcpStarScheme(TransportScheme):
    """Scheme bundle: FIFO switches + fair-rate controllers + paced hosts."""

    name = "RCP*"

    def __init__(
        self,
        params: Optional[RcpStarSchemeParameters] = None,
        buffer_bytes: float = 1_000_000,
        mtu_bytes: int = MTU_BYTES,
    ):
        self.params = params or RcpStarSchemeParameters()
        self.buffer_bytes = buffer_bytes
        self.mtu_bytes = mtu_bytes
        self.controllers = []

    def make_queue(self, link_rate: float) -> QueueDiscipline:
        return DropTailQueue(capacity_bytes=self.buffer_bytes)

    def make_port_controller(self, network, port: OutputPort):
        controller = RcpStarPortController(network, port, self.params)
        self.controllers.append(controller)
        return controller

    def create_connection(self, network, flow: FlowDescriptor
                          ) -> Tuple[RcpStarSender, RcpStarReceiver]:
        sender = RcpStarSender(network, flow, self.params, mtu_bytes=self.mtu_bytes)
        receiver = RcpStarReceiver(network, flow)
        return sender, receiver
