"""The NUMFabric packet-level implementation (Sec. 5).

Three pieces:

* :class:`NumFabricSender` -- Swift rate control (EWMA of inter-packet
  times, window = R_hat * (d0 + dt)) plus the xWI host role: compute the
  flow weight from the echoed path price (Eq. (7)), stamp
  ``virtualPacketLen`` and ``normalizedResidual`` into data packets.
* :class:`NumFabricReceiver` -- reflects path price, path length and the
  latest inter-packet time back to the sender in ACKs.
* :class:`NumFabricPortController` -- the switch side: STFQ scheduling is
  provided by the port's queue; this controller implements the price
  computation of Fig. 3 and stamps ``pathPrice`` / ``pathLen`` on departing
  data packets.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.core.config import NumFabricParameters
from repro.core.swift import SwiftRateControl
from repro.core.utility import Utility
from repro.core.xwi import XwiLinkState, compute_flow_weight, normalized_residual
from repro.sim.flow import FlowDescriptor
from repro.sim.packet import Packet
from repro.sim.port import OutputPort
from repro.sim.queues import QueueDiscipline, StfqQueue
from repro.transports.base import (
    MTU_BYTES,
    DemandDrivenPortController,
    ReceiverBase,
    SenderBase,
    TransportScheme,
)


class NumFabricPortController(DemandDrivenPortController):
    """Per-port xWI price computation (Fig. 3)."""

    def __init__(self, network, port: OutputPort, params: NumFabricParameters):
        self.port = port
        self.params = params
        self.state = XwiLinkState(capacity=port.rate_bps, params=params)
        self._timer = network.simulator.every(params.price_update_interval, self._tick)

    def on_enqueue(self, packet: Packet, now: float) -> None:
        if self._timer.parked:
            self.settle()
        if not packet.is_ack:
            self.state.on_enqueue(packet.normalized_residual)

    def on_dequeue(self, packet: Packet, now: float) -> None:
        if self._timer.parked:
            self.settle()
        price = self.state.on_dequeue(packet.size_bytes)
        if not packet.is_ack:
            packet.path_price += price
            packet.path_length += 1

    def _interval_was_idle(self) -> bool:
        return self.state.bytes_serviced == 0 and self.state.min_residual == math.inf

    def _update(self, queue_bytes: int) -> None:  # xWI reads no queue
        state = self.state
        rate = self.port.rate_bps
        if rate <= 0.0:  # link down (fault injection): hold the price
            state.bytes_serviced = 0.0
            state.min_residual = math.inf
            return
        state.capacity = rate  # utilisation against the rate now, not the one at build time
        state.update_price(self.params.price_update_interval)

    def _control_value(self) -> float:
        return self.state.price

    @property
    def price(self) -> float:
        self.settle()
        return self.state.price


class NumFabricSender(SenderBase):
    """Swift rate control + xWI weight computation at the source."""

    def __init__(
        self,
        network,
        flow: FlowDescriptor,
        params: NumFabricParameters,
        utility: Optional[Utility] = None,
        mtu_bytes: int = MTU_BYTES,
    ):
        super().__init__(network, flow, mtu_bytes)
        self.params = params
        self.utility = utility if utility is not None else flow.utility
        self.rate_control = SwiftRateControl(params=params, mtu_bytes=mtu_bytes)
        self.max_weight = network.access_link_rate
        self.weight = self.max_weight
        self.path_price = 0.0
        self.path_length = 1
        self.window_bytes = params.initial_burst_packets * mtu_bytes

    def on_start(self) -> None:
        self.window_bytes = self.params.initial_burst_packets * self.mtu_bytes

    def prepare_packet(self, packet: Packet) -> None:
        packet.virtual_length = packet.size_bytes / max(self.weight, 1e-9)
        rate_estimate = self.rate_control.rate_estimate
        if rate_estimate is not None and self.path_length > 0:
            packet.normalized_residual = normalized_residual(
                self.utility, rate_estimate, self.path_price, self.path_length
            )

    def process_ack(self, ack: Packet) -> None:
        now = self.simulator.now
        self.path_price = ack.echo_path_price
        self.path_length = max(ack.echo_path_length, 1)
        if ack.echo_inter_packet_time > 0.0:
            self.rate_control.on_ack(now, ack.acked_bytes, ack.echo_inter_packet_time)
            self.window_bytes = self.rate_control.window_bytes()
        self.weight = compute_flow_weight(self.utility, self.path_price, self.max_weight)


class NumFabricReceiver(ReceiverBase):
    """Echoes the xWI feedback and the inter-packet time in ACKs.

    The reflection of ``pathPrice``/``pathLen``/``interPacketTime`` is
    already performed by :meth:`Packet.make_ack`; no extra fields needed.
    """


class NumFabricScheme(TransportScheme):
    """Scheme bundle: STFQ switches + price controllers + Swift/xWI hosts."""

    name = "NUMFabric"

    def __init__(
        self,
        params: Optional[NumFabricParameters] = None,
        buffer_bytes: float = 1_000_000,
        mtu_bytes: int = MTU_BYTES,
    ):
        self.params = params or NumFabricParameters()
        self.buffer_bytes = buffer_bytes
        self.mtu_bytes = mtu_bytes
        self.controllers = []

    def make_queue(self, link_rate: float) -> QueueDiscipline:
        return StfqQueue(capacity_bytes=self.buffer_bytes)

    def make_port_controller(self, network, port: OutputPort):
        controller = NumFabricPortController(network, port, self.params)
        self.controllers.append(controller)
        return controller

    def create_connection(self, network, flow: FlowDescriptor
                          ) -> Tuple[NumFabricSender, NumFabricReceiver]:
        sender = NumFabricSender(network, flow, self.params, mtu_bytes=self.mtu_bytes)
        receiver = NumFabricReceiver(network, flow)
        return sender, receiver
