"""Nodes: hosts (transport endpoints) and output-queued switches."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.packet import Packet
from repro.sim.port import OutputPort


class Node:
    """Base class for anything that can receive packets."""

    def __init__(self, name: str):
        self.name = name

    def receive(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class Host(Node):
    """An end host: one uplink port plus per-flow senders and receivers.

    Transport objects register themselves: the sender of flow ``f`` at the
    source host (to receive ACKs) and the receiver of flow ``f`` at the
    destination host (to receive data and emit ACKs).
    """

    def __init__(self, name: str, uplink: Optional[OutputPort] = None):
        super().__init__(name)
        self.uplink = uplink
        self.senders: Dict[object, object] = {}
        self.receivers: Dict[object, object] = {}
        self.packets_received = 0
        self.unroutable_packets = 0

    def attach_uplink(self, port: OutputPort) -> None:
        self.uplink = port

    def register_sender(self, flow_id: object, sender) -> None:
        self.senders[flow_id] = sender

    def register_receiver(self, flow_id: object, receiver) -> None:
        self.receivers[flow_id] = receiver

    def unregister_flow(self, flow_id: object) -> None:
        self.senders.pop(flow_id, None)
        self.receivers.pop(flow_id, None)

    def send(self, packet: Packet) -> bool:
        """Transmit a packet out of this host's uplink."""
        if self.uplink is None:
            raise RuntimeError(f"host {self.name} has no uplink")
        return self.uplink.send(packet)

    def receive(self, packet: Packet) -> None:
        self.packets_received += 1
        if packet.is_ack:
            endpoint = self.senders.get(packet.flow_id)
            if endpoint is not None:
                endpoint.on_ack(packet)
                return
        else:
            endpoint = self.receivers.get(packet.flow_id)
            if endpoint is not None:
                endpoint.on_data(packet)
                return
        self.unroutable_packets += 1


class Switch(Node):
    """An output-queued switch with ECMP routing.

    The routing table maps a destination host name to the list of candidate
    output ports; flows are hashed onto one of them (per-flow ECMP), so all
    packets of a flow take the same path and sub-flows with distinct flow
    ids can take different paths.
    """

    def __init__(self, name: str, hash_function: Optional[Callable[[object], int]] = None):
        super().__init__(name)
        self.ports: List[OutputPort] = []
        self.routes: Dict[object, List[OutputPort]] = {}
        self._hash = hash_function if hash_function is not None else lambda key: hash(key)
        self.packets_forwarded = 0
        self.unroutable_packets = 0

    def add_port(self, port: OutputPort) -> OutputPort:
        self.ports.append(port)
        return port

    def add_route(self, destination: object, ports: List[OutputPort]) -> None:
        if not ports:
            raise ValueError("a route needs at least one port")
        self.routes[destination] = list(ports)

    def receive(self, packet: Packet) -> None:
        """Forward a packet out of the port its route and flow hash pick."""
        candidates = self.routes.get(packet.destination)
        if not candidates:
            self.unroutable_packets += 1
            return
        if len(candidates) == 1:
            port = candidates[0]
        else:
            port = candidates[self._hash(packet.flow_id) % len(candidates)]
        self.packets_forwarded += 1
        port.send(packet)
