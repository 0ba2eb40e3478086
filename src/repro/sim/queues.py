"""Per-port queueing disciplines.

Four disciplines cover all schemes in the evaluation:

* :class:`DropTailQueue` -- plain FIFO with a byte limit (DGD, RCP*).
* :class:`StfqQueue` -- Start-Time Fair Queueing, the WFQ approximation the
  NUMFabric switch uses (Sec. 5); the per-packet ``virtual_length`` carried
  in the header is the packet length divided by the flow's weight.
* :class:`PfabricQueue` -- pFabric's priority queue: serve the lowest
  priority value (smallest remaining flow size), drop the highest when full.
* :class:`EcnQueue` -- FIFO with ECN marking above a threshold (DCTCP).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Tuple

from repro.sim.packet import Packet


class QueueDiscipline(ABC):
    """Interface of a per-output-port packet queue."""

    __slots__ = ("bytes_queued", "packets_dropped")

    def __init__(self):
        self.bytes_queued = 0
        self.packets_dropped = 0

    @abstractmethod
    def enqueue(self, packet: Packet, now: float) -> bool:
        """Add a packet; return ``False`` if it was dropped."""

    @abstractmethod
    def dequeue(self, now: float) -> Optional[Packet]:
        """Remove and return the next packet to transmit, or ``None`` if empty."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of queued packets."""

    @property
    def is_empty(self) -> bool:
        return len(self) == 0


class DropTailQueue(QueueDiscipline):
    """FIFO with a byte-based drop-tail limit."""

    __slots__ = ("capacity_bytes", "_queue")

    def __init__(self, capacity_bytes: float = 1_000_000):
        super().__init__()
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._queue: Deque[Packet] = deque()

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.bytes_queued + packet.size_bytes > self.capacity_bytes:
            self.packets_dropped += 1
            return False
        self._queue.append(packet)
        self.bytes_queued += packet.size_bytes
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self.bytes_queued -= packet.size_bytes
        return packet

    def __len__(self) -> int:
        return len(self._queue)


class EcnQueue(DropTailQueue):
    """Drop-tail FIFO that marks ECN-capable packets above a queue threshold.

    This is the standard DCTCP switch configuration: instantaneous marking
    when the queue occupancy exceeds K packets.
    """

    __slots__ = ("marking_threshold_bytes", "packets_marked")

    def __init__(self, capacity_bytes: float = 1_000_000, marking_threshold_packets: int = 65,
                 mtu_bytes: int = 1500):
        super().__init__(capacity_bytes)
        if marking_threshold_packets <= 0:
            raise ValueError("marking_threshold_packets must be positive")
        self.marking_threshold_bytes = marking_threshold_packets * mtu_bytes
        self.packets_marked = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        accepted = super().enqueue(packet, now)
        if accepted and packet.ecn_capable and self.bytes_queued > self.marking_threshold_bytes:
            packet.ecn_marked = True
            self.packets_marked += 1
        return accepted


class StfqQueue(QueueDiscipline):
    """Start-Time Fair Queueing with per-packet weights (NUMFabric's WFQ).

    Each arriving data packet is assigned a virtual start time
    ``S = max(V, F_prev(flow))`` and virtual finish time
    ``F = S + virtual_length`` where ``virtual_length = L / w`` is carried in
    the packet header (Eqs. (12)-(13)).  Packets are served in increasing
    order of virtual start time, and the switch's virtual time ``V`` is the
    start tag of the packet in service.

    Control packets (ACKs) carry a virtual length of zero, which gives them
    effectively highest priority -- matching the paper's treatment of control
    traffic.
    """

    __slots__ = ("capacity_bytes", "virtual_time", "_last_finish", "_heap", "_tiebreak")

    def __init__(self, capacity_bytes: float = 1_000_000):
        super().__init__()
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.virtual_time = 0.0
        self._last_finish: Dict[object, float] = {}
        self._heap: List[Tuple[float, int, Packet]] = []
        self._tiebreak = itertools.count()

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.bytes_queued + packet.size_bytes > self.capacity_bytes:
            self.packets_dropped += 1
            return False
        # Conditional expressions compute exactly what builtin max() would
        # (the first argument unless the second is greater), minus the call.
        virtual_time = self.virtual_time
        last_finish = self._last_finish.get(packet.flow_id, 0.0)
        start = last_finish if last_finish > virtual_time else virtual_time
        virtual_length = packet.virtual_length
        finish = start + (0.0 if 0.0 > virtual_length else virtual_length)
        self._last_finish[packet.flow_id] = finish
        heappush(self._heap, (start, next(self._tiebreak), packet))
        self.bytes_queued += packet.size_bytes
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._heap:
            return None
        start, _, packet = heappop(self._heap)
        if start > self.virtual_time:
            self.virtual_time = start
        self.bytes_queued -= packet.size_bytes
        return packet

    def forget_flow(self, flow_id: object) -> None:
        """Drop the per-flow finish-time state of a departed flow."""
        self._last_finish.pop(flow_id, None)

    def __len__(self) -> int:
        return len(self._heap)


class PfabricQueue(QueueDiscipline):
    """pFabric's priority queue: smallest remaining flow size first.

    On overflow the packet with the *largest* priority value (the least
    urgent) currently in the queue is dropped -- if the arriving packet is
    itself the least urgent, it is the one dropped.
    """

    __slots__ = ("capacity_packets", "_packets")

    def __init__(self, capacity_packets: int = 24):
        super().__init__()
        if capacity_packets <= 0:
            raise ValueError("capacity_packets must be positive")
        self.capacity_packets = capacity_packets
        self._packets: List[Packet] = []

    def enqueue(self, packet: Packet, now: float) -> bool:
        if len(self._packets) >= self.capacity_packets:
            worst_index = max(
                range(len(self._packets)), key=lambda i: self._packets[i].priority
            )
            if packet.priority >= self._packets[worst_index].priority:
                self.packets_dropped += 1
                return False
            evicted = self._packets.pop(worst_index)
            self.bytes_queued -= evicted.size_bytes
            self.packets_dropped += 1
        self._packets.append(packet)
        self.bytes_queued += packet.size_bytes
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._packets:
            return None
        best_index = min(range(len(self._packets)), key=lambda i: self._packets[i].priority)
        packet = self._packets.pop(best_index)
        self.bytes_queued -= packet.size_bytes
        return packet

    def __len__(self) -> int:
        return len(self._packets)
