"""Packets and the header fields used by the transports.

A single :class:`Packet` class carries the union of the header fields used
by NUMFabric (Sec. 5), DGD, RCP*, DCTCP and pFabric.  Real implementations
would use separate option formats; for simulation a flat structure keeps the
switch and host code simple, and each transport only reads and writes its
own fields.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

_packet_ids = itertools.count()

DATA_HEADER_BYTES = 40
ACK_SIZE_BYTES = 40


@dataclass(slots=True)
class Packet:
    """One simulated packet (data segment or ACK).

    ``slots=True`` matters here: packets are the single most-allocated
    object in the packet-level simulator, and slotted instances are both
    smaller and faster to create and access than ``__dict__``-backed ones.
    """

    flow_id: object
    source: object
    destination: object
    size_bytes: int
    sequence: int = 0
    is_ack: bool = False
    created_at: float = 0.0
    packet_id: int = field(default_factory=_packet_ids.__next__)

    # --- NUMFabric header fields (Sec. 5) ---------------------------------
    # virtualPacketLen = packet length / flow weight, used by STFQ.
    virtual_length: float = 0.0
    # pathPrice / pathLen accumulated by switches on the forward path.
    path_price: float = 0.0
    path_length: int = 0
    # normalizedResidual advertised by the sender (ignored for control pkts).
    normalized_residual: float = math.inf

    # --- fields echoed back to the sender in ACKs --------------------------
    echo_path_price: float = 0.0
    echo_path_length: int = 0
    echo_inter_packet_time: float = 0.0
    acked_bytes: int = 0
    ack_sequence: int = 0

    # --- RCP* --------------------------------------------------------------
    # Sum over links of R_l^{-alpha} (Eq. (16)); echoed like the path price.
    rcp_price_sum: float = 0.0
    echo_rcp_price_sum: float = 0.0

    # --- DCTCP / ECN --------------------------------------------------------
    ecn_capable: bool = False
    ecn_marked: bool = False
    ecn_echo: bool = False

    # --- pFabric -------------------------------------------------------------
    # Priority is the remaining flow size in bytes (lower = more urgent).
    priority: float = math.inf

    @property
    def is_data(self) -> bool:
        return not self.is_ack

    @property
    def is_control(self) -> bool:
        """Control packets (pure ACKs/SYNs) are exempt from xWI accounting."""
        return self.is_ack

    def make_ack(self, now: float, acked_bytes: int, inter_packet_time: float) -> "Packet":
        """Build the ACK a receiver sends in response to this data packet.

        The ACK reflects the accumulated path price, path length and the
        latest measured inter-packet time back to the sender (Sec. 5), and
        echoes the ECN mark for DCTCP.
        """
        return Packet(
            flow_id=self.flow_id,
            source=self.destination,
            destination=self.source,
            size_bytes=ACK_SIZE_BYTES,
            sequence=0,
            is_ack=True,
            created_at=now,
            echo_path_price=self.path_price,
            echo_path_length=self.path_length,
            echo_inter_packet_time=inter_packet_time,
            echo_rcp_price_sum=self.rcp_price_sum,
            acked_bytes=acked_bytes,
            ack_sequence=self.sequence,
            ecn_echo=self.ecn_marked,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "ACK" if self.is_ack else "DATA"
        return (
            f"Packet({kind} flow={self.flow_id} seq={self.sequence} "
            f"size={self.size_bytes} {self.source}->{self.destination})"
        )
