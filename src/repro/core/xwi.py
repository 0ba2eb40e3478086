"""The xWI (eXplicit Weight Inference) update rules (Sec. 4.2 and Fig. 3).

xWI iteratively solves the KKT system of the NUM problem on top of a
weighted max-min transport (Swift):

* **hosts** set their flow weight from the sum of link prices on the path
  (Eq. (7)) and advertise a *normalized residual*
  ``(U'(x) - path_price) / path_len`` in packet headers;
* **switches** track the minimum normalized residual seen on each link over
  a price-update interval and update the link price with Eqs. (9)-(11).

These rules are shared verbatim by the fluid engine
(:mod:`repro.fluid.xwi`) and the packet-level implementation
(:mod:`repro.transports.numfabric`), so any fix or tuning applies to both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.config import NumFabricParameters
from repro.core.utility import Utility


def compute_flow_weight(utility: Utility, path_price: float, max_weight: float) -> float:
    """Eq. (7): ``w_i = U'^{-1}(sum of link prices)``, clipped to ``max_weight``.

    The clip corresponds to the physical fact that a flow can never be
    allocated more than its narrowest link's capacity, so assigning a larger
    weight only injects noise while prices have not converged.
    """
    return utility.inverse_marginal_clipped(path_price, max_weight)


def normalized_residual(
    utility: Utility, rate: float, path_price: float, path_length: int
) -> float:
    """Per-flow residual of the KKT stationarity condition, divided by path length.

    ``U'(x_i) - sum of link prices``, the amount by which the flow's marginal
    utility over- or under-shoots the price it pays, split evenly across the
    links of its path (Eq. (9)'s ``/|L(i)|`` factor).
    """
    if path_length <= 0:
        raise ValueError("path_length must be positive")
    return (utility.marginal(rate) - path_price) / path_length


@dataclass
class XwiLinkState:
    """Per-link price computation state (the switch side of Fig. 3).

    The switch calls :meth:`on_enqueue` for every data packet (to record the
    minimum normalized residual), :meth:`on_dequeue` for every departing
    packet (to accumulate serviced bytes and stamp the price into the
    header), and :meth:`update_price` on every price-update timeout.
    """

    capacity: float
    params: NumFabricParameters = field(default_factory=NumFabricParameters)
    price: float = 0.0
    min_residual: float = math.inf
    bytes_serviced: float = 0.0

    def on_enqueue(self, packet_normalized_residual: float) -> None:
        """Record the smallest normalized residual of any flow using the link."""
        if packet_normalized_residual < self.min_residual:
            self.min_residual = packet_normalized_residual

    def on_dequeue(self, packet_length_bytes: float) -> float:
        """Account for a departing packet; return the price to add to its header."""
        self.bytes_serviced += packet_length_bytes
        return self.price

    def utilization(self, interval: float) -> float:
        """Link utilization over the last ``interval`` seconds."""
        if interval <= 0 or self.capacity <= 0:
            return 0.0
        return min(8.0 * self.bytes_serviced / (interval * self.capacity), 1.0)

    def update_price(self, interval: float) -> float:
        """Apply the Fig. 3 price update and reset the per-interval state.

        ``p_res = p + min_residual`` pushes the smallest KKT residual to zero
        (Eq. (9)); the ``eta * (1 - utilization) * p`` term drives the price
        of under-utilized links to zero (Eq. (10)); and the final price is an
        average of the old and new values (Eq. (11)).
        """
        utilization = self.utilization(interval)
        residual = self.min_residual if math.isfinite(self.min_residual) else 0.0
        new_price = max(
            self.price + residual - self.params.eta * (1.0 - utilization) * self.price, 0.0
        )
        self.price = self.params.beta * self.price + (1.0 - self.params.beta) * new_price
        self.bytes_serviced = 0.0
        self.min_residual = math.inf
        return self.price

