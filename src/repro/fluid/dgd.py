"""Fluid model of the Dual Gradient Descent (DGD) baseline (Sec. 3, Eq. (14)).

Sources set their rate directly from the sum of link prices on their path
(Eq. (3)); each link adjusts its price from the local rate-capacity mismatch
and queue backlog (Eq. (14)).  Because the rates are applied open-loop, the
network can be transiently over- or under-subscribed; the queue term models
the backlog this creates and its effect on the price.

The gains are expressed in normalized form (per unit of relative
over-subscription and per BDP of queueing) so the same defaults work across
link speeds; Table 2's absolute values correspond to this normalized form at
10 Gbps.  As in the paper, flows are window-limited to ``max_outstanding_bdp``
bandwidth-delay products, which in fluid form caps the sending rate at that
multiple of the path capacity.

Both rules run as NumPy array operations over the compiled incidence
structure of :mod:`repro.fluid.vectorized`, patched only on flow churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.fluid.network import FluidNetwork
from repro.fluid.vectorized import FluidStepper, IterationRecord, state_view


@dataclass
class DgdFluidParameters:
    """Normalized DGD gains for the fluid engine."""

    utilization_gain: float = 0.2
    queue_gain: float = 0.1
    update_interval: float = 16e-6
    rtt: float = 16e-6
    max_outstanding_bdp: float = 2.0


class DgdFluidSimulator(FluidStepper):
    """Iterates the DGD price/rate dynamics on a :class:`FluidNetwork`.

    Records carry ``rates``, ``prices`` and ``queues``.
    """

    Parameters = DgdFluidParameters
    interval = "update_interval"

    #: Per-link state: live, writable dicts, kept as vectors and brought up
    #: to date when the attribute is read -- read it after a step rather
    #: than keeping it.
    prices = state_view()
    queues = state_view()

    def __init__(
        self,
        network: FluidNetwork,
        params: Optional[DgdFluidParameters] = None,
        initial_price: float = 1e-3,
    ):
        super().__init__(network, params)
        self.prices = {link: initial_price for link in network.links}
        self.queues = {link: 0.0 for link in network.links}

    def step(self) -> IterationRecord:
        """One price-update interval of DGD."""
        compiled = self._ensure_compiled()
        capacities = compiled.capacities_vector()
        prices = self._link_vector(self._prices)

        # Host side, Eq. (3): each flow inverts its marginal utility at the
        # path price, capped at ``max_outstanding_bdp`` path capacities (a
        # non-positive price sends at the window limit).  Flows whose utility
        # is a power law run as array math; group members (excluded from the
        # batch, DGD ignores grouping) use their own utility.
        path_prices = compiled.path_prices(prices)
        limits = self.params.max_outstanding_bdp * compiled.path_capacities()
        rate_vec = compiled.vec_utils.inverse_marginal_clipped(path_prices, limits)
        for j, flow in compiled.grouped:
            price, limit = float(path_prices[j]), float(limits[j])
            if price <= 0.0:
                rate_vec[j] = limit
            else:
                rate_vec[j] = min(flow.utility.inverse_marginal(price), limit)
        np.maximum(rate_vec, 0.0, out=rate_vec)

        # Link side, Eq. (14): integrate the backlog (in capacity-seconds)
        # and move every price from its local mismatch, all links at once.
        dt = self.params.update_interval
        # A failed (zero-capacity) link carries no traffic -- flows crossing
        # it are window-limited to zero path capacity -- so its mismatch is
        # defined as zero instead of 0/0.
        live = capacities > 0.0
        excess = np.zeros_like(capacities)
        np.divide(compiled.link_load(rate_vec) - capacities, capacities,
                  out=excess, where=live)
        queues = np.maximum(self._link_vector(self._queues) + excess * dt, 0.0)
        queue_in_bdp = queues / self.params.rtt
        # The additive update scales with the price itself, so the
        # normalized gains behave alike across utility functions.
        price_scale = np.maximum(prices, 1e-12)
        delta = self.params.utilization_gain * excess + self.params.queue_gain * queue_in_bdp
        new_prices = np.maximum(prices + delta * price_scale, 1e-15)
        self._queues.store(compiled.link_ids, queues)
        self._prices.store(compiled.link_ids, new_prices)

        return self._record(
            compiled.flow_id_snapshot(), rate_vec=rate_vec, price_vec=new_prices, queue_vec=queues
        )
