"""Fluid (iteration-level) model of NUMFabric: xWI on top of weighted max-min.

One iteration corresponds to one price-update interval of the real system
(about two RTTs): hosts recompute weights from the latest path prices
(Eq. (7)), Swift settles to the weighted max-min allocation for those
weights, and every switch applies the price update of Eqs. (9)-(11).

Because the allocation between price updates is always the weighted
max-min, no link is ever oversubscribed and the utilization term only acts
on genuinely under-utilized links -- the decoupling that lets NUMFabric move
aggressively toward the optimum.

The step is NumPy array math over the compiled per-flow link indices of
:mod:`repro.fluid.vectorized`, patched in place when flows arrive or
depart.  Prices are kept as a vector; ``simulator.prices`` and
``record.rates`` / ``.prices`` / ``.weights`` are dict views built when read
(see :class:`~repro.fluid.vectorized.ArrayState`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.config import NumFabricParameters
from repro.fluid.network import FluidNetwork, FlowId
from repro.fluid.vectorized import (
    FluidStepper,
    IterationRecord,
    dict_of,
    price_update_arrays,
    state_view,
    waterfill_arrays,
)

#: Floor applied to every flow weight (Eq. (7) never hands Swift a zero).
_WEIGHT_FLOOR = 1e-12


class XwiFluidSimulator(FluidStepper):
    """Iterates the xWI dynamical system on a :class:`FluidNetwork`.

    The simulator keeps per-link prices across calls, so flow arrivals and
    departures (mutations of the network between ``step`` calls) are handled
    naturally: the next iteration starts from the current prices, exactly as
    the real system would.

    Multipath groups (resource pooling) are supported with the paper's
    heuristic (Sec. 6.3): each sub-flow computes the aggregate weight from
    its own path price and scales it by the fraction of the aggregate
    throughput it carried in the previous iteration.
    """

    Parameters = NumFabricParameters
    interval = "price_update_interval"

    #: Per-link prices: one live, writable dict, kept as a vector and brought
    #: up to date when the attribute is read -- read it after a step rather
    #: than keeping it.
    prices = state_view()

    def __init__(
        self,
        network: FluidNetwork,
        params: Optional[NumFabricParameters] = None,
        initial_price: float = 0.0,
    ):
        super().__init__(network, params)
        self.prices = {link: initial_price for link in network.links}
        self._last_record: Optional[IterationRecord] = None

    @property
    def last_rates(self) -> Dict[FlowId, float]:
        """Rates of the most recent non-empty iteration (``{}`` before it)."""
        return self._last_record.rates if self._last_record is not None else {}

    def _group_weight(self, flow, price: float, cap: float) -> float:
        """Sec. 6.3 heuristic: the group utility's aggregate weight (clipped
        to the members' combined path capacity) scaled by this sub-flow's
        share of the group's previous-iteration rate."""
        group = self.network.group(flow.group_id)
        members = group.member_ids
        aggregate_weight = group.utility.inverse_marginal_clipped(
            price, cap * len(members) if members else cap
        )
        present = [m for m in members if m in self.network.flow_ids]
        if not present:
            return aggregate_weight
        last = self.last_rates
        aggregate = sum(last.get(m, 0.0) for m in present)
        if aggregate <= 0.0:
            return aggregate_weight * (1.0 / len(present))
        share = max(last.get(flow.flow_id, 0.0) / aggregate, 1.0 / (10.0 * len(present)))
        return aggregate_weight * share

    def _idle_record(self) -> IterationRecord:
        """A flowless iteration: no rates, and the prices stay where they are."""
        record = IterationRecord(self.iteration, rates={}, prices=dict(self.prices), weights={})
        self.iteration += 1
        return record

    def step(self) -> IterationRecord:
        """Run one xWI iteration and return its snapshot."""
        if not self.network.flows:
            return self._idle_record()
        compiled = self._ensure_compiled()
        capacities = compiled.capacities_vector()
        prices = self._link_vector(self._prices)

        # Host side, Eq. (7): weights from path prices, clipped to the
        # narrowest-link capacity.  Multipath group members take the group
        # utility's weight scaled by their previous-iteration rate share
        # (Sec. 6.3 heuristic).
        path_prices = compiled.path_prices(prices)
        path_caps = compiled.path_capacities()
        weight_vec = compiled.vec_utils.inverse_marginal_clipped(path_prices, path_caps)
        for j, flow in compiled.grouped:
            weight_vec[j] = self._group_weight(flow, float(path_prices[j]), float(path_caps[j]))
        np.maximum(weight_vec, _WEIGHT_FLOOR, out=weight_vec)

        # Swift settles to the weighted max-min allocation for those weights.
        rate_vec = waterfill_arrays(compiled.path_links, weight_vec, capacities)

        # Switch side, Eqs. (9)-(11): minimum normalized residual and
        # utilization per link, then the price update, all vectorized.
        marginals = compiled.vec_utils.marginal(rate_vec)
        if compiled.grouped:  # a group's marginal is at its aggregate rate
            rates = dict_of(compiled.flow_ids, rate_vec)
            flow_ids = self.network.flow_ids
            for j, flow in compiled.grouped:
                group = self.network.group(flow.group_id)
                aggregate = sum(rates.get(m, 0.0) for m in group.member_ids if m in flow_ids)
                marginals[j] = group.utility.marginal(aggregate)
        residuals = marginals  # (U' - path price) / hops, in place
        residuals -= path_prices
        residuals /= compiled.path_len
        min_residuals = compiled.link_min(residuals)
        # A failed (zero-capacity) link is reported as idle rather than
        # producing a 0/0 NaN in the update.
        utilizations = np.zeros(capacities.shape)
        np.divide(compiled.link_load(rate_vec), capacities, out=utilizations,
                  where=capacities > 0.0)
        np.minimum(utilizations, 1.0, out=utilizations)
        new_prices = price_update_arrays(prices, min_residuals, utilizations, self.params)
        self._prices.store(compiled.link_ids, new_prices)

        record = self._last_record = self._record(
            compiled.flow_id_snapshot(),
            rate_vec=rate_vec,
            price_vec=new_prices,
            weight_vec=weight_vec,
        )
        return record
