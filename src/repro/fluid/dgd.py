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

Two interchangeable backends drive the iteration:

* ``backend="scalar"`` (default) -- the reference implementation, plain
  Python over dicts;
* ``backend="vectorized"`` -- the rate computation (Eq. (3)) and the
  price/queue update (Eq. (14)) as NumPy array operations over the compiled
  incidence structure of :mod:`repro.fluid.vectorized`, recompiled only on
  flow churn.  Rates, prices and queues match the scalar backend to well
  within the 1e-9 enforced by ``tests/fluid/test_scheme_backend_parity.py``;
  see ``BENCH_fluid.json`` for the measured speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from repro.fluid.network import FluidNetwork, FlowId, LinkId
from repro.fluid.vectorized import (
    CompiledFluidNetwork,
    IterationRecord,
    VectorizedBackendMixin,
    dict_of,
    state_view,
)


@dataclass
class DgdFluidParameters:
    """Normalized DGD gains for the fluid engine."""

    utilization_gain: float = 0.2
    queue_gain: float = 0.1
    update_interval: float = 16e-6
    rtt: float = 16e-6
    max_outstanding_bdp: float = 2.0


class DgdIterationRecord(IterationRecord):
    """Snapshot of one DGD interval: ``rates`` plus, when the simulator
    records detail, the per-link ``prices`` and ``queues`` (else empty)."""

    price_vec: Optional[np.ndarray] = None
    queue_vec: Optional[np.ndarray] = None

    @cached_property
    def prices(self) -> Dict[LinkId, float]:
        return dict_of(self.link_ids, self.price_vec)

    @cached_property
    def queues(self) -> Dict[LinkId, float]:
        return dict_of(self.link_ids, self.queue_vec)


class DgdFluidSimulator(VectorizedBackendMixin):
    """Iterates the DGD price/rate dynamics on a :class:`FluidNetwork`."""

    #: Per-link state: live, writable dicts on either backend.  The
    #: vectorized one keeps vectors and brings a dict up to date when the
    #: attribute is read, so read it after a step rather than keeping it.
    prices = state_view()
    queues = state_view()

    def __init__(
        self,
        network: FluidNetwork,
        params: Optional[DgdFluidParameters] = None,
        initial_price: float = 1e-3,
        backend: str = "scalar",
        record_detail: bool = True,
    ):
        self.network = network
        self.params = params or DgdFluidParameters()
        self.backend = self._check_backend(backend, "DGD")
        #: When false, records carry only the rates (see xWI's twin flag).
        self.record_detail = record_detail
        self.prices = {link: initial_price for link in network.links}
        self.queues = {link: 0.0 for link in network.links}
        self.iteration = 0
        self.history: List[DgdIterationRecord] = []
        self._compiled: Optional[CompiledFluidNetwork] = None

    def _flow_rates(self) -> Dict[FlowId, float]:
        prices = self.prices
        rates: Dict[FlowId, float] = {}
        for flow in self.network.flows:
            price = sum(prices.get(link, 0.0) for link in flow.path)
            cap = self.network.path_capacity(flow.flow_id)
            limit = self.params.max_outstanding_bdp * cap
            if price <= 0.0:
                rate = limit
            else:
                rate = min(flow.utility.inverse_marginal(price), limit)
            rates[flow.flow_id] = max(rate, 0.0)
        return rates

    def _step_vectorized(self) -> DgdIterationRecord:
        """One DGD interval as array operations over the compiled network."""
        compiled = self._ensure_compiled()
        capacities = compiled.capacities_vector()
        prices = self._link_vector(self._prices)

        # Host side, Eq. (3): each flow inverts its marginal utility at the
        # path price, capped at ``max_outstanding_bdp`` path capacities --
        # ``inverse_marginal_clipped`` applies exactly the scalar branch
        # (non-positive price -> the window limit).  Flows whose utility is
        # batched per family run as array math; group members (excluded from
        # the batch, DGD ignores grouping) fall back to their own utility.
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

        # Link side, Eq. (14): integrate the backlog and move every price
        # from its local mismatch, all links at once.
        dt = self.params.update_interval
        # A failed (zero-capacity) link carries no traffic -- flows crossing
        # it are window-limited to zero path capacity -- so its mismatch is
        # defined as zero instead of 0/0 (same guard as the scalar branch).
        live = capacities > 0.0
        excess = np.zeros_like(capacities)
        np.divide(compiled.link_load(rate_vec) - capacities, capacities,
                  out=excess, where=live)
        queues = np.maximum(self._link_vector(self._queues) + excess * dt, 0.0)
        queue_in_bdp = queues / self.params.rtt
        price_scale = np.maximum(prices, 1e-12)
        delta = self.params.utilization_gain * excess + self.params.queue_gain * queue_in_bdp
        new_prices = np.maximum(prices + delta * price_scale, 1e-15)
        self._queues.store(compiled.link_ids, queues)
        self._prices.store(compiled.link_ids, new_prices)

        detail = self.record_detail
        record = DgdIterationRecord(
            self.iteration,
            compiled.flow_id_snapshot(),
            compiled.link_ids,
            rate_vec=rate_vec,
            price_vec=new_prices if detail else None,
            queue_vec=queues if detail else None,
        )
        self.iteration += 1
        return record

    def step(self) -> DgdIterationRecord:
        """One price-update interval of DGD."""
        if self.backend == "vectorized":
            return self._step_vectorized()
        capacities = self.network.capacities
        rates = self._flow_rates()
        load = self.network.link_load(rates)
        dt = self.params.update_interval
        prices, queues = self.prices, self.queues
        for link, capacity in capacities.items():
            # Queue backlog (in "capacity-seconds", i.e. normalized bytes):
            # integrates the over-subscription, drains when under-subscribed.
            # A failed (zero-capacity) link carries no traffic, so its
            # mismatch is zero by definition rather than 0/0.
            excess = (load[link] - capacity) / capacity if capacity > 0.0 else 0.0
            queues[link] = max(queues[link] + excess * dt, 0.0)
            queue_in_bdp = queues[link] / self.params.rtt
            # Scale the additive update by the typical price magnitude so the
            # normalized gains behave consistently across utility functions.
            price_scale = max(prices[link], 1e-12)
            delta = (
                self.params.utilization_gain * excess
                + self.params.queue_gain * queue_in_bdp
            )
            prices[link] = max(prices[link] + delta * price_scale, 1e-15)

        record = DgdIterationRecord(
            self.iteration,
            rates=dict(rates),
            prices=dict(prices) if self.record_detail else {},
            queues=dict(queues) if self.record_detail else {},
        )
        self.iteration += 1
        return record

    def run(self, iterations: int, record_history: bool = True) -> List[DgdIterationRecord]:
        """Run ``iterations`` steps; return (and optionally store) the records.

        ``record_history=False`` skips the history append -- use it for
        long dynamic runs (or benchmarks) where nothing reads the records,
        so memory stays O(1) in the number of iterations.  Direct ``step()``
        calls never touch the history (same contract as xWI).
        """
        records = [self.step() for _ in range(iterations)]
        if record_history:
            self.history.extend(records)
        return records

    @property
    def seconds_per_iteration(self) -> float:
        return self.params.update_interval
