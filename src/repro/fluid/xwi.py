"""Fluid (iteration-level) model of NUMFabric: xWI on top of weighted max-min.

One iteration corresponds to one price-update interval of the real system
(about two RTTs): hosts recompute weights from the latest path prices
(Eq. (7)), Swift settles to the weighted max-min allocation for those
weights, and every switch applies the price update of Eqs. (9)-(11).

Because the allocation between price updates is always the weighted
max-min, no link is ever oversubscribed and the utilization term only acts
on genuinely under-utilized links -- the decoupling that lets NUMFabric move
aggressively toward the optimum.

The constructor's ``backend=`` picks between two implementations of the
same iteration:

* ``backend="vectorized"`` -- the production path: NumPy array math over
  compiled per-flow link indices (:mod:`repro.fluid.vectorized`), patched in
  place when flows arrive or depart.  Prices are kept as a vector and each
  step returns an array-backed record; ``simulator.prices`` and
  ``record.rates`` / ``.prices`` / ``.weights`` are dict views built when
  read (see :class:`~repro.fluid.vectorized.ArrayState`).  Every scenario,
  experiment harness and rate policy constructs this one unconditionally
  (~15x faster at 1000 flows, ~5x at 200; see ``benchmarks/perf`` and
  ``BENCH_fluid.json``).
* ``backend="scalar"`` (the constructor default) -- the reference
  implementation below, plain Python over dicts, which
  ``tests/fluid/test_vectorized_parity.py`` pins the array path to within
  1e-9.  Nothing above the constructor selects it.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import NumFabricParameters
from repro.core.xwi import fluid_price_update
from repro.fluid.maxmin import weighted_max_min
from repro.fluid.network import FluidNetwork, FlowId, LinkId
from repro.fluid.vectorized import (
    CompiledFluidNetwork,
    IterationRecord,
    VectorizedBackendMixin,
    dict_of,
    price_update_arrays,
    resolve_kernel,
    state_view,
    waterfill_arrays,
)

# Floor applied to every flow weight by both backends; keeping a single
# constant is part of the scalar/vectorized 1e-9 parity contract.
_WEIGHT_FLOOR = 1e-12


class XwiIterationRecord(IterationRecord):
    """Snapshot of one xWI iteration: ``rates``, ``prices``, ``weights``.

    ``prices`` and ``weights`` are empty unless the simulator records
    detail (``record_detail=True``).
    """

    price_vec: Optional[np.ndarray] = None
    weight_vec: Optional[np.ndarray] = None

    @cached_property
    def prices(self) -> Dict[LinkId, float]:
        return dict_of(self.link_ids, self.price_vec)

    @cached_property
    def weights(self) -> Dict[FlowId, float]:
        return dict_of(self.flow_ids, self.weight_vec)


class XwiFluidSimulator(VectorizedBackendMixin):
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

    #: Per-link prices: one live, writable dict on either backend.  The
    #: vectorized one keeps a vector and brings the dict up to date when the
    #: attribute is read, so read it after a step rather than keeping it.
    prices = state_view()

    def __init__(
        self,
        network: FluidNetwork,
        params: Optional[NumFabricParameters] = None,
        initial_price: float = 0.0,
        backend: str = "scalar",
        record_detail: bool = True,
        kernel: Optional[str] = None,
    ):
        self.network = network
        self.params = params or NumFabricParameters()
        self.backend = self._check_backend(backend, "xWI")
        #: Waterfill kernel for the vectorized backend ("numpy"/"numba");
        #: resolved once at construction (honoring ``REPRO_KERNEL``), so the
        #: per-step dispatch is a string compare and the fallback warning
        #: fires at most once per simulator.
        self.kernel = resolve_kernel(kernel)
        #: When false, per-step records carry only the rates (prices and
        #: weights are left empty) -- the policy-driven dynamic experiments
        #: read nothing else.  On the vectorized backend the detail vectors
        #: are the step's own arrays, so this saves history memory, not time.
        self.record_detail = record_detail
        self.prices = {link: initial_price for link in network.links}
        self.iteration = 0
        self.history: List[XwiIterationRecord] = []
        self._compiled: Optional[CompiledFluidNetwork] = None
        self._last_record: Optional[XwiIterationRecord] = None

    @property
    def last_rates(self) -> Dict[FlowId, float]:
        """Rates of the most recent non-empty iteration (``{}`` before it)."""
        return self._last_record.rates if self._last_record is not None else {}

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _path_price(prices: Dict[LinkId, float], path) -> float:
        return sum(prices.get(link, 0.0) for link in path)

    def _subflow_fraction(self, group, flow_id: FlowId) -> float:
        """Fraction of the group's aggregate rate carried by this sub-flow."""
        members = [m for m in group.member_ids if m in self.network.flow_ids]
        if not members:
            return 1.0
        aggregate = sum(self.last_rates.get(m, 0.0) for m in members)
        if aggregate <= 0.0:
            return 1.0 / len(members)
        return max(self.last_rates.get(flow_id, 0.0) / aggregate, 1.0 / (10.0 * len(members)))

    def _group_weight(self, group, flow_id: FlowId, price: float, cap: float) -> float:
        """Sec. 6.3 heuristic, shared verbatim by both backends: the group
        utility's aggregate weight (clipped to the members' combined path
        capacity) scaled by this sub-flow's previous-iteration rate share."""
        aggregate_weight = group.utility.inverse_marginal_clipped(
            price, cap * len(group.member_ids) if group.member_ids else cap
        )
        return aggregate_weight * self._subflow_fraction(group, flow_id)

    def _compute_weights(self) -> Dict[FlowId, float]:
        weights: Dict[FlowId, float] = {}
        prices = self.prices
        for flow in self.network.flows:
            price = self._path_price(prices, flow.path)
            cap = self.network.path_capacity(flow.flow_id)
            if flow.group_id is not None:
                group = self.network.group(flow.group_id)
                weight = self._group_weight(group, flow.flow_id, price, cap)
            else:
                weight = flow.utility.inverse_marginal_clipped(price, cap)
            weights[flow.flow_id] = max(weight, _WEIGHT_FLOOR)
        return weights

    def _marginal_utility(self, flow, rates: Dict[FlowId, float]) -> float:
        """Marginal utility of one more bit/s on this (sub-)flow."""
        if flow.group_id is not None:
            group = self.network.group(flow.group_id)
            aggregate = sum(
                rates.get(m, 0.0) for m in group.member_ids if m in self.network.flow_ids
            )
            return group.utility.marginal(aggregate)
        return flow.utility.marginal(rates.get(flow.flow_id, 0.0))

    def _step_vectorized(self) -> XwiIterationRecord:
        """One xWI iteration as array operations over the compiled network."""
        compiled = self._ensure_compiled()
        capacities = compiled.capacities_vector()
        prices = self._link_vector(self._prices)

        # Host side, Eq. (7): weights from path prices, clipped to the
        # narrowest-link capacity.  Multipath group members take the group
        # utility's weight scaled by their previous-iteration rate share
        # (Sec. 6.3 heuristic), exactly as in the scalar backend.
        path_prices = compiled.path_prices(prices)
        path_caps = compiled.path_capacities()
        weight_vec = compiled.vec_utils.inverse_marginal_clipped(path_prices, path_caps)
        for j, flow in compiled.grouped:
            group = self.network.group(flow.group_id)
            weight_vec[j] = self._group_weight(
                group, flow.flow_id, float(path_prices[j]), float(path_caps[j])
            )
        np.maximum(weight_vec, _WEIGHT_FLOOR, out=weight_vec)

        # Swift settles to the weighted max-min allocation for those weights.
        rate_vec = waterfill_arrays(
            None,
            None,
            weight_vec,
            capacities,
            kernel=self.kernel,
            csr=compiled.csr_arrays() if self.kernel == "numba" else None,
            path_links=compiled.path_links,
        )

        # Switch side, Eqs. (9)-(11): minimum normalized residual and
        # utilization per link, then the price update, all vectorized.
        marginals = compiled.vec_utils.marginal(rate_vec)
        if compiled.grouped:  # a group's marginal is keyed by member id
            rates = dict_of(compiled.flow_ids, rate_vec)
            for j, flow in compiled.grouped:
                marginals[j] = self._marginal_utility(flow, rates)
        residuals = marginals  # (U' - path price) / hops, in place
        residuals -= path_prices
        residuals /= compiled.path_len
        min_residuals = compiled.link_min(residuals)
        # Same guard as the scalar branch: a failed (zero-capacity) link is
        # reported as idle rather than producing a 0/0 NaN in the update.
        utilizations = np.zeros(capacities.shape)
        np.divide(compiled.link_load(rate_vec), capacities, out=utilizations,
                  where=capacities > 0.0)
        np.minimum(utilizations, 1.0, out=utilizations)
        new_prices = price_update_arrays(prices, min_residuals, utilizations, self.params)
        self._prices.store(compiled.link_ids, new_prices)

        detail = self.record_detail
        record = self._last_record = XwiIterationRecord(
            self.iteration,
            compiled.flow_id_snapshot(),
            compiled.link_ids,
            rate_vec=rate_vec,
            price_vec=new_prices if detail else None,
            weight_vec=weight_vec if detail else None,
        )
        self.iteration += 1
        return record

    # -- public API ---------------------------------------------------------

    def step(self) -> XwiIterationRecord:
        """Run one xWI iteration and return its snapshot."""
        flows = self.network.flows
        if not flows:
            record = XwiIterationRecord(
                self.iteration, rates={}, prices=dict(self.prices), weights={}
            )
            self.iteration += 1
            return record
        if self.backend == "vectorized":
            return self._step_vectorized()
        capacities = self.network.capacities

        weights = self._compute_weights()
        paths = {flow.flow_id: flow.path for flow in flows}
        rates = weighted_max_min(weights, paths, capacities)

        # Per-link price update.
        prices = self.prices
        load: Dict[LinkId, float] = {link: 0.0 for link in capacities}
        min_residual: Dict[LinkId, float] = {link: math.inf for link in capacities}
        for flow in flows:
            rate = rates[flow.flow_id]
            price = self._path_price(prices, flow.path)
            residual = (self._marginal_utility(flow, rates) - price) / len(flow.path)
            for link in flow.path:
                load[link] += rate
                if residual < min_residual[link]:
                    min_residual[link] = residual

        for link, capacity in capacities.items():
            utilization = min(load[link] / capacity, 1.0) if capacity > 0 else 0.0
            prices[link] = fluid_price_update(
                prices[link], min_residual[link], utilization, self.params
            )

        record = self._last_record = XwiIterationRecord(
            self.iteration,
            rates=dict(rates),
            prices=dict(prices) if self.record_detail else {},
            weights=weights if self.record_detail else {},
        )
        self.iteration += 1
        return record

    def run(self, iterations: int, record_history: bool = True) -> List[XwiIterationRecord]:
        """Run ``iterations`` steps; return (and optionally store) the records."""
        records = []
        for _ in range(iterations):
            record = self.step()
            records.append(record)
        if record_history:
            self.history.extend(records)
        return records

    @property
    def seconds_per_iteration(self) -> float:
        """Wall-clock duration of one iteration (the price-update interval)."""
        return self.params.price_update_interval
