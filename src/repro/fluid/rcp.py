"""Fluid model of RCP* -- RCP generalized for alpha-fairness (Sec. 6, Eq. (15)).

Every link advertises a fair-share rate ``R_l`` that it adapts from its
spare capacity and queue backlog.  A flow crossing links ``L(i)`` sends at
``(sum_l R_l^{-alpha})^{-1/alpha}`` (Eq. (16)), which reduces to
``min_l R_l`` as ``alpha -> inf`` (classic max-min RCP) and to the
alpha-fair allocation at the fixed point.

Two interchangeable backends drive the iteration:

* ``backend="scalar"`` (default) -- the reference implementation, plain
  Python over dicts;
* ``backend="vectorized"`` -- the Eq. (16) rate combination and the
  fair-rate/queue update as NumPy array operations over the compiled
  ``path_links`` of :mod:`repro.fluid.vectorized` (the power sums are
  gather + add over each flow's hops; RCP* needs no utility batching: its
  dynamics read only paths and capacities).  Rates,
  fair rates and queues match the scalar backend to well within the 1e-9
  enforced by ``tests/fluid/test_scheme_backend_parity.py``; see
  ``BENCH_fluid.json`` for the measured speedup.
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
class RcpStarFluidParameters:
    """RCP* gains (Table 2, second row) in normalized fluid form."""

    gain_a: float = 0.4
    gain_b: float = 0.2
    alpha: float = 1.0
    update_interval: float = 16e-6
    rtt: float = 16e-6
    max_outstanding_bdp: float = 2.0


class RcpIterationRecord(IterationRecord):
    """Snapshot of one RCP* interval: ``rates`` plus, when the simulator
    records detail, the per-link ``fair_rates`` and ``queues`` (else empty)."""

    fair_rate_vec: Optional[np.ndarray] = None
    queue_vec: Optional[np.ndarray] = None

    @cached_property
    def fair_rates(self) -> Dict[LinkId, float]:
        return dict_of(self.link_ids, self.fair_rate_vec)

    @cached_property
    def queues(self) -> Dict[LinkId, float]:
        return dict_of(self.link_ids, self.queue_vec)


class RcpStarFluidSimulator(VectorizedBackendMixin):
    """Iterates the RCP* fair-rate dynamics on a :class:`FluidNetwork`."""

    #: Per-link state: live, writable dicts on either backend.  The
    #: vectorized one keeps vectors and brings a dict up to date when the
    #: attribute is read, so read it after a step rather than keeping it.
    fair_rates = state_view()
    queues = state_view()

    def __init__(
        self,
        network: FluidNetwork,
        params: Optional[RcpStarFluidParameters] = None,
        initial_fraction: float = 0.1,
        backend: str = "scalar",
        record_detail: bool = True,
    ):
        self.network = network
        self.params = params or RcpStarFluidParameters()
        self.backend = self._check_backend(backend, "RCP*")
        #: When false, records carry only the rates (see xWI's twin flag).
        self.record_detail = record_detail
        self.fair_rates = {
            link: network.capacity(link) * initial_fraction for link in network.links
        }
        self.queues = {link: 0.0 for link in network.links}
        self.iteration = 0
        self.history: List[RcpIterationRecord] = []
        self._compiled: Optional[CompiledFluidNetwork] = None

    def _flow_rates(self) -> Dict[FlowId, float]:
        alpha = self.params.alpha
        fair_rates = self.fair_rates
        rates: Dict[FlowId, float] = {}
        for flow in self.network.flows:
            # A failed link advertises a zero fair share; its ``R^-alpha``
            # term is infinite, so Eq. (16) combines to a zero rate (the
            # literal power would raise ZeroDivisionError).
            total = 0.0
            for link in flow.path:
                fair = fair_rates[link]
                total = float("inf") if fair <= 0.0 else total + fair ** (-alpha)
            rate = (
                total ** (-1.0 / alpha) if total > 0 else self.network.path_capacity(flow.flow_id)
            )
            limit = self.params.max_outstanding_bdp * self.network.path_capacity(flow.flow_id)
            rates[flow.flow_id] = min(rate, limit)
        return rates

    def _step_vectorized(self) -> RcpIterationRecord:
        """One RCP* interval as array operations over the compiled network."""
        compiled = self._ensure_compiled()
        capacities = compiled.capacities_vector()
        fair_rates = self._link_vector(self._fair_rates)
        params = self.params

        # Host side, Eq. (16): combine the per-link fair rates along each
        # path.  Fair rates are clamped to [capacity * 1e-6, capacity], so
        # the power sums stay finite and positive on every non-empty path
        # (the scalar total > 0 branch can only be false for zero flows).
        path_caps = compiled.path_capacities()
        # Failed links advertise a zero fair share: exclude them from the
        # power sum (0 ** -alpha would inject inf into the path sums) and
        # zero out the flows that cross them -- exactly the scalar branch's
        # inf-total behavior.
        live_fair = fair_rates > 0.0
        fair_pow = np.zeros_like(fair_rates)
        np.power(fair_rates, -params.alpha, out=fair_pow, where=live_fair)
        totals = compiled.path_prices(fair_pow)
        rate_vec = path_caps.copy()  # the scalar fallback when total <= 0
        positive = totals > 0.0
        rate_vec[positive] = totals[positive] ** (-1.0 / params.alpha)
        if not live_fair.all():
            dead_path = compiled.path_prices((~live_fair).astype(float)) > 0.0
            rate_vec[dead_path] = 0.0
        np.minimum(rate_vec, params.max_outstanding_bdp * path_caps, out=rate_vec)

        # Link side, Eq. (15): integrate the backlog and scale every fair
        # rate by its spare-capacity / queue feedback, all links at once.
        interval, rtt = params.update_interval, params.rtt
        load = compiled.link_load(rate_vec)
        live = capacities > 0.0
        excess = np.zeros_like(capacities)
        np.divide(load - capacities, capacities, out=excess, where=live)
        queues = np.maximum(self._link_vector(self._queues) + excess * interval, 0.0)
        spare_fraction = np.zeros_like(capacities)
        np.divide(capacities - load, capacities, out=spare_fraction, where=live)
        factor = 1.0 + (interval / rtt) * (
            params.gain_a * spare_fraction - params.gain_b * queues / rtt
        )
        np.clip(factor, 0.5, 2.0, out=factor)
        new_fair = np.clip(fair_rates * factor, capacities * 1e-6, capacities)
        self._queues.store(compiled.link_ids, queues)
        self._fair_rates.store(compiled.link_ids, new_fair)

        detail = self.record_detail
        record = RcpIterationRecord(
            self.iteration,
            compiled.flow_id_snapshot(),
            compiled.link_ids,
            rate_vec=rate_vec,
            fair_rate_vec=new_fair if detail else None,
            queue_vec=queues if detail else None,
        )
        self.iteration += 1
        return record

    def step(self) -> RcpIterationRecord:
        if self.backend == "vectorized":
            return self._step_vectorized()
        capacities = self.network.capacities
        rates = self._flow_rates()
        load = self.network.link_load(rates)
        interval = self.params.update_interval
        rtt = self.params.rtt
        fair_rates, queues = self.fair_rates, self.queues
        for link, capacity in capacities.items():
            if capacity > 0.0:
                excess = (load[link] - capacity) / capacity
                spare_fraction = (capacity - load[link]) / capacity
            else:  # failed link: no traffic, no mismatch (parity with arrays)
                excess = 0.0
                spare_fraction = 0.0
            queues[link] = max(queues[link] + excess * interval, 0.0)
            queue_in_rtt = queues[link] / rtt
            factor = 1.0 + (interval / rtt) * (
                self.params.gain_a * spare_fraction - self.params.gain_b * queue_in_rtt
            )
            factor = min(max(factor, 0.5), 2.0)
            new_rate = fair_rates[link] * factor
            fair_rates[link] = min(max(new_rate, capacity * 1e-6), capacity)

        record = RcpIterationRecord(
            self.iteration,
            rates=dict(rates),
            fair_rates=dict(fair_rates) if self.record_detail else {},
            queues=dict(queues) if self.record_detail else {},
        )
        self.iteration += 1
        return record

    def run(self, iterations: int, record_history: bool = True) -> List[RcpIterationRecord]:
        """Run ``iterations`` steps; return (and optionally store) the records.

        ``record_history=False`` keeps memory O(1) for long runs; direct
        ``step()`` calls never touch the history (same contract as xWI).
        """
        records = [self.step() for _ in range(iterations)]
        if record_history:
            self.history.extend(records)
        return records

    @property
    def seconds_per_iteration(self) -> float:
        return self.params.update_interval
