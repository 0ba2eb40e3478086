"""Fluid model of RCP* -- RCP generalized for alpha-fairness (Sec. 6, Eq. (15)).

Every link advertises a fair-share rate ``R_l`` that it adapts from its
spare capacity and queue backlog.  A flow crossing links ``L(i)`` sends at
``(sum_l R_l^{-alpha})^{-1/alpha}`` (Eq. (16)), which reduces to
``min_l R_l`` as ``alpha -> inf`` (classic max-min RCP) and to the
alpha-fair allocation at the fixed point.

Both rules run as NumPy array operations over the compiled ``path_links``
of :mod:`repro.fluid.vectorized`: the power sums are gather + add over each
flow's hops.  RCP* needs no utility batching, because its dynamics read
only paths and capacities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.fluid.network import FluidNetwork
from repro.fluid.vectorized import FluidStepper, IterationRecord, state_view


@dataclass
class RcpStarFluidParameters:
    """RCP* gains (Table 2, second row) in normalized fluid form."""

    gain_a: float = 0.4
    gain_b: float = 0.2
    alpha: float = 1.0
    update_interval: float = 16e-6
    rtt: float = 16e-6
    max_outstanding_bdp: float = 2.0


class RcpStarFluidSimulator(FluidStepper):
    """Iterates the RCP* fair-rate dynamics on a :class:`FluidNetwork`.

    Records carry ``rates``, ``fair_rates`` and ``queues``.
    """

    Parameters = RcpStarFluidParameters
    interval = "update_interval"

    #: Per-link state: live, writable dicts, kept as vectors and brought up
    #: to date when the attribute is read -- read it after a step rather
    #: than keeping it.
    fair_rates = state_view()
    queues = state_view()

    def __init__(
        self,
        network: FluidNetwork,
        params: Optional[RcpStarFluidParameters] = None,
        initial_fraction: float = 0.1,
    ):
        super().__init__(network, params)
        self.fair_rates = {
            link: network.capacity(link) * initial_fraction for link in network.links
        }
        self.queues = {link: 0.0 for link in network.links}

    def step(self) -> IterationRecord:
        """One fair-rate update interval of RCP*."""
        compiled = self._ensure_compiled()
        capacities = compiled.capacities_vector()
        fair_rates = self._link_vector(self._fair_rates)
        params = self.params

        # Host side, Eq. (16): combine the per-link fair rates along each
        # path.  Fair rates are clamped to [capacity * 1e-6, capacity], so
        # the power sums stay finite and positive on every non-empty path.
        path_caps = compiled.path_capacities()
        # A failed link advertises a zero fair share: its ``R^-alpha`` term
        # is infinite, so every flow crossing it gets a zero rate.  It is
        # left out of the power sum (0 ** -alpha would inject inf into the
        # path sums) and those flows are zeroed afterwards.
        live_fair = fair_rates > 0.0
        fair_pow = np.zeros_like(fair_rates)
        np.power(fair_rates, -params.alpha, out=fair_pow, where=live_fair)
        totals = compiled.path_prices(fair_pow)
        rate_vec = path_caps.copy()  # a path with no positive sum sends at capacity
        positive = totals > 0.0
        rate_vec[positive] = totals[positive] ** (-1.0 / params.alpha)
        if not live_fair.all():
            dead_path = compiled.path_prices((~live_fair).astype(float)) > 0.0
            rate_vec[dead_path] = 0.0
        np.minimum(rate_vec, params.max_outstanding_bdp * path_caps, out=rate_vec)

        # Link side, Eq. (15): integrate the backlog and scale every fair
        # rate by its spare-capacity / queue feedback, all links at once.
        # A failed link has no traffic and no mismatch.
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

        return self._record(
            compiled.flow_id_snapshot(), rate_vec=rate_vec, fair_rate_vec=new_fair, queue_vec=queues
        )
