"""The scalar fluid references: each scheme's iteration as plain Python over dicts.

Production runs one array step per scheme (``repro.fluid.xwi``, ``.dgd``,
``.rcp``, ``.dctcp``).  The parity gates drive it side by side with the
per-flow, per-link loops below -- the paper's update rules written out one
flow and one link at a time -- and hold the two to 1e-9.

``Reference(XwiFluidSimulator, network)`` is the twin of
``XwiFluidSimulator(network)``: the same parameters and initial state, the
same public state dicts (``prices``, ``queues``, ``fair_rates``,
``windows``, ``ecn_fraction``) as plain attributes, so a write between
steps is what the next step runs on, and ``step()`` / ``run()`` returning
``IterationRecord``\\ s built from dicts.
"""

import math

from repro.fluid.dctcp import DctcpFluidSimulator
from repro.fluid.dgd import DgdFluidSimulator
from repro.fluid.maxmin import weighted_max_min
from repro.fluid.rcp import RcpStarFluidSimulator
from repro.fluid.vectorized import IterationRecord
from repro.fluid.xwi import XwiFluidSimulator

WEIGHT_FLOOR = 1e-12


def fluid_price_update(price, min_normalized_residual, utilization, params):
    """One xWI price update in fluid form (Eqs. (9)-(11)).

    The arithmetic of ``XwiLinkState.update_price``, stateless: an infinite
    residual (a link no flow crosses) counts as zero.
    """
    residual = min_normalized_residual if math.isfinite(min_normalized_residual) else 0.0
    new_price = max(price + residual - params.eta * (1.0 - utilization) * price, 0.0)
    return params.beta * price + (1.0 - params.beta) * new_price


def path_price(prices, path):
    return sum(prices.get(link, 0.0) for link in path)


def _present_members(network, group):
    return [m for m in group.member_ids if m in network.flow_ids]


def xwi_weight(sim, flow, price, cap):
    """Eq. (7), and the Sec. 6.3 share of a multipath group's weight."""
    if flow.group_id is None:
        return flow.utility.inverse_marginal_clipped(price, cap)
    group = sim.network.group(flow.group_id)
    aggregate_weight = group.utility.inverse_marginal_clipped(
        price, cap * len(group.member_ids) if group.member_ids else cap
    )
    members = _present_members(sim.network, group)
    if not members:
        return aggregate_weight * 1.0
    aggregate = sum(sim.last_rates.get(m, 0.0) for m in members)
    if aggregate <= 0.0:
        return aggregate_weight * (1.0 / len(members))
    share = sim.last_rates.get(flow.flow_id, 0.0) / aggregate
    return aggregate_weight * max(share, 1.0 / (10.0 * len(members)))


def xwi_marginal(network, flow, rates):
    """Marginal utility of one more bit/s on this (sub-)flow."""
    if flow.group_id is None:
        return flow.utility.marginal(rates.get(flow.flow_id, 0.0))
    group = network.group(flow.group_id)
    return group.utility.marginal(
        sum(rates.get(m, 0.0) for m in _present_members(network, group))
    )


def xwi_step(sim):
    network, prices = sim.network, sim.prices
    flows = network.flows
    if not flows:
        return {"rates": {}, "prices": dict(prices), "weights": {}}
    capacities = network.capacities
    weights = {
        flow.flow_id: max(
            xwi_weight(
                sim, flow, path_price(prices, flow.path), network.path_capacity(flow.flow_id)
            ),
            WEIGHT_FLOOR,
        )
        for flow in flows
    }
    rates = weighted_max_min(weights, {flow.flow_id: flow.path for flow in flows}, capacities)
    load = dict.fromkeys(capacities, 0.0)
    min_residual = dict.fromkeys(capacities, math.inf)
    for flow in flows:
        residual = (
            xwi_marginal(network, flow, rates) - path_price(prices, flow.path)
        ) / len(flow.path)
        for link in flow.path:
            load[link] += rates[flow.flow_id]
            min_residual[link] = min(min_residual[link], residual)
    for link, capacity in capacities.items():
        utilization = min(load[link] / capacity, 1.0) if capacity > 0 else 0.0
        prices[link] = fluid_price_update(prices[link], min_residual[link], utilization, sim.params)
    sim.last_rates = rates
    return {"rates": dict(rates), "prices": dict(prices), "weights": weights}


def dgd_step(sim):
    network, params, prices, queues = sim.network, sim.params, sim.prices, sim.queues
    rates = {}
    for flow in network.flows:
        price = path_price(prices, flow.path)
        limit = params.max_outstanding_bdp * network.path_capacity(flow.flow_id)
        rate = limit if price <= 0.0 else min(flow.utility.inverse_marginal(price), limit)
        rates[flow.flow_id] = max(rate, 0.0)
    load = network.link_load(rates)
    for link, capacity in network.capacities.items():
        # A failed link carries no traffic: its mismatch is zero, not 0/0.
        excess = (load[link] - capacity) / capacity if capacity > 0.0 else 0.0
        queues[link] = max(queues[link] + excess * params.update_interval, 0.0)
        delta = params.utilization_gain * excess + params.queue_gain * (queues[link] / params.rtt)
        prices[link] = max(prices[link] + delta * max(prices[link], 1e-12), 1e-15)
    return {"rates": rates, "prices": dict(prices), "queues": dict(queues)}


def rcp_step(sim):
    network, params = sim.network, sim.params
    fair_rates, queues = sim.fair_rates, sim.queues
    rates = {}
    for flow in network.flows:
        # A failed link advertises a zero fair share; its ``R^-alpha`` term
        # is infinite, so Eq. (16) combines to a zero rate.
        total = 0.0
        for link in flow.path:
            fair = fair_rates[link]
            total = math.inf if fair <= 0.0 else total + fair ** (-params.alpha)
        cap = network.path_capacity(flow.flow_id)
        rate = total ** (-1.0 / params.alpha) if total > 0 else cap
        rates[flow.flow_id] = min(rate, params.max_outstanding_bdp * cap)
    load = network.link_load(rates)
    interval, rtt = params.update_interval, params.rtt
    for link, capacity in network.capacities.items():
        if capacity > 0.0:
            excess = (load[link] - capacity) / capacity
            spare_fraction = (capacity - load[link]) / capacity
        else:  # failed link: no traffic, no mismatch
            excess = spare_fraction = 0.0
        queues[link] = max(queues[link] + excess * interval, 0.0)
        factor = 1.0 + (interval / rtt) * (
            params.gain_a * spare_fraction - params.gain_b * (queues[link] / rtt)
        )
        factor = min(max(factor, 0.5), 2.0)
        fair_rates[link] = min(max(fair_rates[link] * factor, capacity * 1e-6), capacity)
    return {"rates": rates, "fair_rates": dict(fair_rates), "queues": dict(queues)}


def dctcp_step(sim):
    network, params = sim.network, sim.params
    windows, ecn_fraction, queues = sim.windows, sim.ecn_fraction, sim.queues
    active = {flow.flow_id for flow in network.flows}
    for flow_id in active - set(windows):
        bdp_bits = network.path_capacity(flow_id) * params.rtt
        windows[flow_id] = max(bdp_bits * params.initial_window_fraction, params.mtu_bits)
        ecn_fraction[flow_id] = 0.0
    for flow_id in set(windows) - active:
        del windows[flow_id], ecn_fraction[flow_id]
    rates = {flow.flow_id: windows[flow.flow_id] / params.rtt for flow in network.flows}
    load = network.link_load(rates)
    marked_links = set()
    for link, capacity in network.capacities.items():
        # Queue in "bits": integrate over-subscription during the RTT.
        queues[link] = max(queues[link] + (load[link] - capacity) * params.rtt, 0.0)
        if queues[link] > capacity * params.rtt * params.marking_threshold_fraction:
            marked_links.add(link)
    for flow in network.flows:
        flow_id = flow.flow_id
        marked = any(link in marked_links for link in flow.path)
        ecn_fraction[flow_id] += params.gain * ((1.0 if marked else 0.0) - ecn_fraction[flow_id])
        if marked:
            windows[flow_id] *= 1.0 - ecn_fraction[flow_id] / 2.0
        else:
            windows[flow_id] += params.mtu_bits
        windows[flow_id] = max(windows[flow_id], params.mtu_bits)
    # Delivered rates: no flow delivers past its narrowest link.
    delivered = {
        flow_id: min(rate, network.path_capacity(flow_id)) for flow_id, rate in rates.items()
    }
    return {"rates": delivered, "queues": dict(queues)}


#: production class -> (initial state of a network, step function)
SCHEMES = {
    XwiFluidSimulator: (lambda network: {"prices": dict.fromkeys(network.links, 0.0)}, xwi_step),
    DgdFluidSimulator: (
        lambda network: {
            "prices": dict.fromkeys(network.links, 1e-3),
            "queues": dict.fromkeys(network.links, 0.0),
        },
        dgd_step,
    ),
    RcpStarFluidSimulator: (
        lambda network: {
            "fair_rates": {link: network.capacity(link) * 0.1 for link in network.links},
            "queues": dict.fromkeys(network.links, 0.0),
        },
        rcp_step,
    ),
    DctcpFluidSimulator: (
        lambda network: {
            "windows": {},
            "ecn_fraction": {},
            "queues": dict.fromkeys(network.links, 0.0),
        },
        dctcp_step,
    ),
}


class Reference:
    """The dict-state twin of a production fluid simulator (module docstring)."""

    def __init__(self, simulator_cls, network, params=None):
        initial_state, self._step = SCHEMES[simulator_cls]
        self.network = network
        self.params = params or simulator_cls.Parameters()
        self.iteration = 0
        self.history = []
        self.last_rates = {}  # xWI's multipath share reads the last allocation
        self.__dict__.update(initial_state(network))

    def step(self):
        record = IterationRecord(self.iteration, **self._step(self))
        self.iteration += 1
        return record

    def run(self, iterations, record_history=True):
        records = [self.step() for _ in range(iterations)]
        if record_history:
            self.history.extend(records)
        return records


def make_simulator(simulator_cls, network, backend="vectorized"):
    """The production simulator, or with ``backend="scalar"`` its reference."""
    return Reference(simulator_cls, network) if backend == "scalar" else simulator_cls(network)
