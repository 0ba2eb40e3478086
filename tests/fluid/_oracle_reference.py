"""The external Oracle reference: scipy L-BFGS-B on the same scaled dual.

Every single-path solve in ``repro`` minimises the dual with the in-repo
SPG loop, so agreement between two of them says little about either.  The
tight Oracle gates (1e-6 rates, 1e-8 objective) compare against this
instead: the dual assembled by ``_DualProblem``, started where
``solve_num`` starts (``z = 0.5``) and minimised by an external
quasi-Newton code at ``ftol = 1e-14``.  At scipy's default ``ftol`` the
reference would stop up to ~1e-4 away from its own tight solution on
multi-link instances, measuring scipy's stopping slack instead of the
solver under test.

:func:`scalar_solve` and :func:`scalar_price_scale` are the per-flow dict
assembly of the same SPG solve: the same start (``z = 0.5``), the same
relative-residual preconditioner and the same SPG minimiser, so their
agreement with ``solve_num``'s SPG phase at 1e-9 tests the dual's array
assembly, not two minimisers' stopping points.  (Neither has the Newton
finish: where SPG does not certify, ``solve_num`` goes on.)  :func:`scalar_solve`
certifies its answer with its own per-flow dict loop
(:func:`scalar_certificate`), so the ``converged`` flags the parity grid
compares are two implementations of the certificate, not one.
"""

import numpy as np
from scipy import optimize

from repro.fluid import oracle
from repro.fluid.oracle import (
    _MIN_RATE_FRACTION,
    OracleCertificate,
    OracleResult,
    _DualProblem,
    _spg_minimize,
)
from repro.fluid.vectorized import compile_network


def cold_lbfgsb(
    network, tolerance: float = 1e-14, max_iterations: int = 20000
) -> OracleResult:
    """A tightly converged cold solve with scipy L-BFGS-B."""
    compiled = compile_network(network)
    problem = _DualProblem(compiled)
    if not problem.active_idx.size:
        return problem.idle_result(network)
    problem.bind(problem.scale_medians())
    n_links = problem.active_idx.size
    minimised = optimize.minimize(
        problem.dual_and_gradient,
        np.full(n_links, 0.5),
        jac=True,
        bounds=[(0.0, None)] * n_links,
        method="L-BFGS-B",
        options={"maxiter": max_iterations, "ftol": tolerance, "gtol": 1e-12},
    )
    return problem.result(problem.prices(minimised.x), minimised.fun, minimised.nit)


def _rescale_to_feasible(network, rates):
    """Scale rates down uniformly per flow so no link is oversubscribed.

    The dict rule ``_rescale_to_feasible_arrays`` is pinned to: a failed
    (zero-capacity) link with any load maps to an infinite overload ratio,
    which pins every flow crossing it to exactly zero.
    """
    load = network.link_load(rates)
    overload = {
        link: (load[link] / capacity if capacity > 0.0 else np.inf)
        for link, capacity in network.capacities.items()
        if load[link] > capacity
    }
    if not overload:
        return rates
    adjusted = dict(rates)
    for flow in network.flows:
        worst = max((overload.get(link, 1.0) for link in flow.path), default=1.0)
        if worst > 1.0:
            adjusted[flow.flow_id] = rates[flow.flow_id] / worst
    return adjusted


def scalar_price_scale(network):
    """Per-link median marginal utility at an equal split, link by link."""
    scales = {}
    for link in network.links:
        flows_here = network.flows_on_link(link)
        if not flows_here or network.capacity(link) <= 0.0:
            continue
        share = network.capacity(link) / len(flows_here)
        marginals = sorted(flow.utility.marginal(share) for flow in flows_here)
        scales[link] = max(marginals[len(marginals) // 2], 1e-300)
    return scales


def _path_price(prices, link_index, path):
    # Links excluded from the dual (no flows, or failed) are priced at zero.
    total = 0.0
    for link in path:
        index = link_index.get(link)
        if index is not None:
            total += prices[index]
    return float(total)


def scalar_certificate(network, rates, raw_rates, prices, dual_value, objective_scale):
    """The Oracle's KKT certificate, one flow and one link at a time.

    ``raw_rates`` are the dual's primal point at ``prices`` (before the
    feasibility rescale), ``rates`` the allocation handed out, ``prices``
    every link's price (zero off the dual) and ``dual_value`` the scaled
    dual at those prices.
    """
    load = network.link_load(raw_rates)
    active = {
        link for flow in network.flows for link in flow.path if network.capacity(link) > 0.0
    }
    overload = max((load[link] / network.capacity(link) - 1.0 for link in active), default=0.0)
    stationarity = slackness = 0.0
    for flow in network.flows:
        x = raw_rates[flow.flow_id]
        q = sum(prices[link] for link in flow.path)
        marginal = flow.utility.marginal(x)
        excess = marginal - q
        cap = network.path_capacity(flow.flow_id)
        if x >= cap:
            excess = min(excess, 0.0)
        if x <= cap * _MIN_RATE_FRACTION:
            excess = max(excess, 0.0)
        if excess:
            stationarity = max(stationarity, abs(excess) / max(marginal, q))
        for link in flow.path:
            if link in active and q > 0.0:
                slack = max(1.0 - load[link] / network.capacity(link), 0.0)
                slackness = max(slackness, slack * prices[link] / q)
    objective = network.total_utility(rates)
    gap = abs(dual_value * objective_scale - objective) / (
        objective_scale * max(abs(dual_value), 1.0)
    )
    return OracleCertificate(max(overload, 0.0), stationarity, slackness, gap)


def scalar_solve(network) -> OracleResult:
    """``solve_num``'s cold solve with the dual and its certificate assembled per flow."""
    flows, links = network.flows, network.links
    if not flows:
        return OracleResult(rates={}, prices={link: 0.0 for link in links},
                            objective=0.0, iterations=0,
                            certificate=OracleCertificate(0.0, 0.0, 0.0, 0.0))
    used = {link for flow in flows for link in flow.path}
    active_links = [link for link in links if link in used and network.capacity(link) > 0.0]
    if not active_links:
        rates = {flow.flow_id: 0.0 for flow in flows}
        return OracleResult(rates=rates, prices={link: 0.0 for link in links},
                            objective=network.total_utility(rates), iterations=0,
                            certificate=OracleCertificate(0.0, 0.0, 0.0, 0.0))
    link_index = {link: i for i, link in enumerate(active_links)}
    capacities = np.array([network.capacity(link) for link in active_links], dtype=float)
    rate_caps = {flow.flow_id: network.path_capacity(flow.flow_id) for flow in flows}
    rate_floors = {fid: cap * _MIN_RATE_FRACTION for fid, cap in rate_caps.items()}
    scales = scalar_price_scale(network)
    scale_vec = np.array([scales[link] for link in active_links], dtype=float)
    objective_scale = float(np.max(capacities) * np.median(scale_vec))

    def primal_rates(prices):
        rates = {}
        for flow in flows:
            q = _path_price(prices, link_index, flow.path)
            cap = rate_caps[flow.flow_id]
            rate = cap if q <= 0.0 else min(flow.utility.inverse_marginal(q), cap)
            rates[flow.flow_id] = max(rate, rate_floors[flow.flow_id])
        return rates

    def per_link(rates, per_flow):
        totals = np.zeros(len(active_links))
        for flow in flows:
            for link in flow.path:
                index = link_index.get(link)
                if index is not None:
                    totals[index] += per_flow(flow, rates[flow.flow_id])
        return totals

    def dual_and_gradient(z):
        prices = scale_vec * z
        rates = primal_rates(prices)
        value = float(np.dot(prices, capacities))
        for flow in flows:
            x = rates[flow.flow_id]
            value += flow.utility.value(x) - x * _path_price(prices, link_index, flow.path)
        gradient = scale_vec * (capacities - per_link(rates, lambda flow, x: x))
        return value / objective_scale, gradient / objective_scale

    z0 = np.full(len(active_links), 0.5)
    precondition = objective_scale / (scale_vec * capacities)
    # The same cap as ``_DualProblem.spg_iterations``: short where every
    # utility has a power law (the Newton finish takes over), read at call
    # time so a test's monkeypatched cap reaches both sides.
    power_laws = all(
        (params := flow.utility.power_law_params()) is not None and params[1] > 0.0
        for flow in flows
    )
    cap = oracle._MAX_ITERATIONS
    if power_laws:
        cap = min(cap, oracle._NEWTON_HANDOFF)
    minimised = _spg_minimize(dual_and_gradient, z0, precondition, max_iterations=cap)
    prices = scale_vec * np.maximum(minimised.x, 0.0)
    raw_rates = primal_rates(prices)
    rates = _rescale_to_feasible(network, raw_rates)
    price_dict = {link: 0.0 for link in links}
    for link in active_links:
        price_dict[link] = float(prices[link_index[link]])
    certificate = scalar_certificate(
        network, rates, raw_rates, price_dict, minimised.fun, objective_scale
    )
    return OracleResult(rates=rates, prices=price_dict, objective=network.total_utility(rates),
                        iterations=minimised.nit, certificate=certificate)
