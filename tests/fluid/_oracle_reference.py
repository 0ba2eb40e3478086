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
assembly of the same cold solve: the same start (``z = 0.5``), a Jacobi
preconditioner from their own per-flow loop and the same SPG minimiser,
so their agreement with ``solve_num`` at 1e-9 tests the dual's array
assembly, not two minimisers' stopping points.  The safeguard runs the
scalar water-fill of ``_maxmin_reference``, not the production one.
"""

import numpy as np
from _maxmin_reference import scalar_max_min
from scipy import optimize

from repro.fluid.oracle import (
    _FALLBACK_MAX_FLOWS,
    _MIN_RATE_FRACTION,
    OracleResult,
    _DualProblem,
    _rescale_to_feasible,
    _scale_medians,
    _solve_num_primal,
    _spg_minimize,
)
from repro.fluid.vectorized import compile_network


def cold_lbfgsb(
    network, tolerance: float = 1e-14, max_iterations: int = 20000
) -> OracleResult:
    """A tightly converged, unsafeguarded cold solve with scipy L-BFGS-B."""
    compiled = compile_network(network)
    problem = _DualProblem(compiled)
    if not problem.active_idx.size:
        return problem.idle_result(network)
    problem.bind(_scale_medians(compiled)[1])
    n_links = problem.active_idx.size
    minimised = optimize.minimize(
        problem.dual_and_gradient,
        np.full(n_links, 0.5),
        jac=True,
        bounds=[(0.0, None)] * n_links,
        method="L-BFGS-B",
        options={"maxiter": max_iterations, "ftol": tolerance, "gtol": 1e-12},
    )
    return problem.result(
        network, problem.prices(minimised.x), minimised, False, max_iterations, tolerance
    )


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


def scalar_solve(network, max_iterations: int = 2000, tolerance: float = 1e-9) -> OracleResult:
    """``solve_num``'s cold, safeguarded solve with the dual assembled per flow."""
    flows, links = network.flows, network.links
    if not flows:
        return OracleResult(rates={}, prices={link: 0.0 for link in links},
                            objective=0.0, iterations=0, converged=True)
    used = {link for flow in flows for link in flow.path}
    active_links = [link for link in links if link in used and network.capacity(link) > 0.0]
    if not active_links:
        rates = {flow.flow_id: 0.0 for flow in flows}
        return OracleResult(rates=rates, prices={link: 0.0 for link in links},
                            objective=network.total_utility(rates),
                            iterations=0, converged=True)
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

    def jacobi_precondition(z0):
        prices = scale_vec * z0
        rates = primal_rates(prices)

        def slope(flow, x):
            if not rate_floors[flow.flow_id] < x < rate_caps[flow.flow_id]:
                return 0.0
            power = flow.utility.power_law_params()
            alpha_eff = power[1] if power is not None and power[1] > 0.0 else 1.0
            return x / (alpha_eff * max(_path_price(prices, link_index, flow.path), 1e-300))

        curvature = per_link(rates, slope)
        with np.errstate(divide="ignore", over="ignore"):
            newton = objective_scale / (scale_vec**2 * curvature)
        return np.where(
            (curvature > 0.0) & np.isfinite(newton),
            newton,
            objective_scale / (scale_vec * capacities),
        )

    z0 = np.full(len(active_links), 0.5)
    minimised = _spg_minimize(
        dual_and_gradient, z0, max_iterations, tolerance, jacobi_precondition(z0)
    )
    prices = scale_vec * np.maximum(minimised.x, 0.0)
    rates = _rescale_to_feasible(network, primal_rates(prices))
    price_dict = {link: 0.0 for link in links}
    for link in active_links:
        price_dict[link] = float(prices[link_index[link]])
    best = OracleResult(rates=rates, prices=price_dict, objective=network.total_utility(rates),
                        iterations=minimised.nit, converged=minimised.success)
    maxmin = scalar_max_min(
        {flow.flow_id: 1.0 for flow in flows},
        {flow.flow_id: flow.path for flow in flows},
        network.capacities,
    )
    maxmin_objective = network.total_utility(maxmin)
    if maxmin_objective > best.objective:
        best = OracleResult(rates=maxmin, prices={link: 0.0 for link in links},
                            objective=maxmin_objective, iterations=best.iterations,
                            converged=False)
    gap = minimised.fun * objective_scale - best.objective
    if gap <= tolerance * objective_scale * max(abs(minimised.fun), 1.0):
        best.converged = True
    if not best.converged and len(flows) <= _FALLBACK_MAX_FLOWS:
        fallback = _solve_num_primal(network, max_iterations=max_iterations)
        if fallback.objective >= best.objective:
            return fallback
    return best
