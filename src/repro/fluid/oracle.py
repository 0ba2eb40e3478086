"""The Oracle: a centralized solver for the NUM problem (ground truth).

The paper uses a numerical fluid model to compute the optimal allocation for
the current topology and flow set, against which the distributed schemes are
judged.  We implement two solvers:

* :func:`solve_num` -- single-path flows.  Solves the *dual* problem (over
  link prices) with the in-repo projected spectral-gradient loop of
  :func:`_spg_minimize`.  The dual is smooth because the utilities are
  strictly concave, and its dimension is the number of links actually
  carrying flows, which is far smaller than the number of flows in
  datacenter scenarios, so this scales to thousands of flows easily.
* :func:`solve_num_multipath` -- flows grouped into multipath aggregates
  whose utility applies to the aggregate rate (resource pooling).  Solves
  the primal directly with SLSQP (suitable for the evaluation's scale of a
  few hundred sub-flows).

Every single-path solve is the same scaled dual problem, assembled once by
:class:`_DualProblem` from a :class:`CompiledFluidNetwork`'s ``path_links``
(an evaluation is O(flows x hops) gathers and one ``bincount``; no dense
link x flow matrix exists), and minimised by the same SPG loop; the two
entry points differ only in start point and preconditioner:

* :func:`solve_num` -- the *cold* solve: :meth:`_DualProblem.cold_start`,
  ``z = 0.5`` with the Jacobi (diagonal-Hessian) preconditioner.
* :class:`PersistentDualSolver` -- the *production* path of the dynamic
  experiments (Fig. 5/7): it keeps prices, conditioning, the spectral step
  *and* the compiled snapshot alive across flow-set changes (patched
  incrementally from the network's churn journal); its first solve is the
  same cold start.

No single-path solve imports scipy.  Only :func:`solve_num_multipath` and
the safeguard's SLSQP fallback do, inside the function that calls it, never
by ``import repro``.  The external reference the tight Oracle gates compare
against -- scipy L-BFGS-B on the same scaled dual -- lives with the tests
(``tests/fluid/_oracle_reference.py``), beside the per-flow dict
assembly of the same dual that ``tests/fluid/test_oracle.py`` pins the
array dual to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fluid.network import FluidNetwork, FlowId, LinkId
from repro.fluid.vectorized import (
    CompiledFluidNetwork,
    compile_network,
    dict_of,
    waterfill_arrays,
)

_MIN_RATE_FRACTION = 1e-9

#: Flow count above which the (SLSQP) primal fallback is not attempted.
_FALLBACK_MAX_FLOWS = 400


class OracleResult:
    """Optimal allocation returned by the Oracle.

    Shaped like :class:`~repro.fluid.vectorized.IterationRecord`: the array
    dual passes the id snapshots (``flow_ids``, ``link_ids``) and its
    vectors (``rate_vec``, ``price_vec``, kept by reference and made
    read-only), and ``rates`` / ``prices`` are cached properties, built on
    first read.  The idle, fallback and safeguard results pass the dicts
    themselves, which land where the cache would, and leave the vectors
    ``None``.
    """

    rate_vec: Optional[np.ndarray] = None
    price_vec: Optional[np.ndarray] = None

    def __init__(
        self,
        *,
        objective: float,
        iterations: int,
        converged: bool,
        rates: Optional[Dict[FlowId, float]] = None,
        prices: Optional[Dict[LinkId, float]] = None,
        flow_ids: Sequence[FlowId] = (),
        rate_vec: Optional[np.ndarray] = None,
        link_ids: Sequence[LinkId] = (),
        price_vec: Optional[np.ndarray] = None,
    ):
        self.objective = objective
        self.iterations = iterations
        self.converged = converged
        self.flow_ids = flow_ids
        self.link_ids = link_ids
        if rate_vec is not None:
            rate_vec.flags.writeable = False
            self.rate_vec = rate_vec
        if price_vec is not None:
            price_vec.flags.writeable = False
            self.price_vec = price_vec
        if rates is not None:
            self.rates = rates
        if prices is not None:
            self.prices = prices

    @cached_property
    def rates(self) -> Dict[FlowId, float]:
        return dict_of(self.flow_ids, self.rate_vec)

    @cached_property
    def prices(self) -> Dict[LinkId, float]:
        return dict_of(self.link_ids, self.price_vec)


def estimate_price_scale(network: FluidNetwork) -> Dict[LinkId, float]:
    """Per-link price scale: median marginal utility at an equal split.

    Optimal prices differ by many orders of magnitude across utility
    families (for example ~1e-9 for log utilities at 10 Gbps but ~1e-19 for
    alpha = 2), which wrecks the conditioning of a naive dual solve.
    :func:`solve_num` therefore optimizes over scaled prices ``z`` with
    ``p_l = scale_l * z_l`` where ``scale_l`` estimates the optimal price of
    link ``l`` as the median marginal utility of its flows at an equal-share
    allocation.  Only links with at least one flow appear in the result.

    The scale is pure conditioning: it never changes the optimum, so
    :class:`PersistentDualSolver` caches it across flow-set changes instead
    of recomputing it per solve.
    Single-path flows only (multipath groups are rejected by the callers).
    """
    compiled = compile_network(network)
    active_idx, medians = _scale_medians(compiled)
    return {
        compiled.link_ids[idx]: value
        for idx, value in zip(active_idx.tolist(), medians.tolist())
    }


def _scale_medians(compiled: CompiledFluidNetwork) -> Tuple[np.ndarray, np.ndarray]:
    """Per-link price-scale medians on an already-compiled network.

    Returns ``(active link indices, median marginal at an equal share)`` in
    compiled link order -- the array core of :func:`estimate_price_scale`,
    shared with :class:`PersistentDualSolver` so the persistent path never
    recompiles just to refresh conditioning.
    """
    n_links = len(compiled.link_ids)
    path_links = compiled.path_links
    counts = np.bincount(path_links.ravel(), minlength=n_links + 1)
    capacities = compiled.capacities_vector()
    # Failed (zero-capacity) links are skipped: an equal share of zero would
    # produce the _EPSILON-floored marginal (~1e30) and poison the medians.
    active = (counts[:n_links] > 0) & (capacities > 0.0)
    active_idx = np.nonzero(active)[0]
    if not active_idx.size:
        return active_idx, np.empty(0)
    # One marginal per hop at that link's equal share (padding and dead
    # links: placeholder rate 1.0, never picked below).
    shares = np.ones(n_links + 1)
    np.divide(capacities, counts[:n_links], out=shares[:n_links], where=active)
    hop_links = path_links.T.ravel()
    marginals = compiled.vec_utils.marginal(shares[path_links.T]).ravel()
    # Sorted by link, then marginal: link l's run starts at first[l] and its
    # upper median sits counts[l] // 2 into it.
    order = np.lexsort((marginals, hop_links))
    first = np.cumsum(counts) - counts
    medians = marginals[order[first[active_idx] + counts[active_idx] // 2]]
    return active_idx, np.maximum(medians, 1e-300)


def solve_num(
    network: FluidNetwork,
    max_iterations: int = 2000,
    tolerance: float = 1e-9,
    safeguard: bool = True,
) -> OracleResult:
    """Solve ``max sum_i U_i(x_i)`` s.t. ``Rx <= c`` for single-path flows.

    The cold solve: every call starts from ``z = 0.5`` with the Jacobi
    preconditioner and minimises the dual with :func:`_spg_minimize`.
    Flows that belong to a group (multipath aggregates) are not supported
    here; use :func:`solve_num_multipath`.

    Parameters
    ----------
    safeguard:
        When true (default), the better of the dual's allocation and the
        max-min allocation is returned, reported converged when it attains
        the dual bound within ``tolerance`` (the dual's allocation also when
        the minimiser converged), and a primal SLSQP fallback is attempted
        otherwise (very steep utilities).

    Links carrying no flows are excluded from the dual and reported with a
    price of exactly zero (their capacity cannot constrain anything).
    """
    flows = network.flows
    if any(flow.group_id is not None for flow in flows):
        raise ValueError("network contains multipath groups; use solve_num_multipath")
    if not flows:
        return OracleResult(rates={}, prices={link: 0.0 for link in network.links},
                            objective=0.0, iterations=0, converged=True)
    compiled = compile_network(network)
    problem = _DualProblem(compiled)
    if not problem.active_idx.size:
        return problem.idle_result(network)
    problem.bind(_scale_medians(compiled)[1])
    z0, precondition = problem.cold_start()
    minimised = _spg_minimize(
        problem.dual_and_gradient, z0, max_iterations, tolerance, precondition
    )
    return problem.result(network, problem.prices(minimised.x), minimised,
                          safeguard, max_iterations, tolerance)


@dataclass
class _SpgResult:
    """Mirror of the scipy result fields the dual solvers consume."""

    x: np.ndarray
    fun: float
    nit: int
    success: bool
    step: float


#: Nonmonotone Armijo memory (Grippo-Lampariello-Lucidi reference window).
_SPG_MEMORY = 8
_SPG_ARMIJO = 1e-4
_SPG_STEP_MIN = 1e-10
_SPG_STEP_MAX = 1e10
#: Optimality threshold on the unit-step projected gradient of the *scaled*
#: dual (both the objective and the prices are O(1) after conditioning).
_SPG_PGTOL = 1e-9
#: Looser projected-gradient level below which an objective stall (ftol) is
#: accepted as convergence: BB steps are nonmonotone, so a flat objective
#: far from optimality must not stop the solve.
_SPG_STALL_PGTOL = 1e-7
_SPG_STALL_LIMIT = 3


def _spg_minimize(
    dual_and_gradient,
    z0: np.ndarray,
    max_iterations: int,
    tolerance: float,
    precondition: np.ndarray,
    initial_step: Optional[float] = None,
) -> _SpgResult:
    """Preconditioned projected spectral-gradient descent over ``z >= 0``.

    The minimiser of every single-path dual solve, cold and warm: a
    projected Barzilai-Borwein step with a nonmonotone Armijo line search,
    operating directly on the caller's arrays.  The dual is convex
    and (piecewise) smooth, so the spectral step needs no curvature model
    -- and none of scipy's per-call workspace allocation, bound
    standardization and Fortran round trips.  The loop body is the
    algorithm's arithmetic and nothing else: at ~200 links a NumPy call
    costs more than its work, so each one here is load-bearing.

    ``precondition`` is a positive diagonal ``D`` applied to the gradient
    step (``z - step * D * g``, equivalent to plain SPG in the variables
    ``z / sqrt(D)``; the non-negativity projection stays separable).  The
    dual solvers pass ``D_l ~ 1 / (scale_l * capacity_l)`` so one step
    moves every link's price in proportion to its *relative* capacity
    residual: without it, mixing utility families whose optimal prices
    differ by many orders of magnitude (log at ~1e-10 vs alpha = 2 at
    ~1e-20) leaves the tiny-scale links practically frozen under a single
    scalar step length.

    Stops when the preconditioned projected gradient drops below
    :data:`_SPG_PGTOL` or the scaled objective stalls below ``tolerance``
    (relative) for :data:`_SPG_STALL_LIMIT` consecutive iterations while
    the projected gradient is already below :data:`_SPG_STALL_PGTOL` --
    an L-BFGS-B-style ``ftol`` contract, guarded against BB's nonmonotone
    plateaus.  ``initial_step`` carries the spectral
    (curvature) state across solves for :class:`PersistentDualSolver`.
    """
    z = np.maximum(np.asarray(z0, dtype=float), 0.0)
    f, g = dual_and_gradient(z)
    step_direction = precondition * g
    if initial_step is not None and np.isfinite(initial_step) and initial_step > 0.0:
        step = initial_step
    else:
        g_norm = float(np.maximum.reduce(np.abs(step_direction), initial=0.0))
        step = 1.0 / g_norm if g_norm > 0.0 else 1.0
    step = min(max(step, _SPG_STEP_MIN), _SPG_STEP_MAX)
    recent = deque([f], maxlen=_SPG_MEMORY)
    stalls = 0
    nit = 0
    success = not z.size
    for nit in range(1, max_iterations + 1):
        trial = np.maximum(z - step * step_direction, 0.0)
        d = trial - z
        dg = float(d @ g)
        if dg >= 0.0:
            success = True  # no feasible descent direction: stationary point
            nit -= 1
            break
        f_ref = max(recent)
        lam = 1.0
        z_new = trial
        f_new, g_new = dual_and_gradient(z_new)
        while f_new > f_ref + _SPG_ARMIJO * lam * dg and lam > 1e-8:
            lam *= 0.5
            z_new = z + lam * d
            f_new, g_new = dual_and_gradient(z_new)
        s = d if lam == 1.0 else z_new - z
        y = g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            step = float((s / precondition) @ s) / sy  # BB step in the variables z / sqrt(D)
        else:
            step = step * 2.0
        step = min(max(step, _SPG_STEP_MIN), _SPG_STEP_MAX)
        stalls = stalls + 1 if abs(f - f_new) <= tolerance * max(abs(f), abs(f_new), 1.0) else 0
        z, f, g = z_new, f_new, g_new
        recent.append(f)
        step_direction = precondition * g
        projected_gradient = z - np.maximum(z - step_direction, 0.0)
        # ufunc.reduce directly: np.max's wrapper layers cost more than the reduction
        pg_norm = float(np.maximum.reduce(np.abs(projected_gradient), initial=0.0))
        if pg_norm <= _SPG_PGTOL or (
            stalls >= _SPG_STALL_LIMIT and pg_norm <= _SPG_STALL_PGTOL
        ):
            success = True
            break
    return _SpgResult(x=z, fun=f, nit=nit, success=success, step=step)


class _DualProblem:
    """The scaled dual of one compiled flow set, assembled once for both solvers.

    Construction fixes what the flow set and the capacities determine alone
    (active links, the hop indices in active-link space, per-flow rate caps
    and floors); :meth:`bind` adds the per-link price scale and builds the
    objective/gradient closure.  The callers -- cold :func:`solve_num` and
    :class:`PersistentDualSolver` -- choose only the start point, the
    preconditioner and the minimiser, then hand the optimal prices to
    :meth:`result`.

    Everything runs on :attr:`hops`: the compiled ``path_links`` remapped
    once into active-link index space and held hops x flows (per-flow
    reductions run along the contiguous axis).  Padding *and* hops on
    excluded links carry the sentinel ``len(active_idx)``, so a per-link
    vector extended by one neutral entry prices them at zero and collects
    their load where nobody reads it.
    """

    def __init__(self, compiled: CompiledFluidNetwork):
        self.compiled = compiled
        self.capacities_all = compiled.capacities_vector()
        n_links = len(compiled.link_ids)
        path_links = compiled.path_links
        carrying = np.bincount(path_links.ravel(), minlength=n_links + 1)[:n_links] > 0
        # Failed (zero-capacity) links are excluded like flowless ones: their
        # price stays zero and path-capacity clipping already pins every flow
        # crossing them to a zero rate, so they cannot condition the dual.
        self.active_idx = np.nonzero(carrying & (self.capacities_all > 0.0))[0]
        n_active = self.active_idx.size
        remap = np.full(n_links + 1, n_active, dtype=np.intp)
        remap[self.active_idx] = np.arange(n_active)
        self.hops = remap.take(path_links.T)  # take: C-contiguous hops x flows
        # link_sums' bincount input: the hops and a weights buffer, flat views.
        self._hops_flat = self.hops.ravel()
        self._hop_values = np.empty(self.hops.shape)
        self._hop_values_flat = self._hop_values.ravel()
        self.capacities = self.capacities_all[self.active_idx]
        # Per-flow rate cap: the narrowest link on the path.  Clipping at the
        # cap keeps the inner maximization bounded even at a ~0 path price.
        self.path_caps = compiled.path_capacities()
        self.floors = self.path_caps * _MIN_RATE_FRACTION

    def link_sums(self, per_flow: np.ndarray) -> np.ndarray:
        """Per-active-link sum of a per-flow quantity: one ``bincount`` over the hops."""
        n_active = self.capacities.size
        self._hop_values[:] = per_flow
        return np.bincount(
            self._hops_flat, weights=self._hop_values_flat, minlength=n_active + 1
        )[:n_active]

    def idle_result(self, network: FluidNetwork) -> OracleResult:
        """The allocation when no link can carry anything: every rate is zero."""
        rates = {flow_id: 0.0 for flow_id in self.compiled.flow_ids}
        return OracleResult(rates=rates, prices={link: 0.0 for link in self.compiled.link_ids},
                            objective=network.total_utility(rates),
                            iterations=0, converged=True)

    def bind(self, scale_vec: np.ndarray) -> None:
        """Fix the price scale (``p_l = scale_l * z_l``) and build the closures."""
        vec_utils = self.compiled.vec_utils
        hops, capacities = self.hops, self.capacities
        path_caps, floors = self.path_caps, self.floors
        objective_scale = float(np.max(capacities) * np.median(scale_vec))
        gradient_scale = scale_vec / objective_scale
        link_sums = self.link_sums
        # Reused by every evaluation: gather target and the prices with their
        # zero sentinel entry.
        n_active = capacities.size
        hop_prices = np.empty(hops.shape)
        prices_ext = np.zeros(n_active + 1)
        prices_buf = prices_ext[:n_active]

        def primal_rates(prices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            prices_buf[:] = prices
            prices_ext.take(hops, out=hop_prices, mode="clip")  # "raise" buffers out
            path_prices = np.add.reduce(hop_prices, axis=0)  # .sum(axis=0) without its wrapper
            rates = vec_utils.inverse_marginal_clipped(path_prices, path_caps)
            return np.maximum(rates, floors, out=rates), path_prices

        def dual_and_gradient(z: np.ndarray) -> Tuple[float, np.ndarray]:
            prices = scale_vec * z
            rates, path_prices = primal_rates(prices)
            utility_sum = np.add.reduce(vec_utils.value(rates))
            value = float(prices @ capacities + utility_sum - rates @ path_prices)
            gradient = capacities - link_sums(rates)
            gradient *= gradient_scale
            return value / objective_scale, gradient

        self.scale_vec = scale_vec
        self.objective_scale = objective_scale
        self.primal_rates = primal_rates
        self.dual_and_gradient = dual_and_gradient

    def prices(self, z: np.ndarray) -> np.ndarray:
        """Physical prices of the active links at scaled prices ``z``."""
        return self.scale_vec * np.maximum(z, 0.0)

    def residual_precondition(self) -> np.ndarray:
        """``D_l = 1 / (scale_l * capacity_l)`` in objective units (see SPG)."""
        return self.objective_scale / (self.scale_vec * self.capacities)

    def cold_start(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every cold solve's start: ``z = 0.5`` and its Jacobi preconditioner.

        Half the scale estimate itself, so multi-hop paths are not wildly
        overpriced initially.  Shared by :func:`solve_num` and a fresh
        :class:`PersistentDualSolver`.
        """
        z0 = np.full(self.capacities.size, 0.5)
        return z0, self.jacobi_precondition(z0)

    def jacobi_precondition(self, z0: np.ndarray) -> np.ndarray:
        """Diagonal (Jacobi) preconditioner for *cold* SPG dual solves.

        The dual Hessian's diagonal is ``H_l = sum_{f on l} |dx_f/dq_f|`` over
        flows whose rate is strictly between floor and cap; every batched
        family is a power-law demand ``x ~ q^(-1/alpha_eff)``, so
        ``|dx/dq| = x / (alpha_eff * q)``.  Evaluated at the start point, this
        rescues instances where the median price-scale misestimates a link by
        orders of magnitude (a link shared by log and alpha = 2 flows: the
        median picks the log marginal ~1e-10 while the binding curvature sits
        at ~1e-20, and the plain relative-residual step then oscillates across
        the tiny true price for thousands of iterations).  Warm solves skip
        this -- measured on the Fig. 5 churn pattern, the relative-residual
        heuristic converges in fewer iterations from a near-optimal start.
        Links with zero measured curvature (all flows clipped) fall back to
        the heuristic.
        """
        scale_vec = self.scale_vec
        rates0, path_prices0 = self.primal_rates(scale_vec * z0)
        interior = (rates0 > self.floors) & (rates0 < self.path_caps)
        slopes = np.zeros(len(rates0))
        np.divide(
            rates0,
            self.compiled.vec_utils.curvature_alpha * np.maximum(path_prices0, 1e-300),
            out=slopes, where=interior,
        )
        curvature = self.link_sums(slopes)
        with np.errstate(divide="ignore", over="ignore"):
            newton = self.objective_scale / (scale_vec**2 * curvature)
        return np.where(
            (curvature > 0.0) & np.isfinite(newton), newton, self.residual_precondition()
        )

    def result(
        self,
        network: FluidNetwork,
        prices: np.ndarray,
        minimised,
        safeguard: bool,
        max_iterations: int,
        tolerance: float,
    ) -> OracleResult:
        """Pack the minimiser's prices into a feasible, safeguarded allocation.

        ``minimised`` is the minimiser's result (``fun``, ``nit``,
        ``success``); ``prices`` are the physical prices at its ``x``.

        ``minimised.fun`` is the scaled dual at those prices, so times
        :attr:`objective_scale` it bounds the objective of every feasible
        allocation from above (weak duality).  With ``safeguard``, the
        better of the dual's allocation and max-min is returned -- max-min
        replaces any dual answer it beats -- and reported converged when it
        attains that bound within ``tolerance`` (relative, in the scaled
        dual's units, like the minimiser's own ``ftol``); the dual's own
        allocation also keeps the minimiser's verdict.  For very steep
        utilities (alpha >= ~4) the dual becomes so ill-conditioned that the
        minimiser can stall far from the optimum; when the returned
        allocation is not converged, fall back to a primal SLSQP solve in
        normalized units, which is slower but robust for the evaluation's
        problem sizes.
        """
        compiled = self.compiled
        vec_utils = compiled.vec_utils
        rate_vec, _ = self.primal_rates(prices)
        rate_vec = _rescale_to_feasible_arrays(self, rate_vec)
        objective = float(vec_utils.value(rate_vec).sum())

        links = compiled.link_ids
        price_vec = np.zeros(len(links))  # excluded links report a zero price
        price_vec[self.active_idx] = prices
        best = OracleResult(
            objective=objective,
            iterations=int(minimised.nit),
            converged=bool(minimised.success),
            flow_ids=compiled.flow_id_snapshot(),
            rate_vec=rate_vec,
            link_ids=links,
            price_vec=price_vec,
        )
        if not safeguard:
            return best
        # The reference allocation must respect *all* carrying links,
        # including failed (zero-capacity) ones excluded from the dual --
        # otherwise a dead-link flow looks entitled to a positive rate and
        # the safeguard wrongly rejects the (correct) dual solution.
        maxmin_vec = waterfill_arrays(
            compiled.path_links, np.ones(len(compiled.flow_ids)), self.capacities_all
        )
        maxmin_objective = float(vec_utils.value(maxmin_vec).sum())
        if maxmin_objective > best.objective:
            best = OracleResult(
                rates=dict(zip(compiled.flow_ids, maxmin_vec.tolist())),
                prices={link: 0.0 for link in links},
                objective=maxmin_objective,
                iterations=best.iterations,
                converged=False,
            )
        dual_value = float(minimised.fun)
        objective_scale = self.objective_scale
        gap = dual_value * objective_scale - best.objective
        if gap <= tolerance * objective_scale * max(abs(dual_value), 1.0):
            best.converged = True
        if not best.converged and len(compiled.flows) <= _FALLBACK_MAX_FLOWS:
            fallback = _solve_num_primal(network, max_iterations=max_iterations)
            if fallback.objective >= best.objective:
                return fallback
        return best


class PersistentDualSolver:
    """A dual Oracle whose state survives flow-set changes.

    The dynamic experiments (Fig. 5/7) re-solve the NUM problem on *every*
    arrival/departure batch; a cold :func:`solve_num` per batch would
    recompile the network, re-estimate the conditioning and restart from
    ``z = 0.5`` even when the previous prices sit one step from the
    optimum.  This solver keeps everything that is reusable alive across
    flow-set changes instead:

    * **Compiled snapshot** -- a private :class:`CompiledFluidNetwork`
      brought up to date via its incremental :meth:`~CompiledFluidNetwork.refresh`
      (O(path) ``path_links`` edits replayed from the network's churn
      journal) rather than recompiled per event.
    * **Prices** -- a full-length per-link price vector; the dual optimum
      moves little per churn event, so the previous solve's prices are the
      warm start (links temporarily without flows keep their last price as
      the guess for when they refill).
    * **Curvature** -- the spectral (Barzilai-Borwein) step carried between
      solves.
    * **Conditioning** -- the per-link price scale of
      :func:`estimate_price_scale`, refreshed only every
      ``scale_refresh_interval`` churned solves (it conditions the solver
      but never changes the optimum).

    The minimiser is :func:`_spg_minimize`: the clipped dual is piecewise
    smooth, so a quasi-Newton model is invalidated face by face while the
    spectral step carries over.  Measured by ``benchmarks/e2e`` on
    ``fig5_websearch`` (seed 7; ~135 flows on ~220 active links per solve,
    one arrival or departure apart): a warm solve takes a median of 25-27
    and a 99th percentile of 91-96 iterations (``fluid.oracle_iters_p50`` /
    ``_p99``), none unconverged; the 12-link churn trace of the tests takes
    14.  A fresh solver's first solve is :func:`solve_num`'s cold start
    (:meth:`_DualProblem.cold_start`).

    Parity: warm persistent solves match a tightly converged external
    (scipy L-BFGS-B) solve of the same instance to well within 1e-6
    relative on rates (pinned by the churn-trace tests in
    ``tests/fluid/test_oracle.py`` and gated by the perf harness); the
    allocation it converges to is the same unique NUM optimum.  Multipath
    groups are rejected exactly like :func:`solve_num`.
    """

    def __init__(
        self,
        network: Optional[FluidNetwork] = None,
        tolerance: float = 1e-9,
        max_iterations: int = 2000,
        scale_refresh_interval: int = 32,
        safeguard: bool = False,
    ):
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.scale_refresh_interval = scale_refresh_interval
        self.safeguard = safeguard
        self._network = network
        self._scale_fill = 1.0
        self.reset()

    def reset(self) -> None:
        """Drop all persistent state (next solve starts cold)."""
        self._compiled: Optional[CompiledFluidNetwork] = None
        self._prices_full: Optional[np.ndarray] = None
        self._scale_full: Optional[np.ndarray] = None
        self._scale_valid: Optional[np.ndarray] = None
        self._churned_solves = 0
        self._last_version: Optional[int] = None
        self._last_capacity_version: Optional[int] = None
        self._step: Optional[float] = None
        self._warm = False

    def _refresh_compiled(self, network: FluidNetwork) -> CompiledFluidNetwork:
        if network is not self._network:
            self._network = network
            self.reset()
        compiled = self._compiled
        if compiled is None or compiled.refresh() == "stale":
            compiled = self._compiled = compile_network(network)
        return compiled

    def _scale_for(self, compiled: CompiledFluidNetwork, active_idx: np.ndarray) -> np.ndarray:
        """Cached per-link conditioning for the currently active links.

        A cached scale may predate the current flow set; links that gained
        flows since the last refresh fall back to the median of the cached
        values, which keeps the conditioning in the right ballpark without
        a full recompute.
        """
        if (
            self._scale_full is None
            or self._churned_solves >= self.scale_refresh_interval
        ):
            idx, medians = _scale_medians(compiled)
            n_links = len(compiled.link_ids)
            self._scale_full = np.zeros(n_links)
            self._scale_valid = np.zeros(n_links, dtype=bool)
            self._scale_full[idx] = medians
            self._scale_valid[idx] = True
            self._scale_fill = float(np.median(medians)) if medians.size else 1.0
            self._churned_solves = 0
        scale_vec = self._scale_full[active_idx]
        scale_vec[~self._scale_valid[active_idx]] = self._scale_fill
        return scale_vec

    def solve(self, network: FluidNetwork) -> OracleResult:
        """Solve the NUM problem for the network's current flow set."""
        compiled = self._refresh_compiled(network)
        links = compiled.link_ids
        if network.groups or compiled.grouped:
            raise ValueError("network contains multipath groups; use solve_num_multipath")
        if not compiled.flows:
            return OracleResult(rates={}, prices={link: 0.0 for link in links},
                                objective=0.0, iterations=0, converged=True)
        n_links = len(links)
        if self._prices_full is None or len(self._prices_full) != n_links:
            self._prices_full = np.zeros(n_links)
            self._warm = False
        if self._last_version != compiled.version:
            self._churned_solves += 1
            self._last_version = compiled.version
        if self._last_capacity_version != network.capacity_version:
            # Capacity changed (fault injection, Fig. 10 reconfiguration):
            # the cached conditioning and the spectral step were measured on
            # the old capacities and can be arbitrarily stale, so force a
            # scale refresh and drop the curvature estimate.  Warm prices
            # survive -- the dual optimum moves continuously with capacity.
            if self._last_capacity_version is not None:
                self._scale_full = None
                self._step = None
            self._last_capacity_version = network.capacity_version

        # Dead links keep their warm price for their restoration.
        problem = _DualProblem(compiled)
        active_idx = problem.active_idx
        if not active_idx.size:
            return problem.idle_result(network)
        problem.bind(self._scale_for(compiled, active_idx))

        if self._warm:
            z0 = np.maximum(self._prices_full[active_idx], 0.0) / problem.scale_vec
            precondition = problem.residual_precondition()
        else:
            z0, precondition = problem.cold_start()
        minimised = _spg_minimize(
            problem.dual_and_gradient, z0, self.max_iterations, self.tolerance,
            precondition=precondition, initial_step=self._step,
        )
        self._step = minimised.step
        self._warm = True
        prices = problem.prices(minimised.x)
        self._prices_full[active_idx] = prices
        return problem.result(network, prices, minimised, self.safeguard,
                              self.max_iterations, self.tolerance)


def _slsqp_solve(
    network: FluidNetwork,
    utility_of_rates,
    marginal_of_rates,
    max_iterations: int,
    ftol: float,
) -> OracleResult:
    """Primal SLSQP scaffold shared by the dual fallback and the multipath solver.

    ``utility_of_rates(x)`` is the total utility at physical rates ``x`` (an
    array in ``network.flows`` order); ``marginal_of_rates(x)`` its per-flow
    gradient, or ``None`` to let SLSQP difference the objective (and the
    constraints) numerically.

    Optimizes in units of the largest link capacity so the variables,
    constraints and numerical gradients are all O(1); the objective is
    evaluated at the physical rates, so the optimum is unchanged.  Its
    magnitude varies across utility families, so it is normalized by its
    value at an equal-split starting point to make ``ftol`` behave
    consistently.
    """
    from scipy import optimize  # only the primal fallbacks pay the import

    flows = network.flows
    links = network.links
    link_index = {link: i for i, link in enumerate(links)}
    capacities = np.array([network.capacity(link) for link in links], dtype=float)
    routing = np.zeros((len(links), len(flows)))
    for column, flow in enumerate(flows):
        for link in flow.path:
            routing[link_index[link], column] = 1.0
    rate_unit = float(np.max(capacities))
    scaled_capacities = capacities / rate_unit
    floor = 1e-9

    def physical(y: np.ndarray) -> np.ndarray:
        return np.maximum(y, floor) * rate_unit

    y0 = np.array([network.path_capacity(f.flow_id) / (4.0 * rate_unit) for f in flows])
    objective_scale = max(abs(utility_of_rates(physical(y0))), 1e-12)

    if marginal_of_rates is None:

        def objective(y: np.ndarray) -> float:
            return -utility_of_rates(physical(y)) / objective_scale

    else:

        def objective(y: np.ndarray):
            x = physical(y)
            gradient = marginal_of_rates(x) * rate_unit
            return -utility_of_rates(x) / objective_scale, -gradient / objective_scale

    constraints = []
    for row in range(len(links)):
        constraint = {
            "type": "ineq",
            "fun": lambda y, row=row: scaled_capacities[row] - routing[row] @ y,
        }
        if marginal_of_rates is not None:
            constraint["jac"] = lambda y, row=row: -routing[row]
        constraints.append(constraint)
    result = optimize.minimize(
        objective,
        y0,
        jac=marginal_of_rates is not None,
        method="SLSQP",
        bounds=[(floor, 1.0) for _ in flows],
        constraints=constraints,
        options={"maxiter": max_iterations, "ftol": ftol},
    )
    rates = {
        flow.flow_id: float(max(result.x[column], 0.0) * rate_unit)
        for column, flow in enumerate(flows)
    }
    rates = _rescale_to_feasible(network, rates)
    return OracleResult(
        rates=rates,
        prices={link: 0.0 for link in links},
        objective=network.total_utility(rates),
        iterations=int(result.nit),
        converged=bool(result.success),
    )


def _solve_num_primal(network: FluidNetwork, max_iterations: int = 500) -> OracleResult:
    """Primal SLSQP solve for single-path flows (the dual solver's fallback)."""
    utilities = [flow.utility for flow in network.flows]

    def utility_of_rates(x: np.ndarray) -> float:
        return sum(utility.value(rate) for utility, rate in zip(utilities, x))

    # Analytic gradient: finite differences are hopeless here because for
    # steep utilities the objective's magnitude dwarfs the change produced
    # by SLSQP's default step.
    def marginal_of_rates(x: np.ndarray) -> np.ndarray:
        return np.array([utility.marginal(rate) for utility, rate in zip(utilities, x)])

    return _slsqp_solve(network, utility_of_rates, marginal_of_rates, max_iterations, 1e-12)


def _rescale_to_feasible_arrays(problem: _DualProblem, rates: np.ndarray) -> np.ndarray:
    """Array twin of :func:`_rescale_to_feasible` on :attr:`_DualProblem.hops`."""
    # Active links all have positive capacity; the sentinel's ratio is neutral.
    ratio = np.append(problem.link_sums(rates) / problem.capacities, 1.0)
    if not (ratio > 1.0).any():
        return rates
    worst = np.maximum(ratio, 1.0)[problem.hops].max(axis=0)
    return np.where(worst > 1.0, rates / worst, rates)


def _rescale_to_feasible(network: FluidNetwork, rates: Dict[FlowId, float]) -> Dict[FlowId, float]:
    """Scale rates down uniformly per-flow so no link is oversubscribed.

    The dual solution can be very slightly infeasible due to finite solver
    tolerance; downstream convergence metrics expect a feasible reference.
    """
    load = network.link_load(rates)
    # A failed (zero-capacity) link with any load maps to an infinite
    # overload ratio, which pins every flow crossing it to exactly zero.
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


def solve_num_multipath(
    network: FluidNetwork,
    max_iterations: int = 500,
    tolerance: float = 1e-9,
) -> OracleResult:
    """Solve the NUM problem when flows are grouped into multipath aggregates.

    The objective is ``sum_g U_g(sum of member sub-flow rates)`` plus the
    individual utilities of ungrouped flows.  Solved in the primal with
    SLSQP; intended for the evaluation's scale (hundreds of sub-flows).
    """
    flows = network.flows
    if not flows:
        return OracleResult(rates={}, prices={link: 0.0 for link in network.links},
                            objective=0.0, iterations=0, converged=True)
    flow_index = {flow.flow_id: i for i, flow in enumerate(flows)}
    groups = network.groups
    grouped_members = {m for g in groups for m in g.member_ids}
    ungrouped = [flow for flow in flows if flow.flow_id not in grouped_members]

    def utility_of_rates(x: np.ndarray) -> float:
        total = 0.0
        for group in groups:
            aggregate = sum(x[flow_index[m]] for m in group.member_ids if m in flow_index)
            total += group.utility.value(aggregate)
        for flow in ungrouped:
            total += flow.utility.value(x[flow_index[flow.flow_id]])
        return total

    return _slsqp_solve(network, utility_of_rates, None, max_iterations, tolerance)


def proportional_fair_single_link(capacity: float, n_flows: int) -> List[float]:
    """Closed form: proportional fairness on one link is an equal split."""
    if n_flows <= 0:
        return []
    return [capacity / n_flows] * n_flows


def alpha_fair_single_link(capacity: float, weights: List[float], alpha: float) -> List[float]:
    """Closed-form weighted alpha-fair split of a single link.

    At the optimum each flow gets ``capacity * w_i / sum w`` independent of
    alpha (for alpha > 0), because the single-link weighted alpha-fair
    problem always allocates in proportion to the weights.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive for a unique optimum")
    total = sum(weights)
    return [capacity * w / total for w in weights]
