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

Every single-path answer carries an :class:`OracleCertificate` -- its KKT
residuals, computed by :meth:`_DualProblem.certificate` -- and is
``converged`` exactly when every residual is at most :data:`CERTIFIED`;
the answer itself is never rewritten.  :func:`certify` applies the same
check to any rates and prices, for instance a fluid simulator's state.

No single-path solve imports scipy.  Only :func:`solve_num_multipath`
does, inside the function, never by ``import repro``.  The external
reference the tight Oracle gates compare
against -- scipy L-BFGS-B on the same scaled dual -- lives with the tests
(``tests/fluid/_oracle_reference.py``), beside the per-flow dict
assembly of the same dual that ``tests/fluid/test_oracle.py`` pins the
array dual to.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.fluid.network import FluidNetwork, FlowId, LinkId
from repro.fluid.vectorized import CompiledFluidNetwork, compile_network, dict_of

# Not called here: the e2e span table (benchmarks/e2e/trace.py) binds
# ``repro.fluid.oracle:waterfill_arrays`` by name.
from repro.fluid.vectorized import waterfill_arrays  # noqa: F401

_MIN_RATE_FRACTION = 1e-9

#: SPG iteration cap of every single-path solve.
_MAX_ITERATIONS = 2000
#: SPG's relative objective-stall tolerance (an L-BFGS-B-style ``ftol``).
_TOLERANCE = 1e-9
#: An answer is ``converged`` when its worst certificate term is at most this.
CERTIFIED = 1e-6


@dataclass(frozen=True)
class OracleCertificate:
    """KKT residuals of one allocation and its link prices, each relative.

    All four are zero at an exact NUM optimum (see
    :meth:`_DualProblem.certificate` for the definitions):

    * ``overload`` -- the largest relative link overload, before the
      feasibility rescale;
    * ``stationarity`` -- the largest per-flow ``|U'(x) - q| / max(U'(x), q)``,
      one-sided at a flow's path cap or rate floor;
    * ``slackness`` -- complementary slackness: a link's relative slack
      times its price's share of each crossing flow's path price;
    * ``gap`` -- the duality gap, relative to the dual value.
    """

    overload: float
    stationarity: float
    slackness: float
    gap: float

    @property
    def worst(self) -> float:
        return max(self.overload, self.stationarity, self.slackness, self.gap)


#: The certificate of an answer no price can improve (no flows, or no link
#: that can carry anything).
_EXACT = OracleCertificate(0.0, 0.0, 0.0, 0.0)


def _no_flows(links: Sequence[LinkId]) -> "OracleResult":
    return OracleResult(rates={}, prices={link: 0.0 for link in links},
                        objective=0.0, iterations=0, certificate=_EXACT)


class OracleResult:
    """Optimal allocation returned by the Oracle.

    Shaped like :class:`~repro.fluid.vectorized.IterationRecord`: the array
    dual passes the id snapshots (``flow_ids``, ``link_ids``) and its
    vectors (``rate_vec``, ``price_vec``, kept by reference and made
    read-only), and ``rates`` / ``prices`` are cached properties, built on
    first read.  The idle and multipath results pass the dicts themselves,
    which land where the cache would, and leave the vectors ``None``.

    A single-path result carries its :class:`OracleCertificate` and is
    ``converged`` when the certificate's worst term is at most
    :data:`CERTIFIED`; a multipath result has no certificate and passes
    SLSQP's own verdict as ``converged``.
    """

    rate_vec: Optional[np.ndarray] = None
    price_vec: Optional[np.ndarray] = None

    def __init__(
        self,
        *,
        objective: float,
        iterations: int,
        certificate: Optional[OracleCertificate] = None,
        converged: bool = False,
        rates: Optional[Dict[FlowId, float]] = None,
        prices: Optional[Dict[LinkId, float]] = None,
        flow_ids: Sequence[FlowId] = (),
        rate_vec: Optional[np.ndarray] = None,
        link_ids: Sequence[LinkId] = (),
        price_vec: Optional[np.ndarray] = None,
    ):
        self.objective = objective
        self.iterations = iterations
        self.certificate = certificate
        self.converged = certificate.worst <= CERTIFIED if certificate else converged
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
    :class:`PersistentDualSolver` keeps it across flow-set changes and
    re-estimates it only when a link without one starts carrying flows.
    Single-path flows only (multipath groups are rejected by the callers).
    """
    compiled = compile_network(network)
    problem = _DualProblem(compiled)
    return {
        compiled.link_ids[idx]: value
        for idx, value in zip(problem.active_idx.tolist(), problem.scale_medians().tolist())
    }


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D array of finite values, same bits, without its
    wrapper layers: one partition, and the mean of the two middle elements
    for an even count."""
    half = values.size // 2
    if values.size % 2:
        return float(np.partition(values, half)[half])
    low, high = np.partition(values, (half - 1, half))[half - 1 : half + 1]
    return float((low + high) / 2.0)


def solve_num(network: FluidNetwork) -> OracleResult:
    """Solve ``max sum_i U_i(x_i)`` s.t. ``Rx <= c`` for single-path flows.

    The cold solve: every call starts from ``z = 0.5`` with the Jacobi
    preconditioner and minimises the dual with :func:`_spg_minimize`.
    Flows that belong to a group (multipath aggregates) are not supported
    here; use :func:`solve_num_multipath`.  The result is the minimiser's
    answer, certified (:class:`OracleCertificate`) but never rewritten:
    ``converged`` is false where the certificate rejects it.

    Links carrying no flows are excluded from the dual and reported with a
    price of exactly zero (their capacity cannot constrain anything).
    """
    flows = network.flows
    if any(flow.group_id is not None for flow in flows):
        raise ValueError("network contains multipath groups; use solve_num_multipath")
    if not flows:
        return _no_flows(network.links)
    compiled = compile_network(network)
    problem = _DualProblem(compiled)
    if not problem.active_idx.size:
        return problem.idle_result(network)
    problem.bind(problem.scale_medians())
    z0, precondition = problem.cold_start()
    minimised = _spg_minimize(problem.dual_and_gradient, z0, precondition)
    return problem.result(problem.prices(minimised.x), minimised)


def certify(
    network: FluidNetwork, rates: Mapping[FlowId, float], prices: Mapping[LinkId, float]
) -> OracleCertificate:
    """The :class:`OracleCertificate` of any single-path allocation and prices.

    The Oracle's own check, applied from outside: ``rates`` maps every flow
    of ``network`` to its rate and ``prices`` every link carrying flows to
    its price (a fluid simulator's ``record.rates`` and ``simulator.prices``,
    for example).  Links without flows or capacity are ignored, as in the
    dual.
    """
    compiled = compile_network(network)
    problem = _DualProblem(compiled)
    if not problem.active_idx.size:
        return _EXACT
    problem.bind(problem.scale_medians())
    rate_vec = np.array([rates[flow_id] for flow_id in compiled.flow_ids], dtype=float)
    price_vec = np.array(
        [prices[compiled.link_ids[idx]] for idx in problem.active_idx.tolist()], dtype=float
    )
    dual_value, _ = problem.dual_and_gradient(price_vec / problem.scale_vec)
    _, path_prices = problem.primal_rates(price_vec)
    objective = float(compiled.vec_utils.value(rate_vec).sum())
    return problem.certificate(rate_vec, price_vec, path_prices, dual_value, objective)


@dataclass
class _SpgResult:
    """Mirror of the scipy result fields the dual solvers consume."""

    x: np.ndarray
    fun: float
    nit: int
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

    Stops after :data:`_MAX_ITERATIONS`, or when the preconditioned
    projected gradient drops below :data:`_SPG_PGTOL` or the scaled
    objective stalls below :data:`_TOLERANCE` (relative) for
    :data:`_SPG_STALL_LIMIT` consecutive iterations while the projected
    gradient is already below :data:`_SPG_STALL_PGTOL` -- an
    L-BFGS-B-style ``ftol`` contract, guarded against BB's nonmonotone
    plateaus.  ``initial_step`` carries the spectral (curvature) state
    across solves for :class:`PersistentDualSolver`.
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
    for nit in range(1, _MAX_ITERATIONS + 1):
        trial = np.maximum(z - step * step_direction, 0.0)
        d = trial - z
        dg = float(d @ g)
        if dg >= 0.0:  # no feasible descent direction: stationary point
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
        stalls = stalls + 1 if abs(f - f_new) <= _TOLERANCE * max(abs(f), abs(f_new), 1.0) else 0
        z, f, g = z_new, f_new, g_new
        recent.append(f)
        step_direction = precondition * g
        projected_gradient = z - np.maximum(z - step_direction, 0.0)
        # ufunc.reduce directly: np.max's wrapper layers cost more than the reduction
        pg_norm = float(np.maximum.reduce(np.abs(projected_gradient), initial=0.0))
        if pg_norm <= _SPG_PGTOL or (
            stalls >= _SPG_STALL_LIMIT and pg_norm <= _SPG_STALL_PGTOL
        ):
            break
    return _SpgResult(x=z, fun=f, nit=nit, step=step)


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
        capacities = compiled.capacities_vector()
        n_links = len(compiled.link_ids)
        path_links = compiled.path_links
        carrying = np.bincount(path_links.ravel(), minlength=n_links + 1)[:n_links] > 0
        # Failed (zero-capacity) links are excluded like flowless ones: their
        # price stays zero and path-capacity clipping already pins every flow
        # crossing them to a zero rate, so they cannot condition the dual.
        self.active_idx = np.nonzero(carrying & (capacities > 0.0))[0]
        n_active = self.active_idx.size
        remap = np.full(n_links + 1, n_active, dtype=np.intp)
        remap[self.active_idx] = np.arange(n_active)
        self.hops = remap.take(path_links.T)  # take: C-contiguous hops x flows
        # link_sums' bincount input: the hops and a weights buffer, flat views.
        self._hops_flat = self.hops.ravel()
        self._hop_values = np.empty(self.hops.shape)
        self._hop_values_flat = self._hop_values.ravel()
        self.capacities = capacities[self.active_idx]
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

    def scale_medians(self) -> np.ndarray:
        """Per-active-link price scale: the median marginal at an equal share.

        The array core of :func:`estimate_price_scale`, on :attr:`hops`:
        every hop's marginal at its link's equal share, sorted by link and
        then by marginal, and each link's upper median picked from its run
        (the sentinel's placeholder rate 1.0 is never picked).
        """
        n_active = self.capacities.size
        counts = np.bincount(self._hops_flat, minlength=n_active + 1)
        shares = np.ones(n_active + 1)
        np.divide(self.capacities, counts[:n_active], out=shares[:n_active])
        marginals = self.compiled.vec_utils.marginal(shares[self.hops]).ravel()
        # Sorted by link, then marginal: link l's run starts at first[l] and
        # its upper median sits counts[l] // 2 into it.
        order = np.lexsort((marginals, self._hops_flat))
        first = np.cumsum(counts) - counts
        medians = marginals[order[first[:n_active] + counts[:n_active] // 2]]
        return np.maximum(medians, 1e-300)

    def idle_result(self, network: FluidNetwork) -> OracleResult:
        """The allocation when no link can carry anything: every rate is zero."""
        rates = {flow_id: 0.0 for flow_id in self.compiled.flow_ids}
        return OracleResult(rates=rates, prices={link: 0.0 for link in self.compiled.link_ids},
                            objective=network.total_utility(rates),
                            iterations=0, certificate=_EXACT)

    def bind(self, scale_vec: np.ndarray) -> None:
        """Fix the price scale (``p_l = scale_l * z_l``) and build the closures.

        The utility kernels are bound here, once per solve
        (:meth:`VectorizedUtilities.kernels`), and an evaluation writes the
        prices straight into the gather buffer and sums the hop loads
        itself: at ~200 links every call layer costs more than its work.
        """
        inverse_clipped, utility_value = self.compiled.vec_utils.kernels()
        hops, capacities = self.hops, self.capacities
        path_caps, floors = self.path_caps, self.floors
        objective_scale = float(np.maximum.reduce(capacities) * _median(scale_vec))
        gradient_scale = scale_vec / objective_scale
        hops_flat, hop_loads = self._hops_flat, self._hop_values
        hop_loads_flat = self._hop_values_flat
        # Reused by every evaluation: gather target and the prices with their
        # zero sentinel entry.
        n_active = capacities.size
        hop_prices = np.empty(hops.shape)
        prices_ext = np.zeros(n_active + 1)
        prices_buf = prices_ext[:n_active]

        def buffered_rates() -> Tuple[np.ndarray, np.ndarray]:
            """Rates and path prices at the prices in ``prices_buf``."""
            prices_ext.take(hops, out=hop_prices, mode="clip")  # "raise" buffers out
            path_prices = np.add.reduce(hop_prices, axis=0)  # .sum(axis=0) without its wrapper
            rates = inverse_clipped(path_prices, path_caps)
            return np.maximum(rates, floors, out=rates), path_prices

        def primal_rates(prices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            prices_buf[:] = prices
            return buffered_rates()

        def dual_and_gradient(z: np.ndarray) -> Tuple[float, np.ndarray]:
            prices = np.multiply(scale_vec, z, out=prices_buf)
            rates, path_prices = buffered_rates()
            utility_sum = np.add.reduce(utility_value(rates))
            value = float(prices @ capacities + utility_sum - rates @ path_prices)
            hop_loads[:] = rates
            loads = np.bincount(hops_flat, weights=hop_loads_flat, minlength=n_active + 1)
            gradient = capacities - loads[:n_active]
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
        utility is a power-law demand ``x ~ q^(-1/a)``, so
        ``|dx/dq| = x / (a * q)``.  Evaluated at the start point, this
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

    def certificate(
        self,
        rates: np.ndarray,
        prices: np.ndarray,
        path_prices: np.ndarray,
        dual_value: float,
        objective: float,
    ) -> OracleCertificate:
        """The :class:`OracleCertificate` of physical ``rates`` and active-link ``prices``.

        ``rates`` are the allocation before any feasibility rescale,
        ``path_prices`` the per-flow sums of ``prices``, ``dual_value`` the
        scaled dual at ``prices`` (times :attr:`objective_scale`, an upper
        bound on every feasible objective) and ``objective`` the utility of
        the allocation handed out.  A flow
        at its path cap is held only to ``U'(x) >= q``, one at its rate
        floor only to ``U'(x) <= q``.  Slackness is per flow: the largest
        ``slack_l * p_l`` over its links over its path price ``q``, so a
        flow whose priced links all have room fails it.  The gap is relative
        like the minimiser's stall test.
        """
        ratio = self.link_sums(rates) / self.capacities
        marginals = self.compiled.vec_utils.marginal(rates)
        excess = marginals - path_prices
        np.minimum(excess, 0.0, out=excess, where=rates >= self.path_caps)
        np.maximum(excess, 0.0, out=excess, where=rates <= self.floors)
        stationarity = np.zeros(rates.size)
        np.divide(np.abs(excess), np.maximum(marginals, path_prices), out=stationarity,
                  where=excess != 0.0)
        # Priced slack per link, with a zero entry for the sentinel hop.
        priced_slack = np.append(prices * np.maximum(1.0 - ratio, 0.0), 0.0)
        slackness = np.zeros(rates.size)
        np.divide(np.maximum.reduce(priced_slack[self.hops], axis=0), path_prices,
                  out=slackness, where=path_prices > 0.0)
        scale = self.objective_scale
        gap = abs(dual_value * scale - objective) / (scale * max(abs(dual_value), 1.0))
        # ufunc.reduce directly, as in the SPG loop: ndarray.max's wrapper costs more
        largest = np.maximum.reduce
        return OracleCertificate(
            overload=max(float(largest(ratio)) - 1.0, 0.0),
            stationarity=float(largest(stationarity)),
            slackness=float(largest(slackness)),
            gap=gap,
        )

    def result(self, prices: np.ndarray, minimised) -> OracleResult:
        """Pack the minimiser's prices into a feasible, certified allocation.

        ``minimised`` is the minimiser's result (``fun``, ``nit``); ``prices``
        are the physical prices at its ``x``.  The rates are the dual's primal
        point at those prices, scaled down onto the capacity region
        (:func:`_rescale_to_feasible_arrays`); the certificate is of that
        point, so its ``overload`` term bounds the rescale.
        """
        compiled = self.compiled
        raw, path_prices = self.primal_rates(prices)
        rate_vec = _rescale_to_feasible_arrays(self, raw)
        objective = float(compiled.vec_utils.value(rate_vec).sum())
        certificate = self.certificate(raw, prices, path_prices, float(minimised.fun), objective)
        price_vec = np.zeros(len(compiled.link_ids))  # excluded links report a zero price
        price_vec[self.active_idx] = prices
        return OracleResult(
            objective=objective,
            iterations=int(minimised.nit),
            certificate=certificate,
            flow_ids=compiled.flow_id_snapshot(),
            rate_vec=rate_vec,
            link_ids=compiled.link_ids,
            price_vec=price_vec,
        )


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
      :func:`estimate_price_scale`, re-estimated for every active link
      when a link without a cached scale starts carrying flows (it
      conditions the solver but never changes the optimum).

    The minimiser is :func:`_spg_minimize`: the clipped dual is piecewise
    smooth, so a quasi-Newton model is invalidated face by face while the
    spectral step carries over.  Measured by ``benchmarks/e2e`` on
    ``fig5_websearch`` (seed 7; ~135 flows on ~220 active links per solve,
    one arrival or departure apart): a warm solve takes a median of 25
    and a 99th percentile of 77 iterations (``fluid.oracle_iters_p50`` /
    ``_p99``), and all 705 answers certify (worst term 1.0e-7); the
    12-link churn trace of the tests takes 14.  A fresh solver's first
    solve is :func:`solve_num`'s cold start (:meth:`_DualProblem.cold_start`).

    Parity: warm persistent solves certify on every churn trace of
    ``tests/fluid/test_oracle.py`` and match a tightly converged external
    (scipy L-BFGS-B) solve of the same instance to within 1e-6 relative on
    rates wherever that reference pins them (also gated by the perf
    harness).  Multipath groups are rejected exactly like :func:`solve_num`.
    """

    def __init__(self, network: Optional[FluidNetwork] = None):
        self._network = network
        self.reset()

    def reset(self) -> None:
        """Drop all persistent state (next solve starts cold)."""
        self._compiled: Optional[CompiledFluidNetwork] = None
        self._prices_full: Optional[np.ndarray] = None
        self._scale_full: Optional[np.ndarray] = None
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

    def _scale_for(self, problem: _DualProblem) -> np.ndarray:
        """Cached per-link conditioning for the currently active links.

        A cached scale may predate the current flow set.  Once any active
        link has none (it gained its first flows since the last estimate),
        every active link is re-estimated from the current flows.
        """
        active_idx = problem.active_idx
        # Estimates are at least 1e-300: a zero entry means "none cached".
        if self._scale_full is None or not self._scale_full[active_idx].all():
            self._scale_full = np.zeros(len(problem.compiled.link_ids))
            self._scale_full[active_idx] = problem.scale_medians()
        return self._scale_full[active_idx]

    def solve(self, network: FluidNetwork) -> OracleResult:
        """Solve the NUM problem for the network's current flow set."""
        compiled = self._refresh_compiled(network)
        links = compiled.link_ids
        if network.groups or compiled.grouped:
            raise ValueError("network contains multipath groups; use solve_num_multipath")
        if not compiled.flows:
            return _no_flows(links)
        n_links = len(links)
        if self._prices_full is None or len(self._prices_full) != n_links:
            self._prices_full = np.zeros(n_links)
            self._scale_full = None
            self._warm = False
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
        problem.bind(self._scale_for(problem))

        if self._warm:
            z0 = np.maximum(self._prices_full[active_idx], 0.0) / problem.scale_vec
            precondition = problem.residual_precondition()
        else:
            z0, precondition = problem.cold_start()
        minimised = _spg_minimize(
            problem.dual_and_gradient, z0, precondition, initial_step=self._step
        )
        self._step = minimised.step
        self._warm = True
        prices = problem.prices(minimised.x)
        self._prices_full[active_idx] = prices
        return problem.result(prices, minimised)


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

    A solver's answer can be very slightly infeasible due to its finite
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
    SLSQP, which differences the objective and constraints numerically;
    intended for the evaluation's scale (hundreds of sub-flows).

    Optimizes in units of the largest link capacity so the variables,
    constraints and numerical gradients are all O(1); the objective is
    evaluated at the physical rates, so the optimum is unchanged.  Its
    magnitude varies across utility families, so it is normalized by its
    value at an equal-split starting point to make ``ftol`` behave
    consistently.
    """
    from scipy import optimize  # only multipath solves pay the import

    flows = network.flows
    links = network.links
    if not flows:
        return _no_flows(links)
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

    def objective(y: np.ndarray) -> float:
        return -utility_of_rates(physical(y)) / objective_scale

    constraints = [
        {"type": "ineq", "fun": lambda y, row=row: scaled_capacities[row] - routing[row] @ y}
        for row in range(len(links))
    ]
    result = optimize.minimize(
        objective,
        y0,
        method="SLSQP",
        bounds=[(floor, 1.0) for _ in flows],
        constraints=constraints,
        options={"maxiter": max_iterations, "ftol": tolerance},
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
