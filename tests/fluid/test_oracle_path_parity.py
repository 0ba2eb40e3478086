"""Parity suite for the path-indexed Oracle.

``_DualProblem`` evaluates the dual on ``hops`` -- the compiled
``path_links`` remapped into active-link index space -- instead of a dense
link x flow incidence.  These tests pin every piece that moved to a dense
reference assembled *here* from ``path_links`` (1e-12 relative), on the
shapes where padding, the sentinel and the remap matter: ragged 1/2/4-hop
rows, links that carry no flow, zero-capacity links that do, a single flow,
mixed utility families and the slot order a churned snapshot is left in.
"""

import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import AlphaFairUtility, FctUtility, LogUtility, WeightedAlphaFairUtility
from repro.fluid import oracle
from repro.fluid.network import FluidFlow, FluidNetwork
from repro.fluid.oracle import PersistentDualSolver
from repro.fluid.topologies import leaf_spine
from repro.fluid.vectorized import compile_network

from _fluid_reference import Reference
from _oracle_reference import scalar_price_scale
from test_scheme_backend_parity import SCHEMES, add_to_both, assert_step_parity, make_pair

RELATIVE = 1e-12


def _utility(kind, parameter):
    if kind == "log":
        return LogUtility(weight=parameter)
    if kind == "alpha":
        return AlphaFairUtility(alpha=parameter)
    if kind == "walpha":
        return WeightedAlphaFairUtility(weight=parameter, alpha=2.0)
    return FctUtility(flow_size=1e5 * parameter)


@st.composite
def churned_snapshots(draw):
    """A compiled snapshot after churn, plus the network it tracks.

    Integer capacities (0 = a failed link) and a handful of utility
    parameters force ties between marginals; paths are ragged (1, 2 or 4
    hops) and most draws leave some link without a flow.  The snapshot is
    compiled on the first flows and *refreshed* through the departures and
    the late arrivals, so its slots are in admission/swap order and its hop
    axis may be wider than any surviving path.
    """
    n_links = draw(st.integers(min_value=1, max_value=8), label="links")
    links = [f"l{i}" for i in range(n_links)]
    network = FluidNetwork({link: 1e9 for link in links})
    for link in links:  # a link can only fail after construction
        network.set_capacity(link, 1e9 * draw(st.sampled_from([0, 1, 2, 4, 8]), label="capacity"))
    kinds = ["log"] if draw(st.booleans(), label="all_log") else ["log", "alpha", "walpha", "fct"]
    n_flows = draw(st.integers(min_value=1, max_value=12), label="flows")

    def add(flow_id):
        length = min(draw(st.sampled_from([1, 2, 4]), label="hops"), n_links)
        start = draw(st.integers(min_value=0, max_value=n_links - 1), label="start")
        stride = draw(st.sampled_from([1, -1]), label="stride")
        path = tuple(links[(start + stride * i) % n_links] for i in range(length))
        utility = _utility(
            draw(st.sampled_from(kinds), label="family"),
            draw(st.sampled_from([0.5, 1.0, 2.0]), label="parameter"),
        )
        network.add_flow(FluidFlow(flow_id, path, utility))

    early = draw(st.integers(min_value=0, max_value=n_flows), label="early")
    for flow_id in range(early):
        add(flow_id)
    compiled = compile_network(network)
    departures = st.lists(st.sampled_from(range(early)), unique=True) if early else st.just([])
    for flow_id in draw(departures):
        if len(network.flows) > 1:
            network.remove_flow(flow_id)
    for flow_id in range(early, n_flows):
        add(flow_id)
    if not network.flows:
        add(n_flows)
    assert compiled.refresh() in ("updated", "current")
    return network, compiled


def dense_incidence(compiled):
    """Boolean link x flow matrix spelled out from ``path_links`` entry by entry."""
    n_links = len(compiled.link_ids)
    dense = np.zeros((n_links, len(compiled.flow_ids)), dtype=bool)
    for slot, row in enumerate(compiled.path_links.tolist()):
        for link in row:
            if link != n_links:
                dense[link, slot] = True
    return dense


class DenseDual:
    """The dual as the dense-incidence Oracle evaluated it (mat-vec formulas)."""

    def __init__(self, compiled, scale_vec):
        incidence = dense_incidence(compiled)
        caps_all = compiled.capacities_vector()
        self.active = incidence.any(axis=1) & (caps_all > 0.0)
        self.incidence = incidence[self.active]
        self.incidence_f = self.incidence.astype(float)
        self.capacities = caps_all[self.active]
        self.path_caps = np.where(incidence, caps_all[:, None], np.inf).min(axis=0)
        self.floors = self.path_caps * oracle._MIN_RATE_FRACTION
        self.vec_utils = compiled.vec_utils
        self.scale_vec = scale_vec
        self.objective_scale = float(np.max(self.capacities) * np.median(scale_vec))

    def primal_rates(self, prices):
        path_prices = self.incidence_f.T @ prices
        rates = self.vec_utils.inverse_marginal_clipped(path_prices, self.path_caps)
        return np.maximum(rates, self.floors), path_prices

    def dual_and_gradient(self, z):
        prices = self.scale_vec * z
        rates, path_prices = self.primal_rates(prices)
        value = float(
            prices @ self.capacities + self.vec_utils.value(rates).sum() - rates @ path_prices
        )
        gradient = self.scale_vec * (self.capacities - self.incidence_f @ rates)
        return value / self.objective_scale, gradient / self.objective_scale


def bound_pair(compiled, seed):
    """(path-indexed problem, dense reference) bound to one random price scale."""
    problem = oracle._DualProblem(compiled)
    rng = np.random.default_rng(seed)
    scale_vec = rng.uniform(0.5, 2.0, problem.active_idx.size) / problem.capacities
    problem.bind(scale_vec)
    return problem, DenseDual(compiled, scale_vec), rng


def assert_vectors_close(got, want, scale=None):
    """Elementwise 1e-12 relative; ``scale`` bounds the terms a difference cancels."""
    floor = RELATIVE * (float(np.max(np.abs(scale))) if scale is not None and scale.size else 0.0)
    np.testing.assert_allclose(got, want, rtol=RELATIVE, atol=floor)


class TestDualAgainstDenseReference:
    @settings(max_examples=150, deadline=None)
    @given(snapshot=churned_snapshots(), seed=st.integers(min_value=0, max_value=2**16))
    def test_rates_value_and_gradient(self, snapshot, seed):
        _, compiled = snapshot
        problem = oracle._DualProblem(compiled)
        if not problem.active_idx.size:
            return  # every carrying link failed: the solvers return idle_result
        problem, dense, rng = bound_pair(compiled, seed)
        np.testing.assert_array_equal(problem.active_idx, np.nonzero(dense.active)[0])
        np.testing.assert_array_equal(problem.path_caps, dense.path_caps)
        n_active = problem.active_idx.size
        assert problem.hops.flags.c_contiguous and problem.hops.max(initial=0) <= n_active
        for z in (
            rng.uniform(0.0, 2.0, n_active),
            np.zeros(n_active),  # every path price is zero: rates sit at the caps
            np.where(rng.random(n_active) < 0.5, 0.0, rng.uniform(0.0, 3.0, n_active)),
        ):
            prices = problem.scale_vec * z
            rates, path_prices = problem.primal_rates(prices)
            want_rates, want_path_prices = dense.primal_rates(prices)
            assert_vectors_close(path_prices, want_path_prices)
            assert_vectors_close(rates, want_rates)
            value, gradient = problem.dual_and_gradient(z)
            want_value, want_gradient = dense.dual_and_gradient(z)
            assert value == pytest.approx(want_value, rel=RELATIVE, abs=RELATIVE)
            # A gradient entry is scale * (capacity - load): compare at the
            # size of the terms, which cancel on a saturated link.
            assert_vectors_close(
                gradient, want_gradient,
                scale=dense.scale_vec * dense.capacities / dense.objective_scale,
            )

    def test_gradient_is_a_fresh_array_per_call(self):
        # The minimisers keep g and g_new alive together (y = g_new - g).
        network = FluidNetwork({"a": 1e9, "b": 2e9})
        network.add_flow(FluidFlow(0, ("a", "b"), LogUtility()))
        problem, _, _ = bound_pair(compile_network(network), seed=0)
        _, first = problem.dual_and_gradient(np.array([0.5, 0.5]))
        kept = first.copy()
        _, second = problem.dual_and_gradient(np.array([1.5, 0.1]))
        assert second is not first
        np.testing.assert_array_equal(first, kept)

    def test_single_flow(self):
        network = FluidNetwork({"a": 4e9, "idle": 1e9, "b": 2e9})
        network.add_flow(FluidFlow("only", ("b", "a"), AlphaFairUtility(alpha=2.0)))
        problem, dense, rng = bound_pair(compile_network(network), seed=1)
        assert problem.active_idx.tolist() == [0, 2] and problem.hops.tolist() == [[1], [0]]
        z = rng.uniform(0.1, 2.0, 2)
        assert problem.dual_and_gradient(z)[0] == pytest.approx(
            dense.dual_and_gradient(z)[0], rel=RELATIVE
        )
        assert_vectors_close(problem.dual_and_gradient(z)[1], dense.dual_and_gradient(z)[1])

    def test_hops_on_a_failed_link_fall_on_the_sentinel(self):
        # Row-slicing the dense matrix dropped a dead link's row; the remap
        # sends its hops to the sentinel next to the padding.
        network = FluidNetwork({"up": 10e9, "dead": 1e9, "idle": 5e9, "other": 10e9})
        network.set_capacity("dead", 0.0)
        network.add_flow(FluidFlow("a", ("up",), LogUtility()))
        network.add_flow(FluidFlow("ab", ("dead", "up", "other"), LogUtility(weight=2.0)))
        network.add_flow(FluidFlow("b", ("other", "dead"), FctUtility(flow_size=1e6)))
        compiled = compile_network(network)
        problem, dense, rng = bound_pair(compiled, seed=2)
        assert problem.active_idx.tolist() == [0, 3]
        assert problem.hops.tolist() == [[0, 2, 1], [2, 0, 2], [2, 1, 2]]
        z = rng.uniform(0.1, 2.0, 2)
        rates, _ = problem.primal_rates(problem.scale_vec * z)
        assert rates.tolist()[1:] == [0.0, 0.0]  # pinned by the zero path capacity
        assert_vectors_close(problem.dual_and_gradient(z)[1], dense.dual_and_gradient(z)[1])
        result = PersistentDualSolver().solve(network)
        assert result.prices["dead"] == 0.0 and result.prices["idle"] == 0.0
        assert result.rates["a"] == pytest.approx(10e9, rel=1e-6)


def scale_medians(compiled):
    """(active link indices, price-scale medians) of a compiled snapshot."""
    problem = oracle._DualProblem(compiled)
    return problem.active_idx, problem.scale_medians()


class TestScaleMedians:
    @settings(max_examples=150, deadline=None)
    @given(snapshot=churned_snapshots())
    def test_matches_the_scalar_loop_element_for_element(self, snapshot):
        network, compiled = snapshot
        scalar = scalar_price_scale(network)
        active_idx, medians = scale_medians(compiled)
        assert [compiled.link_ids[i] for i in active_idx.tolist()] == [
            link for link in compiled.link_ids if link in scalar
        ]
        all_log = all(type(flow.utility) is LogUtility for flow in network.flows)
        for link_idx, median in zip(active_idx.tolist(), medians.tolist()):
            want = scalar[compiled.link_ids[link_idx]]
            # Log marginals are one division in both loops: the same element
            # means the same bits.  Other power laws go through ``**``.
            assert median == want if all_log else median == pytest.approx(want, rel=RELATIVE)

    def test_even_count_link_takes_the_upper_median_and_ties_are_harmless(self):
        network = FluidNetwork({"even": 8e9, "odd": 3e9, "idle": 1e9})
        for flow_id, weight in enumerate([3.0, 1.0, 2.0, 2.0]):
            network.add_flow(FluidFlow(flow_id, ("even",), LogUtility(weight=weight)))
        for flow_id, weight in enumerate([5.0, 5.0, 1.0], start=4):
            network.add_flow(FluidFlow(flow_id, ("odd", "even"), LogUtility(weight=weight)))
        active_idx, medians = scale_medians(compile_network(network))
        assert active_idx.tolist() == [0, 1]
        # "even": 7 flows at share 8e9/7, weights sorted 1 1 2 2 3 5 5 -> 2;
        # "odd": 3 flows at share 1e9, weights sorted 1 5 5 -> the tied 5.
        assert medians.tolist() == [2.0 / (8e9 / 7), 5.0 / 1e9]
        # Even counts: "even" carries six flows, weights sorted 1 2 2 | 3 5 5 ->
        # the upper median 3; "odd" carries two, 5 | 5 -> 5.
        network.remove_flow(6)
        active_idx, medians = scale_medians(compile_network(network))
        assert medians.tolist() == [3.0 / (8e9 / 6), 5.0 / 1.5e9]
        assert scalar_price_scale(network) == {
            "even": medians[0], "odd": medians[1]
        }


class TestFeasibilityRescale:
    @settings(max_examples=150, deadline=None)
    @given(snapshot=churned_snapshots(), seed=st.integers(min_value=0, max_value=2**16))
    def test_matches_the_dict_rule(self, snapshot, seed):
        network, compiled = snapshot
        problem = oracle._DualProblem(compiled)
        rng = np.random.default_rng(seed)
        # Up to 3x oversubscribed, and never above the path capacity: flows
        # on a failed link arrive at zero, as the dual's clipping leaves them.
        rates = np.minimum(rng.uniform(0.0, 3e9, len(compiled.flow_ids)), problem.path_caps)
        got = oracle._rescale_to_feasible_arrays(problem, rates)
        want = oracle._rescale_to_feasible(network, dict(zip(compiled.flow_ids, rates.tolist())))
        assert_vectors_close(got, np.array([want[flow_id] for flow_id in compiled.flow_ids]))
        assert network.is_feasible(dict(zip(compiled.flow_ids, got.tolist())), tolerance=1e-9)

    def test_feasible_rates_are_returned_untouched(self):
        network = FluidNetwork({"a": 2e9, "b": 1e9})
        network.add_flow(FluidFlow(0, ("a", "b"), LogUtility()))
        network.add_flow(FluidFlow(1, ("a",), LogUtility()))
        problem = oracle._DualProblem(compile_network(network))
        rates = np.array([1e9, 1e9])
        assert oracle._rescale_to_feasible_arrays(problem, rates) is rates


class TestJacobiPrecondition:
    @settings(max_examples=100, deadline=None)
    @given(snapshot=churned_snapshots(), seed=st.integers(min_value=0, max_value=2**16))
    def test_matches_the_dense_curvature_sum(self, snapshot, seed):
        _, compiled = snapshot
        if not oracle._DualProblem(compiled).active_idx.size:
            return
        problem, dense, rng = bound_pair(compiled, seed)
        z0 = rng.uniform(0.05, 2.0, problem.active_idx.size)
        rates0, path_prices0 = dense.primal_rates(dense.scale_vec * z0)
        interior = (rates0 > dense.floors) & (rates0 < dense.path_caps)
        slopes = np.zeros(len(rates0))
        np.divide(
            rates0, compiled.vec_utils.curvature_alpha * np.maximum(path_prices0, 1e-300),
            out=slopes, where=interior,
        )
        curvature = dense.incidence_f @ slopes
        with np.errstate(divide="ignore", over="ignore"):
            newton = dense.objective_scale / (dense.scale_vec**2 * curvature)
        want = np.where(
            (curvature > 0.0) & np.isfinite(newton),
            newton,
            dense.objective_scale / (dense.scale_vec * dense.capacities),
        )
        assert_vectors_close(problem.jacobi_precondition(z0), want)


class TestWarmIterationCounts:
    def test_churn_trace_iterations_stay_where_the_dense_oracle_had_them(self):
        """The multi-bottleneck churn trace of ``test_oracle.py``, counted.

        The dense-incidence Oracle (PR 13) took 17 iterations cold and a
        median of 14 warm on this trace, every solve converged.  The
        path-indexed sums round differently in the last bits, which may move
        single solves by an iteration; a drift of the median beyond +-2 means
        the arithmetic or the stopping rule changed, not the rounding.
        """
        rng = random.Random(1)
        capacities = {f"leaf{i}": 10e9 for i in range(8)}
        capacities.update({f"spine{i}": 40e9 for i in range(4)})
        network = FluidNetwork(capacities)

        def arrive(flow_id):
            src, dst = rng.sample(range(8), 2)
            path = (f"leaf{src}", f"spine{rng.randrange(4)}", f"leaf{dst}")
            network.add_flow(FluidFlow(flow_id, path, LogUtility(weight=rng.uniform(0.5, 4.0))))

        for flow_id in range(100):
            arrive(flow_id)
        next_id = 100
        solver = PersistentDualSolver()
        results = []
        for _ in range(40):
            if rng.random() < 0.5 and len(network.flows) > 20:
                network.remove_flow(rng.choice(network.flow_ids))
            else:
                arrive(next_id)
                next_id += 1
            results.append(solver.solve(network))
        assert all(result.converged for result in results)
        assert abs(results[0].iterations - 17) <= 2
        assert abs(statistics.median(r.iterations for r in results[1:]) - 14) <= 2

    def test_fig5_shaped_churn_pins_the_warm_iteration_total(self):
        """A seeded Fig.-5-shaped churn trace on the paper fabric, counted.

        The 128-server 8x4 leaf-spine of ``leaf_spine()``, unit-weight log
        utilities, 130 flows solved cold, then 300 solves one arrival or
        departure apart (ECMP spine drawn from the seed).  Here links
        start carrying flows on most solves, so the total prices how the
        warm solves condition them: a link with no cached price scale
        triggers a fresh estimate of every active link's scale.  Giving it
        the median of the cached scales instead, and re-estimating only
        every 32 churned solves, took 6 787 iterations; the pin allows the
        last-bit rounding of another BLAS (+-2 %).
        """
        rng = random.Random(7)
        fabric = leaf_spine()
        network = fabric.network

        def arrive(flow_id):
            src, dst = rng.sample(range(128), 2)
            path = fabric.path(src, dst, spine=rng.randrange(4))
            network.add_flow(FluidFlow(flow_id, path, LogUtility()))

        for flow_id in range(130):
            arrive(flow_id)
        solver = PersistentDualSolver()
        results = [solver.solve(network)]
        for next_id in range(130, 430):
            if rng.random() < 0.5:
                network.remove_flow(rng.choice(network.flow_ids))
            else:
                arrive(next_id)
            results.append(solver.solve(network))
        assert all(result.converged for result in results)
        warm = sum(result.iterations for result in results[1:])
        assert abs(warm - 6167) <= 0.02 * 6167, warm


class TestSchemesOffTheDensePair:
    """RCP*'s power sums and DCTCP's marking read ``path_links``: the scalar
    references still agree within the 1e-9 gates of ``test_scheme_backend_parity``
    on ragged paths, with a failed link in the middle of one and a link no
    flow crosses."""

    @pytest.mark.parametrize("scheme", ["rcp_star", "dctcp"])
    def test_ragged_paths_with_a_failed_link(self, scheme):
        simulator_cls, _ = SCHEMES[scheme]
        networks = make_pair({"a": 10e9, "b": 4e9, "dead": 1e9, "c": 25e9, "idle": 1e9})
        for network in networks:
            network.set_capacity("dead", 0.0)
        add_to_both(networks, 0, ("a",), LogUtility())
        add_to_both(networks, 1, ("a", "b", "c", "dead"), LogUtility(weight=2.0))
        add_to_both(networks, 2, ("b", "c"), AlphaFairUtility(alpha=2.0))
        add_to_both(networks, 3, ("c", "a"), FctUtility(flow_size=1e6))
        scalar = Reference(simulator_cls, networks[0])
        vectorized = simulator_cls(networks[1])
        assert_step_parity(scalar, vectorized, 60)
        for network in networks:  # churn: the long flow leaves, a 1-hop one arrives
            network.remove_flow(1)
            network.add_flow(FluidFlow(4, ("b",), LogUtility()))
        assert_step_parity(scalar, vectorized, 60)
