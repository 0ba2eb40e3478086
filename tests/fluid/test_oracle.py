"""Tests for the NUM Oracle (ground-truth solver)."""

import random

import pytest

from _oracle_reference import cold_lbfgsb
from repro.core.bandwidth_function import PiecewiseLinearBandwidthFunction
from repro.core.config import SimulationParameters
from repro.core.utility import (
    AlphaFairUtility,
    BandwidthFunctionUtility,
    FctUtility,
    LogUtility,
    WeightedAlphaFairUtility,
)
from repro.fluid.network import FlowGroup, FluidFlow, FluidNetwork
from repro.fluid.oracle import (
    PersistentDualSolver,
    alpha_fair_single_link,
    estimate_price_scale,
    proportional_fair_single_link,
    solve_num,
    solve_num_multipath,
)
from repro.fluid.topologies import leaf_spine


class TestSolveNumSingleLink:
    def test_proportional_fairness_splits_equally(self):
        network = FluidNetwork.single_link(10e9, 4)
        result = solve_num(network)
        for rate in result.rates.values():
            assert rate == pytest.approx(2.5e9, rel=1e-3)
        assert result.converged

    def test_weighted_proportional_fairness(self):
        network = FluidNetwork({"l": 12e9})
        network.add_flow(FluidFlow("heavy", ("l",), LogUtility(weight=2.0)))
        network.add_flow(FluidFlow("light", ("l",), LogUtility(weight=1.0)))
        result = solve_num(network)
        assert result.rates["heavy"] == pytest.approx(8e9, rel=1e-3)
        assert result.rates["light"] == pytest.approx(4e9, rel=1e-3)

    def test_alpha_two_fairness_single_link_is_weighted_split(self):
        network = FluidNetwork({"l": 10e9})
        network.add_flow(FluidFlow("a", ("l",), WeightedAlphaFairUtility(weight=1.0, alpha=2.0)))
        network.add_flow(FluidFlow("b", ("l",), WeightedAlphaFairUtility(weight=3.0, alpha=2.0)))
        result = solve_num(network)
        assert result.rates["a"] == pytest.approx(2.5e9, rel=1e-3)
        assert result.rates["b"] == pytest.approx(7.5e9, rel=1e-3)

    def test_fct_utility_prioritizes_short_flow(self):
        network = FluidNetwork({"l": 10e9})
        network.add_flow(FluidFlow("short", ("l",), FctUtility(flow_size=10e3)))
        network.add_flow(FluidFlow("long", ("l",), FctUtility(flow_size=10e6)))
        result = solve_num(network)
        assert result.rates["short"] > result.rates["long"]
        # With epsilon = 0.125 the rate ratio is (size ratio)^(1/eps), i.e. huge;
        # the short flow gets essentially the whole link.
        assert result.rates["short"] == pytest.approx(10e9, rel=0.05)

    def test_single_flow_gets_capacity(self):
        network = FluidNetwork.single_link(5e9, 1)
        result = solve_num(network)
        assert result.rates[0] == pytest.approx(5e9, rel=1e-3)

    def test_empty_network(self):
        network = FluidNetwork({"l": 1e9})
        result = solve_num(network)
        assert result.rates == {}
        assert result.converged


class TestSolveNumMultiLink:
    def test_parking_lot_proportional_fairness(self):
        """Known closed form: long flow gets C/3, each short flow gets 2C/3."""
        network = FluidNetwork({"l1": 9e9, "l2": 9e9})
        network.add_flow(FluidFlow("long", ("l1", "l2"), LogUtility()))
        network.add_flow(FluidFlow("s1", ("l1",), LogUtility()))
        network.add_flow(FluidFlow("s2", ("l2",), LogUtility()))
        result = solve_num(network)
        assert result.rates["long"] == pytest.approx(3e9, rel=1e-2)
        assert result.rates["s1"] == pytest.approx(6e9, rel=1e-2)
        assert result.rates["s2"] == pytest.approx(6e9, rel=1e-2)

    def test_allocation_is_feasible(self):
        network = FluidNetwork({"a": 10e9, "b": 3e9, "c": 7e9})
        network.add_flow(FluidFlow(1, ("a", "b"), LogUtility()))
        network.add_flow(FluidFlow(2, ("b", "c"), AlphaFairUtility(alpha=2.0)))
        network.add_flow(FluidFlow(3, ("a", "c"), LogUtility(weight=2.0)))
        network.add_flow(FluidFlow(4, ("a",), AlphaFairUtility(alpha=0.5)))
        result = solve_num(network)
        assert network.is_feasible(result.rates, tolerance=1e-3)

    def test_prices_nonzero_only_when_constraining(self):
        network = FluidNetwork({"tight": 1e9, "loose": 100e9})
        network.add_flow(FluidFlow("f", ("tight", "loose"), LogUtility()))
        result = solve_num(network)
        assert result.prices["tight"] > 0.0
        assert result.prices["loose"] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_multipath_groups(self):
        network = FluidNetwork({"l": 1e9})
        network.add_group(FlowGroup("g", LogUtility()))
        network.add_flow(FluidFlow("sub", ("l",), LogUtility(), group_id="g"))
        with pytest.raises(ValueError):
            solve_num(network)

    def test_objective_not_worse_than_maxmin(self):
        """The NUM optimum must dominate any feasible allocation's objective."""
        from repro.fluid.maxmin import max_min

        network = FluidNetwork({"a": 10e9, "b": 4e9})
        network.add_flow(FluidFlow(1, ("a", "b"), LogUtility()))
        network.add_flow(FluidFlow(2, ("a",), LogUtility()))
        network.add_flow(FluidFlow(3, ("b",), LogUtility()))
        result = solve_num(network)
        maxmin_rates = max_min({f.flow_id: f.path for f in network.flows}, network.capacities)
        assert network.total_utility(result.rates) >= network.total_utility(maxmin_rates) - 1e-6


class TestSolveNumMultipath:
    def test_two_path_pooling_uses_both_paths(self):
        network = FluidNetwork({"p1": 4e9, "p2": 6e9})
        network.add_group(FlowGroup("g", LogUtility()))
        network.add_flow(FluidFlow("sub1", ("p1",), LogUtility(), group_id="g"))
        network.add_flow(FluidFlow("sub2", ("p2",), LogUtility(), group_id="g"))
        network.group("g").member_ids = ("sub1", "sub2")
        result = solve_num_multipath(network)
        aggregate = result.rates["sub1"] + result.rates["sub2"]
        assert aggregate == pytest.approx(10e9, rel=1e-2)

    def test_pooling_shares_common_bottleneck_fairly(self):
        """Two groups share a middle link plus private links (Fig. 10 shape)."""
        network = FluidNetwork({"top": 5e9, "middle": 10e9, "bottom": 5e9})
        network.add_group(FlowGroup("g1", LogUtility()))
        network.add_group(FlowGroup("g2", LogUtility()))
        network.add_flow(FluidFlow("g1_top", ("top",), LogUtility(), group_id="g1"))
        network.add_flow(FluidFlow("g1_mid", ("middle",), LogUtility(), group_id="g1"))
        network.add_flow(FluidFlow("g2_mid", ("middle",), LogUtility(), group_id="g2"))
        network.add_flow(FluidFlow("g2_bot", ("bottom",), LogUtility(), group_id="g2"))
        network.group("g1").member_ids = ("g1_top", "g1_mid")
        network.group("g2").member_ids = ("g2_mid", "g2_bot")
        result = solve_num_multipath(network)
        g1 = result.rates["g1_top"] + result.rates["g1_mid"]
        g2 = result.rates["g2_mid"] + result.rates["g2_bot"]
        # Symmetric problem: both aggregates should be equal and fill the network.
        assert g1 == pytest.approx(g2, rel=0.02)
        assert g1 + g2 == pytest.approx(20e9, rel=0.02)

    def test_feasibility(self):
        network = FluidNetwork({"p1": 2e9, "p2": 3e9})
        network.add_group(FlowGroup("g", AlphaFairUtility(alpha=1.0)))
        network.add_flow(FluidFlow("s1", ("p1",), LogUtility(), group_id="g"))
        network.add_flow(FluidFlow("s2", ("p2",), LogUtility(), group_id="g"))
        network.group("g").member_ids = ("s1", "s2")
        result = solve_num_multipath(network)
        assert network.is_feasible(result.rates, tolerance=1e-3)


def _max_rel_rate_diff(a, b):
    return max(abs(a[k] - b[k]) / max(abs(a[k]), 1.0) for k in a)


def _parity_grid():
    """Well-conditioned problems where both backends pin the same optimum."""
    cases = {}

    single_log = FluidNetwork.single_link(
        10e9, 5, [LogUtility(weight=w) for w in (1.0, 2.0, 3.0, 0.5, 1.5)]
    )
    cases["single_link_log"] = single_log

    for alpha in (0.5, 2.0):
        single_alpha = FluidNetwork({"l": 10e9})
        for i in range(4):
            single_alpha.add_flow(FluidFlow(i, ("l",), AlphaFairUtility(alpha=alpha)))
        cases[f"single_link_alpha_{alpha}"] = single_alpha

    single_walpha = FluidNetwork({"l": 12e9})
    single_walpha.add_flow(FluidFlow("a", ("l",), WeightedAlphaFairUtility(1.0, 2.0)))
    single_walpha.add_flow(FluidFlow("b", ("l",), WeightedAlphaFairUtility(3.0, 2.0)))
    cases["single_link_weighted"] = single_walpha

    single_fct = FluidNetwork({"l": 10e9})
    for i, size in enumerate((1e4, 1e5, 1e6)):
        single_fct.add_flow(FluidFlow(i, ("l",), FctUtility(flow_size=size, epsilon=0.5)))
    cases["single_link_fct"] = single_fct

    parking = FluidNetwork({"l1": 9e9, "l2": 9e9})
    parking.add_flow(FluidFlow("long", ("l1", "l2"), LogUtility()))
    parking.add_flow(FluidFlow("s1", ("l1",), LogUtility()))
    parking.add_flow(FluidFlow("s2", ("l2",), AlphaFairUtility(alpha=2.0)))
    cases["parking_lot_mixed"] = parking

    params = SimulationParameters(num_servers=16, num_leaves=4, num_spines=2)
    fabric = leaf_spine(params)
    rng = random.Random(5)
    for f in range(40):
        src, dst = rng.sample(range(16), 2)
        fabric.network.add_flow(
            FluidFlow(
                f,
                fabric.path(src, dst, spine=f % 2),
                LogUtility(weight=rng.uniform(0.5, 3.0)),
            )
        )
    cases["leaf_spine_log"] = fabric.network
    return cases


class TestBackendParity:
    """The vectorized dual must match the scalar reference on the parity grid."""

    @pytest.mark.parametrize("name", sorted(_parity_grid()))
    def test_rates_match_within_1e9(self, name):
        network = _parity_grid()[name]
        scalar = solve_num(network, backend="scalar")
        vectorized = solve_num(network, backend="vectorized")
        assert _max_rel_rate_diff(scalar.rates, vectorized.rates) <= 1e-9
        assert abs(scalar.objective - vectorized.objective) <= 1e-9 * max(
            abs(scalar.objective), 1.0
        )
        assert scalar.converged == vectorized.converged

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            solve_num(FluidNetwork.single_link(1e9, 1), backend="quantum")
        with pytest.raises(ValueError):
            estimate_price_scale(FluidNetwork.single_link(1e9, 1), backend="quantum")

    def test_price_scale_estimates_match(self):
        for name, network in _parity_grid().items():
            scalar = estimate_price_scale(network, backend="scalar")
            vectorized = estimate_price_scale(network, backend="vectorized")
            assert scalar.keys() == vectorized.keys(), name
            for link, value in scalar.items():
                assert vectorized[link] == pytest.approx(value, rel=1e-12), (name, link)

    def test_unused_links_priced_zero_and_excluded(self):
        network = FluidNetwork({"used": 1e9, "idle": 5e9})
        network.add_flow(FluidFlow("f", ("used",), LogUtility()))
        for backend in ("scalar", "vectorized"):
            result = solve_num(network, backend=backend)
            assert result.prices["idle"] == 0.0
            assert result.rates["f"] == pytest.approx(1e9, rel=1e-3)

    def test_safeguard_off_matches_on_for_well_conditioned(self):
        network = _parity_grid()["single_link_log"]
        guarded = solve_num(network, safeguard=True)
        unguarded = solve_num(network, safeguard=False)
        assert _max_rel_rate_diff(guarded.rates, unguarded.rates) <= 1e-9

    def test_fallback_utility_flows_use_scalar_path(self):
        # BandwidthFunctionUtility has no closed-form batched family, so the
        # vectorized backend must route it through per-flow scalar calls.
        bwf = PiecewiseLinearBandwidthFunction([(0.0, 0.0), (2.0, 6e9), (4.0, 8e9)])
        network = FluidNetwork({"l": 10e9})
        network.add_flow(FluidFlow("bw", ("l",), BandwidthFunctionUtility(bwf)))
        network.add_flow(FluidFlow("log", ("l",), LogUtility()))
        scalar = solve_num(network, backend="scalar")
        vectorized = solve_num(network, backend="vectorized")
        assert _max_rel_rate_diff(scalar.rates, vectorized.rates) <= 1e-9


class TestColdSolveAccuracy:
    """The cold SPG solve reaches the tight external reference's objective."""

    @pytest.mark.parametrize("name", sorted(_parity_grid()))
    def test_objective_reaches_tight_lbfgsb(self, name):
        network = _parity_grid()[name]
        result = solve_num(network)
        reference = cold_lbfgsb(network)
        assert result.objective >= reference.objective - 1e-9 * max(
            abs(reference.objective), 1.0
        )
        assert network.is_feasible(result.rates, tolerance=1e-6)


#: Grid cases whose dual is so flat near the optimum that float64 cannot
#: pin the rate vector: objectives agree to ~1e-14 while rates drift.  On
#: these, even scipy's own warm-vs-cold drift is ~1e-3 / ~7e-7, so the
#: churn gate checks the objective (1e-8 relative) and feasibility instead
#: of the 1e-6 rate gate used everywhere else.
_FLAT_DUAL_CASES = {"parking_lot_mixed", "leaf_spine_log"}


class TestPersistentDualSolver:
    """Warm persistent solves vs cold scipy solves across churn traces."""

    def _churn_trace(self, network):
        """Remove the first half of the flows one by one, then re-add them."""
        flows = list(network.flows)
        events = []
        for flow in flows[: len(flows) // 2]:
            events.append(("remove", flow))
        for _, flow in list(events):
            events.append(("add", flow))
        return events

    @pytest.mark.parametrize("name", sorted(_parity_grid()))
    def test_churn_trace_matches_cold_scipy(self, name):
        network = _parity_grid()[name]
        solver = PersistentDualSolver()
        for op, flow in self._churn_trace(network):
            if op == "remove":
                network.remove_flow(flow.flow_id)
            else:
                network.add_flow(flow)
            if not network.flows:
                continue
            warm = solver.solve(network)
            cold = cold_lbfgsb(network)
            assert network.is_feasible(warm.rates, tolerance=1e-6)
            assert abs(warm.objective - cold.objective) <= 1e-8 * max(
                abs(cold.objective), 1.0
            )
            if name not in _FLAT_DUAL_CASES:
                assert _max_rel_rate_diff(cold.rates, warm.rates) <= 1e-6

    def test_multi_bottleneck_churn_trace(self):
        """Random arrivals/departures on a leaf-spine-like core: 1e-6 rates."""
        rng = random.Random(1)
        capacities = {f"leaf{i}": 10e9 for i in range(8)}
        capacities.update({f"spine{i}": 40e9 for i in range(4)})
        network = FluidNetwork(capacities)
        next_id = 0
        for _ in range(100):
            src, dst = rng.sample(range(8), 2)
            path = (f"leaf{src}", f"spine{rng.randrange(4)}", f"leaf{dst}")
            network.add_flow(
                FluidFlow(next_id, path, LogUtility(weight=rng.uniform(0.5, 4.0)))
            )
            next_id += 1
        solver = PersistentDualSolver()
        for _ in range(40):
            if rng.random() < 0.5 and len(network.flows) > 20:
                network.remove_flow(rng.choice(network.flow_ids))
            else:
                src, dst = rng.sample(range(8), 2)
                path = (f"leaf{src}", f"spine{rng.randrange(4)}", f"leaf{dst}")
                network.add_flow(
                    FluidFlow(next_id, path, LogUtility(weight=rng.uniform(0.5, 4.0)))
                )
                next_id += 1
            warm = solver.solve(network)
            cold = cold_lbfgsb(network)
            assert _max_rel_rate_diff(cold.rates, warm.rates) <= 1e-6
            assert warm.converged

    def test_drain_and_refill_leaf_spine_holds_the_rate_gate(self):
        """Half the flows leave one by one and return: 1e-6 rates throughout.

        A log-utility leaf-spine whose dual is not flat (unlike the grid's
        ``leaf_spine_log``), so the drain/refill trace runs under the rate
        gate rather than only the objective gate.
        """
        rng = random.Random(5)
        capacities = {f"leaf{i}": 10e9 for i in range(6)}
        capacities.update({f"spine{i}": 40e9 for i in range(3)})
        network = FluidNetwork(capacities)
        for flow_id in range(40):
            src, dst = rng.sample(range(6), 2)
            path = (f"leaf{src}", f"spine{rng.randrange(3)}", f"leaf{dst}")
            network.add_flow(
                FluidFlow(flow_id, path, LogUtility(weight=rng.uniform(0.5, 4.0)))
            )
        solver = PersistentDualSolver()
        for op, flow in self._churn_trace(network):
            if op == "remove":
                network.remove_flow(flow.flow_id)
            else:
                network.add_flow(flow)
            warm = solver.solve(network)
            cold = cold_lbfgsb(network)
            assert network.is_feasible(warm.rates, tolerance=1e-6)
            assert _max_rel_rate_diff(cold.rates, warm.rates) <= 1e-6

    def test_one_shot_spg_solver_matches_scipy(self):
        """A fresh solver's first solve is the one-shot cold SPG solve."""
        for name, network in _parity_grid().items():
            spg = PersistentDualSolver().solve(network)
            cold = cold_lbfgsb(network)
            assert abs(spg.objective - cold.objective) <= 1e-8 * max(
                abs(cold.objective), 1.0
            ), name
            if name not in _FLAT_DUAL_CASES:
                assert _max_rel_rate_diff(cold.rates, spg.rates) <= 1e-6, name

    def test_result_keeps_its_vectors_across_later_churn(self):
        # The result holds the solve's own read-only vectors and id
        # snapshots; its dicts are built on read, even after a churned solve
        # edited the solver's compiled flow order in place.
        network = FluidNetwork.single_link(10e9, 4)
        solver = PersistentDualSolver()
        first = solver.solve(network)
        assert not first.rate_vec.flags.writeable and not first.price_vec.flags.writeable
        expected = dict(zip(first.flow_ids, first.rate_vec.tolist()))
        network.remove_flow(network.flow_ids[0])
        second = solver.solve(network)
        assert first.rates == expected and len(first.rates) == 4
        assert first.prices == dict(zip(first.link_ids, first.price_vec.tolist()))
        assert len(second.rates) == 3

    def test_empty_network(self):
        network = FluidNetwork({"l": 1e9})
        solver = PersistentDualSolver()
        result = solver.solve(network)
        assert result.rates == {} and result.converged

    def test_rejects_multipath_groups(self):
        network = FluidNetwork({"l": 1e9})
        network.add_group(FlowGroup("g", LogUtility()))
        network.add_flow(FluidFlow("sub", ("l",), LogUtility(), group_id="g"))
        with pytest.raises(ValueError):
            PersistentDualSolver().solve(network)

    def test_rebinding_network_resets_state(self):
        solver = PersistentDualSolver()
        first = FluidNetwork.single_link(10e9, 4)
        solver.solve(first)
        second = FluidNetwork.single_link(8e9, 2)
        result = solver.solve(second)
        for rate in result.rates.values():
            assert rate == pytest.approx(4e9, rel=1e-6)

    def test_utility_rebind_is_picked_up(self):
        network = FluidNetwork({"l": 10e9})
        network.add_flow(FluidFlow(0, ("l",), LogUtility()))
        network.add_flow(FluidFlow(1, ("l",), LogUtility()))
        solver = PersistentDualSolver()
        before = solver.solve(network)
        assert before.rates[0] == pytest.approx(5e9, rel=1e-6)
        network.flow(0).utility = LogUtility(weight=9.0)
        after = solver.solve(network)
        assert after.rates[0] == pytest.approx(9e9, rel=1e-3)

    def test_safeguard_falls_back_to_maxmin_quality(self):
        # Steep FCT mix: the safeguarded solve must never be worse than
        # max-min (the _finish contract, exercised through the persistent
        # path).
        from repro.fluid.maxmin import max_min

        network = FluidNetwork({"l": 10e9})
        for i, size in enumerate((1e4, 1e6, 1e8)):
            network.add_flow(FluidFlow(i, ("l",), FctUtility(flow_size=size)))
        solver = PersistentDualSolver(safeguard=True)
        result = solver.solve(network)
        maxmin_rates = max_min(
            {f.flow_id: f.path for f in network.flows}, network.capacities
        )
        assert network.total_utility(result.rates) >= (
            network.total_utility(maxmin_rates) - 1e-6
        )


class TestClosedForms:
    def test_proportional_fair_single_link(self):
        assert proportional_fair_single_link(12.0, 4) == [3.0, 3.0, 3.0, 3.0]
        assert proportional_fair_single_link(12.0, 0) == []

    def test_alpha_fair_single_link(self):
        rates = alpha_fair_single_link(10.0, [1.0, 4.0], alpha=2.0)
        assert rates[0] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(8.0)

    def test_alpha_fair_requires_positive_alpha(self):
        with pytest.raises(ValueError):
            alpha_fair_single_link(10.0, [1.0], alpha=0.0)
