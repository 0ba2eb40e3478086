"""Tests for the NUM Oracle (ground-truth solver)."""

import inspect
import random

import pytest

from _maxmin_reference import scalar_max_min
from _oracle_reference import cold_lbfgsb, scalar_price_scale, scalar_solve
from repro.core.bandwidth_function import PiecewiseLinearBandwidthFunction
from repro.core.config import SimulationParameters
from repro.core.utility import (
    AlphaFairUtility,
    BandwidthFunctionUtility,
    FctUtility,
    LinearUtility,
    LogUtility,
    WeightedAlphaFairUtility,
)
from repro.experiments.dynamic_fluid import OracleRatePolicy
from repro.fluid import oracle
from repro.fluid.network import FlowGroup, FluidFlow, FluidNetwork
from repro.fluid.oracle import (
    CERTIFIED,
    OracleCertificate,
    PersistentDualSolver,
    certify,
    solve_num,
)
from repro.fluid.topologies import leaf_spine
from repro.fluid.vectorized import compile_network


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
        network = _badly_scaled_network()
        result = solve_num(network)
        assert network.is_feasible(result.rates, tolerance=1e-3)

    def test_badly_scaled_network_certifies_at_its_kkt_point(self):
        """Finding 1: SPG stops at its iteration cap short of this network's
        optimum (links priced ~1e-5 and ~1e-19 under one median scale), and
        the Newton finish certifies the answer.  The KKT point puts flow 2
        at 2.99990e9, not 3e9: flows 1 and 3 keep ~1e5 b/s each."""
        network = _badly_scaled_network()
        result = solve_num(network)
        assert network.is_feasible(result.rates, tolerance=1e-9)
        assert result.converged and result.certificate.worst <= 1e-9
        assert result.rates[2] == pytest.approx(2.99990e9, rel=1e-6)

    def test_prices_nonzero_only_when_constraining(self):
        network = FluidNetwork({"tight": 1e9, "loose": 100e9})
        network.add_flow(FluidFlow("f", ("tight", "loose"), LogUtility()))
        result = solve_num(network)
        assert result.prices["tight"] > 0.0
        assert result.prices["loose"] == pytest.approx(0.0, abs=1e-12)

    def test_a_pooled_group_without_a_power_law_is_refused(self):
        """Newton is the only pooled minimiser and needs ``U''`` from a power
        law, through either entry point."""
        bwf = PiecewiseLinearBandwidthFunction([(0.0, 0.0), (2.0, 6e9), (4.0, 8e9)])
        for utility in (LinearUtility(), BandwidthFunctionUtility(bwf)):
            network = FluidNetwork({"l": 1e9})
            network.add_group(FlowGroup("g", utility))
            network.add_flow(FluidFlow("sub", ("l",), LogUtility(), group_id="g"))
            for solve in (solve_num, PersistentDualSolver().solve):
                with pytest.raises(ValueError, match="power-law"):
                    solve(network)

    def test_objective_not_worse_than_maxmin(self):
        """The NUM optimum must dominate any feasible allocation's objective."""
        network = FluidNetwork({"a": 10e9, "b": 4e9})
        network.add_flow(FluidFlow(1, ("a", "b"), LogUtility()))
        network.add_flow(FluidFlow(2, ("a",), LogUtility()))
        network.add_flow(FluidFlow(3, ("b",), LogUtility()))
        result = solve_num(network)
        maxmin_rates = _max_min(network)
        assert network.total_utility(result.rates) >= network.total_utility(maxmin_rates) - 1e-6


class TestSolveNumMultipath:
    """Pooled groups go through ``solve_num`` (Newton) and certify."""

    def test_two_path_pooling_uses_both_paths(self):
        network = FluidNetwork({"p1": 4e9, "p2": 6e9})
        network.add_group(FlowGroup("g", LogUtility()))
        network.add_flow(FluidFlow("sub1", ("p1",), LogUtility(), group_id="g"))
        network.add_flow(FluidFlow("sub2", ("p2",), LogUtility(), group_id="g"))
        network.group("g").member_ids = ("sub1", "sub2")
        result = solve_num(network)
        assert result.converged
        aggregate = result.rates["sub1"] + result.rates["sub2"]
        assert aggregate == pytest.approx(10e9, rel=1e-6)
        # Both paths are priced at the group's marginal 1 / 10e9, not 0.
        for link in ("p1", "p2"):
            assert result.prices[link] == pytest.approx(1e-10, rel=1e-6)

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
        result = solve_num(network)
        assert result.converged
        g1 = result.rates["g1_top"] + result.rates["g1_mid"]
        g2 = result.rates["g2_mid"] + result.rates["g2_bot"]
        # Symmetric problem: both aggregates should be equal and fill the network.
        assert g1 == pytest.approx(g2, rel=1e-6)
        assert g1 + g2 == pytest.approx(20e9, rel=1e-6)

    def test_feasibility(self):
        network = FluidNetwork({"p1": 2e9, "p2": 3e9})
        network.add_group(FlowGroup("g", AlphaFairUtility(alpha=1.0)))
        network.add_flow(FluidFlow("s1", ("p1",), LogUtility(), group_id="g"))
        network.add_flow(FluidFlow("s2", ("p2",), LogUtility(), group_id="g"))
        network.group("g").member_ids = ("s1", "s2")
        result = solve_num(network)
        assert result.converged
        assert network.is_feasible(result.rates, tolerance=1e-9)
        assert result.rates["s1"] + result.rates["s2"] == pytest.approx(5e9, rel=1e-6)

    def test_an_unused_sub_flow_sits_at_its_floor(self):
        """A sub-flow whose path costs more than its group's marginal is
        held only to ``U_g' <= q`` (the floor rule) and carries ~nothing."""
        network = FluidNetwork({"a": 10e9, "b": 10e9})
        network.add_flow(FluidFlow("rival", ("b",), LogUtility(weight=50.0)))
        network.add_group(FlowGroup("g", LogUtility()))
        network.add_flow(FluidFlow("direct", ("a",), LogUtility(), group_id="g"))
        network.add_flow(FluidFlow("shared", ("b",), LogUtility(), group_id="g"))
        result = solve_num(network)
        assert result.converged
        assert result.rates["direct"] == pytest.approx(10e9, rel=1e-6)
        assert result.rates["shared"] <= 10e9 * oracle._MIN_RATE_FRACTION
        assert certify(network, result.rates, result.prices) == result.certificate


def _badly_scaled_network():
    """Three links, four flows whose optimal prices span ~1e-10 to ~1e-20."""
    network = FluidNetwork({"a": 10e9, "b": 3e9, "c": 7e9})
    network.add_flow(FluidFlow(1, ("a", "b"), LogUtility()))
    network.add_flow(FluidFlow(2, ("b", "c"), AlphaFairUtility(alpha=2.0)))
    network.add_flow(FluidFlow(3, ("a", "c"), LogUtility(weight=2.0)))
    network.add_flow(FluidFlow(4, ("a",), AlphaFairUtility(alpha=0.5)))
    return network


def _max_min(network):
    """Plain max-min rates of the network's flows (the scalar reference)."""
    flows = network.flows
    return scalar_max_min(
        {f.flow_id: 1.0 for f in flows}, {f.flow_id: f.path for f in flows}, network.capacities
    )


def _max_rel_rate_diff(a, b):
    return max(abs(a[k] - b[k]) / max(abs(a[k]), 1.0) for k in a)


def _price_scale(network):
    """The per-link price scale the solvers bind, keyed by link: the dual's
    ``scale_medians()`` over its active links."""
    problem = oracle._DualProblem(compile_network(network))
    links = [problem.compiled.link_ids[idx] for idx in problem.active_idx.tolist()]
    return dict(zip(links, problem.scale_medians().tolist()))


def _parity_grid():
    """Well-conditioned problems where the Oracle and its reference pin the same optimum."""
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
    """The array dual must match the per-flow reference on the parity grid."""

    def test_rejects_unknown_backend(self):
        """The Oracle has one dual: a caller still asking for a backend is
        refused, not silently given the array dual."""
        network = FluidNetwork.single_link(1e9, 1)
        for backend in ("scalar", "vectorized", "quantum"):
            with pytest.raises(TypeError, match="backend"):
                solve_num(network, backend=backend)

    @pytest.mark.parametrize("name", sorted(_parity_grid()))
    def test_rates_match_within_1e9(self, name, monkeypatch):
        # Both sides run the same SPG loop on two assemblies of one dual, so
        # their iterates agree until the assemblies' roundoff is amplified.
        # On parking_lot_mixed, which SPG does not converge on, they are
        # bit-identical through iteration 300 and were 4e-2 apart after
        # 2 000; the gate compares the first 200, inside which every other
        # case has converged.
        monkeypatch.setattr(oracle, "_MAX_ITERATIONS", 200)
        # The reference has no Newton finish: compare SPG's answer.
        monkeypatch.setattr(oracle, "_finish", lambda problem, answer: answer)
        network = _parity_grid()[name]
        scalar = scalar_solve(network)
        vectorized = solve_num(network)
        assert vectorized.iterations < 200 or name in _FLAT_DUAL_CASES
        assert _max_rel_rate_diff(scalar.rates, vectorized.rates) <= 1e-9
        assert abs(scalar.objective - vectorized.objective) <= 1e-9 * max(
            abs(scalar.objective), 1.0
        )
        assert scalar.converged == vectorized.converged
        for term in ("overload", "stationarity", "slackness", "gap"):
            assert getattr(scalar.certificate, term) == pytest.approx(
                getattr(vectorized.certificate, term), abs=1e-10
            ), term

    def test_price_scale_estimates_match(self):
        for name, network in _parity_grid().items():
            scalar = scalar_price_scale(network)
            vectorized = _price_scale(network)
            assert scalar.keys() == vectorized.keys(), name
            for link, value in scalar.items():
                assert vectorized[link] == pytest.approx(value, rel=1e-12), (name, link)

    def test_unused_links_priced_zero_and_excluded(self):
        network = FluidNetwork({"used": 1e9, "idle": 5e9})
        network.add_flow(FluidFlow("f", ("used",), LogUtility()))
        for solve in (scalar_solve, solve_num):
            result = solve(network)
            assert result.prices["idle"] == 0.0
            assert result.rates["f"] == pytest.approx(1e9, rel=1e-3)

    def test_fallback_utility_flows_use_scalar_path(self):
        # BandwidthFunctionUtility has no power law to batch, so the
        # array dual must route it through per-flow scalar calls.
        bwf = PiecewiseLinearBandwidthFunction([(0.0, 0.0), (2.0, 6e9), (4.0, 8e9)])
        network = FluidNetwork({"l": 10e9})
        network.add_flow(FluidFlow("bw", ("l",), BandwidthFunctionUtility(bwf)))
        network.add_flow(FluidFlow("log", ("l",), LogUtility()))
        scalar = scalar_solve(network)
        vectorized = solve_num(network)
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


#: Grid cases whose rates are not gated against the L-BFGS-B reference;
#: their answers are gated on the objective (1e-8 relative), feasibility and,
#: where SPG reaches it, the certificate instead:
#:
#: * ``parking_lot_mixed``: SPG does not certify it (links priced ~2e-10
#:   and ~5e-20 under one median scale; it stops at its 500-iteration
#:   cap short of ``s2``'s price) and the Newton finish does, but the L-BFGS-B
#:   reference's own worst term is 3e-4.
#: * ``leaf_spine_log``: SPG certifies every solve (worst term <= 1e-7), but
#:   the reference stops at a worst term of ~1e-6, 2.8e-6 away in rates, so
#:   a rate gate against it would measure the reference.
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

    def _admission_trace(self, network):
        """Start from the shortest-path half of the flows, then admit the rest.

        The solver first sees the half with the shortest paths, so links
        that only the later, longer paths cross start carrying flows during
        the trace: the solves that have no price scale cached for an
        active link.  Returns the later flows, removed from ``network``.
        """
        flows = sorted(network.flows, key=lambda flow: len(flow.path))
        later = flows[len(flows) // 2 :]
        for flow in later:
            network.remove_flow(flow.flow_id)
        return later

    def _assert_matches_cold_scipy(self, name, network, warm, reference_may_stop_short=False):
        """The grid's per-answer gates.  With ``reference_may_stop_short``
        the objective gate on :data:`_FLAT_DUAL_CASES` is one-sided: the
        warm answer is feasible, so where it lies above the reference the
        reference stopped short of the optimum."""
        cold = cold_lbfgsb(network)
        assert network.is_feasible(warm.rates, tolerance=1e-6)
        tolerance = 1e-8 * max(abs(cold.objective), 1.0)
        assert warm.objective >= cold.objective - tolerance
        if not (reference_may_stop_short and name in _FLAT_DUAL_CASES):
            assert warm.objective <= cold.objective + tolerance
        # Every warm answer on the grid certifies, the flat cases' too.
        assert warm.converged, warm.certificate
        if name not in _FLAT_DUAL_CASES:
            assert _max_rel_rate_diff(cold.rates, warm.rates) <= 1e-6

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
            self._assert_matches_cold_scipy(name, network, solver.solve(network))

    @pytest.mark.parametrize("name", sorted(_parity_grid()))
    def test_admission_trace_matches_cold_scipy(self, name):
        network = _parity_grid()[name]
        solver = PersistentDualSolver()
        later = self._admission_trace(network)
        carrying = {link for flow in network.flows for link in flow.path}
        lit = 0
        # On leaf_spine_log at 38 flows the reference stops 1.6e-8 below the
        # certified warm answer (its own worst term 2.6e-6).
        for flow in [None] + later:
            if flow is not None:
                lit += not carrying.issuperset(flow.path)
                carrying.update(flow.path)
                network.add_flow(flow)
            warm = solver.solve(network)
            self._assert_matches_cold_scipy(name, network, warm, reference_may_stop_short=True)
        # On the multi-link networks some admission lights a link up.
        assert lit > 0 or len(network.links) == 1

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
            assert spg.converged, name

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

    def test_pools_a_group_that_joins_and_leaves(self):
        """One solver across churn: single-path flows, a pooled group on two
        paths joins (solved cold by Newton, the same bits as ``solve_num``)
        and leaves (warm SPG again, at a fresh solve's rates)."""
        network = FluidNetwork({"a": 4e9, "b": 6e9, "c": 10e9})
        network.add_flow(FluidFlow(0, ("a", "c"), LogUtility()))
        network.add_flow(FluidFlow(1, ("b",), AlphaFairUtility(alpha=2.0)))
        network.add_flow(FluidFlow(2, ("c",), LogUtility(weight=2.0)))
        solver = PersistentDualSolver()
        assert solver.solve(network).converged
        network.add_group(FlowGroup("g", LogUtility()))
        network.add_flow(FluidFlow("m0", ("a",), LogUtility(), group_id="g"))
        network.add_flow(FluidFlow("m1", ("b", "c"), LogUtility(), group_id="g"))
        pooled, fresh = solver.solve(network), solve_num(network)
        assert pooled.converged, pooled.certificate
        assert pooled.rate_vec.tobytes() == fresh.rate_vec.tobytes()
        assert pooled.price_vec.tobytes() == fresh.price_vec.tobytes()
        assert (pooled.iterations, pooled.objective, pooled.certificate) == (
            fresh.iterations, fresh.objective, fresh.certificate
        )
        assert pooled.rates["m0"] > 0.0 and pooled.rates["m1"] > 0.0
        network.remove_flow("m0")
        network.remove_flow("m1")
        after = solver.solve(network)
        assert after.converged, after.certificate
        assert _max_rel_rate_diff(solve_num(network).rates, after.rates) <= 1e-6
        # The emptied group stays in the network but pools nothing: the next
        # single-path arrival replays into the same compiled snapshot, and
        # the objective leaves the group out, as the Oracle's does.
        compiled = solver._compiled
        network.add_flow(FluidFlow(3, ("a",), LogUtility()))
        assert compiled.refresh() == "updated"
        replayed = solver.solve(network)
        assert solver._compiled is compiled
        assert replayed.converged, replayed.certificate
        assert _max_rel_rate_diff(solve_num(network).rates, replayed.rates) <= 1e-6
        rates = replayed.rates
        flows_alone = sum(flow.utility.value(rates[flow.flow_id]) for flow in network.flows)
        assert network.total_utility(rates) == flows_alone
        assert flows_alone == pytest.approx(replayed.objective, rel=1e-12)

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
        # Steep FCT mix: the persistent solve is never worse than max-min.
        network = FluidNetwork({"l": 10e9})
        for i, size in enumerate((1e4, 1e6, 1e8)):
            network.add_flow(FluidFlow(i, ("l",), FctUtility(flow_size=size)))
        solver = PersistentDualSolver()
        result = solver.solve(network)
        maxmin_rates = _max_min(network)
        assert network.total_utility(result.rates) >= (
            network.total_utility(maxmin_rates) - 1e-6
        )


class TestCertificate:
    """``converged`` is read from the KKT certificate every single-path answer carries."""

    @pytest.mark.parametrize("name", sorted(_parity_grid()))
    def test_converged_is_the_certificate(self, name):
        network = _parity_grid()[name]
        for result in (solve_num(network), PersistentDualSolver().solve(network)):
            certificate = result.certificate
            assert result.converged == (certificate.worst <= CERTIFIED)
            assert result.converged
            assert certificate.worst == max(
                certificate.overload, certificate.stationarity,
                certificate.slackness, certificate.gap,
            )

    def test_a_nan_term_fails_the_certificate(self):
        """An overflowed dual value makes the gap NaN; ``max`` would skip a
        NaN term unless it came first, and read the rest as converged."""
        for position in range(4):
            terms = [0.0] * 4
            terms[position] = float("nan")
            assert OracleCertificate(*terms).worst == float("inf")

    def test_trivial_answers_carry_an_exact_certificate(self):
        empty = FluidNetwork({"l": 1e9})
        dead = FluidNetwork({"l": 1e9})
        dead.add_flow(FluidFlow("f", ("l",), LogUtility()))
        dead.set_capacity("l", 0.0)
        for network in (empty, dead):
            for result in (solve_num(network), PersistentDualSolver().solve(network)):
                assert result.converged and result.certificate.worst == 0.0

    @pytest.mark.parametrize(
        "n_flows, utility, price",
        [
            (3, LogUtility(), 3.0 / 10e9),
            (4, LogUtility(), 4.0 / 10e9),
            (4, AlphaFairUtility(alpha=2.0), 2.5e9**-2),
        ],
        ids=["log3", "log4", "alpha2"],
    )
    def test_cold_and_warm_report_the_same_positive_price(self, n_flows, utility, price):
        """One shared link: the price is the common marginal utility.  Both
        solves return the dual's price, never a swapped-in zero."""
        network = FluidNetwork.single_link(10e9, n_flows, [utility] * n_flows)
        cold = solve_num(network)
        warm = PersistentDualSolver().solve(network)
        assert cold.prices["link"] == pytest.approx(price, rel=1e-6)
        assert warm.prices["link"] == pytest.approx(cold.prices["link"], rel=1e-12)
        assert cold.converged and warm.converged

    def test_certify_rejects_what_is_not_optimal(self):
        network = FluidNetwork.single_link(10e9, 4)
        optimum = {flow_id: 2.5e9 for flow_id in network.flow_ids}
        assert certify(network, optimum, {"link": 1 / 2.5e9}).worst <= 1e-12
        # Unequal shares: the marginals no longer match one price.
        skewed = {**optimum, 0: 1.5e9, 1: 3.5e9}
        assert certify(network, skewed, {"link": 1 / 2.5e9}).stationarity > 0.1
        # A slack, priced link.
        half = {flow_id: 1.25e9 for flow_id in network.flow_ids}
        assert certify(network, half, {"link": 1 / 1.25e9}).slackness == pytest.approx(0.5)
        # An overloaded one.
        assert certify(network, {f: 5e9 for f in optimum}, {"link": 2e-10}).overload == (
            pytest.approx(1.0)
        )
        # The right rates at the wrong price leave a duality gap.
        assert certify(network, optimum, {"link": 2e-10}).gap > 1e-3

    def test_no_entry_point_takes_a_tuning_keyword(self):
        """``solve_num``, ``PersistentDualSolver`` and ``OracleRatePolicy``
        take the network and nothing else: the minimiser's settings are
        module constants."""
        assert list(inspect.signature(solve_num).parameters) == ["network"]
        assert list(inspect.signature(PersistentDualSolver).parameters) == []
        assert list(inspect.signature(OracleRatePolicy).parameters) == []
        network = FluidNetwork.single_link(1e9, 1)
        for knob in ("safeguard", "tolerance", "max_iterations", "scale_refresh_interval"):
            with pytest.raises(TypeError, match=knob):
                solve_num(network, **{knob: 1})
            with pytest.raises(TypeError, match=knob):
                PersistentDualSolver(**{knob: 1})
            with pytest.raises(TypeError, match=knob):
                OracleRatePolicy(**{knob: 1})



class TestClosedForms:
    """The Oracle against the single-link closed forms, through both entry
    points: a fresh ``solve_num`` and one ``PersistentDualSolver`` kept warm
    while flows join."""

    def test_proportional_fair_single_link(self):
        """Proportional fairness on one link is an equal split."""
        network = FluidNetwork({"link": 12e9})
        assert solve_num(network).rates == {}
        solver = PersistentDualSolver()
        for n_flows in range(1, 7):
            network.add_flow(FluidFlow(n_flows, ("link",), LogUtility()))
            for result in (solver.solve(network), solve_num(network)):
                assert result.converged, result.certificate
                assert sorted(result.rates) == list(range(1, n_flows + 1))
                for rate in result.rates.values():
                    assert rate == pytest.approx(12e9 / n_flows, rel=1e-6)

    def test_alpha_fair_single_link(self):
        """Weighted alpha-fairness on one link splits in proportion to the
        weights, whatever alpha is: ``capacity * w_i / sum w``."""
        weights = [1.0, 4.0, 0.5]
        for alpha in (0.5, 1.0, 2.0):
            network = FluidNetwork({"link": 11e9})
            solver = PersistentDualSolver()
            for flow_id, weight in enumerate(weights):
                utility = WeightedAlphaFairUtility(weight=weight, alpha=alpha)
                network.add_flow(FluidFlow(flow_id, ("link",), utility))
                total = sum(weights[: flow_id + 1])
                for result in (solver.solve(network), solve_num(network)):
                    assert result.converged, (alpha, result.certificate)
                    for other in range(flow_id + 1):
                        expected = 11e9 * weights[other] / total
                        assert result.rates[other] == pytest.approx(expected, rel=1e-6), alpha

    @pytest.mark.xfail(strict=True, reason="known defect: at alpha >= 3 a lone flow's "
                       "KKT price, U'(capacity) = capacity ** -alpha, is below 1e-30 "
                       "at Gb/s; SPG stops uncertified and Newton fails or divides by zero")
    @pytest.mark.parametrize("alpha, capacity", [(3.0, 11e9), (4.0, 1e9), (6.0, 11e9)])
    def test_high_alpha_lone_flow_takes_the_link(self, alpha, capacity):
        network = FluidNetwork({"link": capacity})
        network.add_flow(FluidFlow(0, ("link",), WeightedAlphaFairUtility(weight=1.0, alpha=alpha)))
        result = solve_num(network)
        assert result.converged, result.certificate
        assert result.rates[0] == pytest.approx(capacity, rel=1e-6)

    def test_alpha_fair_requires_positive_alpha(self):
        """At ``alpha = 0`` the marginal utility is constant and the optimum
        is not unique: the weighted form refuses to build, and both entry
        points refuse a plain alpha-fair flow, cold or joining a warm solve."""
        with pytest.raises(ValueError, match="alpha"):
            WeightedAlphaFairUtility(weight=1.0, alpha=0.0)
        network = FluidNetwork({"link": 10e9})
        network.add_flow(FluidFlow("log", ("link",), LogUtility()))
        solver = PersistentDualSolver()
        assert solver.solve(network).converged
        network.add_flow(FluidFlow("throughput", ("link",), AlphaFairUtility(alpha=0.0)))
        for solve in (solver.solve, solve_num):
            with pytest.raises(ValueError, match="alpha = 0"):
                solve(network)
