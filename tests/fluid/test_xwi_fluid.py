"""Tests for the fluid xWI simulator: convergence to the NUM optimum."""

import pytest

from repro.core.config import NumFabricParameters
from repro.core.utility import AlphaFairUtility, FctUtility, LogUtility, WeightedAlphaFairUtility
from repro.fluid.convergence import ConvergenceCriterion, convergence_iterations
from repro.fluid.network import FlowGroup, FluidFlow, FluidNetwork
from repro.fluid.oracle import solve_num
from repro.fluid.xwi import XwiFluidSimulator


def assert_rates_close(rates, optimal, rel=0.05):
    for flow_id, optimal_rate in optimal.items():
        assert rates[flow_id] == pytest.approx(optimal_rate, rel=rel), flow_id


class TestSingleLinkConvergence:
    def test_proportional_fairness(self):
        network = FluidNetwork.single_link(10e9, 5)
        simulator = XwiFluidSimulator(network)
        records = simulator.run(40)
        optimal = solve_num(network).rates
        assert_rates_close(records[-1].rates, optimal)

    def test_weighted_proportional_fairness(self):
        network = FluidNetwork({"l": 10e9})
        for i, weight in enumerate([1.0, 2.0, 5.0]):
            network.add_flow(FluidFlow(i, ("l",), LogUtility(weight=weight)))
        simulator = XwiFluidSimulator(network)
        records = simulator.run(60)
        optimal = solve_num(network).rates
        assert_rates_close(records[-1].rates, optimal)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_alpha_fairness(self, alpha):
        network = FluidNetwork({"l": 10e9})
        for i in range(4):
            network.add_flow(FluidFlow(i, ("l",), AlphaFairUtility(alpha=alpha)))
        simulator = XwiFluidSimulator(network)
        records = simulator.run(80)
        optimal = solve_num(network).rates
        assert_rates_close(records[-1].rates, optimal)


class TestMultiLinkConvergence:
    def test_parking_lot(self):
        network = FluidNetwork({"l1": 9e9, "l2": 9e9})
        network.add_flow(FluidFlow("long", ("l1", "l2"), LogUtility()))
        network.add_flow(FluidFlow("s1", ("l1",), LogUtility()))
        network.add_flow(FluidFlow("s2", ("l2",), LogUtility()))
        simulator = XwiFluidSimulator(network)
        records = simulator.run(80)
        optimal = solve_num(network).rates
        assert_rates_close(records[-1].rates, optimal)

    def test_heterogeneous_weights_and_capacities(self):
        network = FluidNetwork({"a": 10e9, "b": 4e9, "c": 25e9})
        network.add_flow(FluidFlow(1, ("a", "b"), LogUtility(weight=2.0)))
        network.add_flow(FluidFlow(2, ("b", "c"), LogUtility(weight=1.0)))
        network.add_flow(FluidFlow(3, ("a", "c"), LogUtility(weight=0.5)))
        network.add_flow(FluidFlow(4, ("c",), LogUtility(weight=3.0)))
        simulator = XwiFluidSimulator(network)
        records = simulator.run(150)
        optimal = solve_num(network).rates
        assert_rates_close(records[-1].rates, optimal, rel=0.08)

    def test_weighted_alpha_two_network(self):
        network = FluidNetwork({"a": 10e9, "b": 4e9})
        network.add_flow(FluidFlow(1, ("a", "b"), WeightedAlphaFairUtility(weight=1.0, alpha=2.0)))
        network.add_flow(FluidFlow(2, ("a",), WeightedAlphaFairUtility(weight=2.0, alpha=2.0)))
        network.add_flow(FluidFlow(3, ("b",), WeightedAlphaFairUtility(weight=3.0, alpha=2.0)))
        simulator = XwiFluidSimulator(network)
        records = simulator.run(150)
        optimal = solve_num(network).rates
        assert_rates_close(records[-1].rates, optimal, rel=0.08)

    def test_rates_always_feasible(self):
        """xWI never oversubscribes a link at any iteration (the Swift property)."""
        network = FluidNetwork({"a": 10e9, "b": 4e9})
        network.add_flow(FluidFlow(1, ("a", "b"), LogUtility()))
        network.add_flow(FluidFlow(2, ("a",), AlphaFairUtility(alpha=2.0)))
        network.add_flow(FluidFlow(3, ("b",), LogUtility(weight=4.0)))
        simulator = XwiFluidSimulator(network)
        for record in simulator.run(50):
            assert network.is_feasible(record.rates, tolerance=1e-6)


class TestDynamicFlowChanges:
    def test_flow_arrival_reconverges(self):
        network = FluidNetwork.single_link(10e9, 2)
        simulator = XwiFluidSimulator(network)
        simulator.run(40)
        network.add_flow(FluidFlow("new", ("link",), LogUtility()))
        records = simulator.run(40)
        optimal = solve_num(network).rates
        assert_rates_close(records[-1].rates, optimal)

    def test_flow_departure_reconverges(self):
        network = FluidNetwork.single_link(10e9, 3)
        simulator = XwiFluidSimulator(network)
        simulator.run(40)
        network.remove_flow(0)
        records = simulator.run(40)
        optimal = solve_num(network).rates
        assert_rates_close(records[-1].rates, optimal)

    def test_capacity_change_reconverges(self):
        network = FluidNetwork.single_link(10e9, 2)
        simulator = XwiFluidSimulator(network)
        simulator.run(40)
        network.set_capacity("link", 30e9)
        records = simulator.run(60)
        optimal = solve_num(network).rates
        assert_rates_close(records[-1].rates, optimal)


class TestResourcePooling:
    def test_two_subflows_fill_both_paths(self):
        network = FluidNetwork({"p1": 4e9, "p2": 6e9})
        network.add_group(FlowGroup("g", LogUtility()))
        network.add_flow(FluidFlow("s1", ("p1",), LogUtility(), group_id="g"))
        network.add_flow(FluidFlow("s2", ("p2",), LogUtility(), group_id="g"))
        simulator = XwiFluidSimulator(network)
        records = simulator.run(100)
        aggregate = sum(records[-1].rates.values())
        assert aggregate == pytest.approx(10e9, rel=0.05)

    def test_pooled_groups_share_fairly(self):
        """Two groups, each with a private path and a shared path."""
        network = FluidNetwork({"shared": 10e9, "private1": 5e9, "private2": 5e9})
        for g in ("g1", "g2"):
            network.add_group(FlowGroup(g, LogUtility()))
        network.add_flow(FluidFlow("g1_priv", ("private1",), LogUtility(), group_id="g1"))
        network.add_flow(FluidFlow("g1_shared", ("shared",), LogUtility(), group_id="g1"))
        network.add_flow(FluidFlow("g2_priv", ("private2",), LogUtility(), group_id="g2"))
        network.add_flow(FluidFlow("g2_shared", ("shared",), LogUtility(), group_id="g2"))
        simulator = XwiFluidSimulator(network)
        records = simulator.run(150)
        rates = records[-1].rates
        g1 = rates["g1_priv"] + rates["g1_shared"]
        g2 = rates["g2_priv"] + rates["g2_shared"]
        assert g1 == pytest.approx(g2, rel=0.1)
        assert g1 + g2 == pytest.approx(20e9, rel=0.05)


class TestConvergenceSpeed:
    def test_converges_within_tens_of_iterations(self):
        """The headline claim: xWI needs only a handful of price updates."""
        network = FluidNetwork({"a": 10e9, "b": 40e9})
        for i in range(10):
            path = ("a",) if i % 2 == 0 else ("a", "b")
            network.add_flow(FluidFlow(i, path, LogUtility()))
        simulator = XwiFluidSimulator(network)
        simulator.run(100)
        optimal = solve_num(network).rates
        iterations = convergence_iterations(
            simulator.history, optimal, ConvergenceCriterion(hold_iterations=3)
        )
        assert iterations is not None
        assert iterations <= 40

    def test_fct_utility_converges_with_slowdown(self):
        """Small-alpha utilities need the 2x-slowed control loop (Sec. 6.2)."""
        params = NumFabricParameters().slowed_down(2.0)
        network = FluidNetwork({"l": 10e9})
        network.add_flow(FluidFlow("short", ("l",), FctUtility(flow_size=100e3)))
        network.add_flow(FluidFlow("long", ("l",), FctUtility(flow_size=10e6)))
        simulator = XwiFluidSimulator(network, params=params)
        records = simulator.run(200)
        assert records[-1].rates["short"] > records[-1].rates["long"]
        total = sum(records[-1].rates.values())
        assert total == pytest.approx(10e9, rel=0.05)
