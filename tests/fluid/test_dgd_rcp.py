"""Tests for the DGD and RCP* fluid baselines."""

import pytest

from repro.core.utility import AlphaFairUtility, LogUtility
from repro.fluid.convergence import ConvergenceCriterion, convergence_iterations
from repro.fluid.dgd import DgdFluidParameters, DgdFluidSimulator
from repro.fluid.dctcp import DctcpFluidSimulator
from repro.fluid.network import FluidFlow, FluidNetwork
from repro.fluid.oracle import solve_num
from repro.fluid.rcp import RcpStarFluidSimulator
from repro.fluid.xwi import XwiFluidSimulator


class TestDgdFluidSimulator:
    def test_converges_to_proportional_fairness(self):
        network = FluidNetwork.single_link(10e9, 4)
        simulator = DgdFluidSimulator(network)
        simulator.run(400)
        optimal = solve_num(network).rates
        final = simulator.history[-1].rates
        for flow_id, rate in optimal.items():
            assert final[flow_id] == pytest.approx(rate, rel=0.1)

    def test_parking_lot_convergence(self):
        network = FluidNetwork({"l1": 9e9, "l2": 9e9})
        network.add_flow(FluidFlow("long", ("l1", "l2"), LogUtility()))
        network.add_flow(FluidFlow("s1", ("l1",), LogUtility()))
        network.add_flow(FluidFlow("s2", ("l2",), LogUtility()))
        simulator = DgdFluidSimulator(network)
        simulator.run(600)
        optimal = solve_num(network).rates
        final = simulator.history[-1].rates
        for flow_id, rate in optimal.items():
            assert final[flow_id] == pytest.approx(rate, rel=0.15)

    def test_rate_capped_at_two_bdp(self):
        params = DgdFluidParameters(max_outstanding_bdp=2.0)
        network = FluidNetwork.single_link(10e9, 1)
        simulator = DgdFluidSimulator(network, params=params, initial_price=1e-15)
        record = simulator.step()
        assert record.rates[0] <= 2.0 * 10e9 + 1.0

    def test_transient_overload_is_possible(self):
        """Unlike xWI, DGD can oversubscribe links while prices are wrong."""
        network = FluidNetwork.single_link(10e9, 8)
        simulator = DgdFluidSimulator(network, initial_price=1e-12)
        record = simulator.step()
        load = sum(record.rates.values())
        assert load > 10e9

    def test_slower_than_xwi(self):
        """The headline comparison: xWI converges in fewer control iterations."""
        def build():
            network = FluidNetwork({"a": 10e9, "b": 40e9})
            for i in range(10):
                path = ("a",) if i % 2 == 0 else ("a", "b")
                network.add_flow(FluidFlow(i, path, LogUtility()))
            return network

        criterion = ConvergenceCriterion(hold_iterations=3)
        network = build()
        optimal = solve_num(network).rates

        xwi = XwiFluidSimulator(build())
        xwi.run(500)
        xwi_iters = convergence_iterations(xwi.history, optimal, criterion)

        dgd = DgdFluidSimulator(build())
        dgd.run(500)
        dgd_iters = convergence_iterations(dgd.history, optimal, criterion)

        assert xwi_iters is not None
        if dgd_iters is None:
            dgd_iters = 500
        assert xwi_iters < dgd_iters


class TestRcpStarFluidSimulator:
    def test_single_link_fair_share(self):
        network = FluidNetwork.single_link(10e9, 4)
        simulator = RcpStarFluidSimulator(network)
        simulator.run(400)
        final = simulator.history[-1].rates
        for rate in final.values():
            assert rate == pytest.approx(2.5e9, rel=0.1)

    def test_alpha_fairness_on_parking_lot(self):
        network = FluidNetwork({"l1": 9e9, "l2": 9e9})
        network.add_flow(FluidFlow("long", ("l1", "l2"), AlphaFairUtility(alpha=1.0)))
        network.add_flow(FluidFlow("s1", ("l1",), AlphaFairUtility(alpha=1.0)))
        network.add_flow(FluidFlow("s2", ("l2",), AlphaFairUtility(alpha=1.0)))
        simulator = RcpStarFluidSimulator(RcpStarFluidSimulator(network).network)
        simulator.run(600)
        optimal = solve_num(network).rates
        final = simulator.history[-1].rates
        for flow_id, rate in optimal.items():
            assert final[flow_id] == pytest.approx(rate, rel=0.2)

    def test_fair_rate_never_exceeds_capacity(self):
        network = FluidNetwork.single_link(10e9, 2)
        simulator = RcpStarFluidSimulator(network)
        for record in simulator.run(100):
            assert all(rate <= 10e9 for rate in record.fair_rates.values())


class TestDctcpFluidSimulator:
    def test_rates_oscillate_and_do_not_converge(self):
        """DCTCP's rates keep oscillating (the Figure 4(b) observation)."""
        network = FluidNetwork.single_link(10e9, 4)
        simulator = DctcpFluidSimulator(network)
        records = simulator.run(3000)
        late = [record.rates[0] for record in records[-1000:]]
        mean = sum(late) / len(late)
        spread = (max(late) - min(late)) / mean
        assert spread > 0.2

    def test_aggregate_throughput_reasonable(self):
        network = FluidNetwork.single_link(10e9, 4)
        simulator = DctcpFluidSimulator(network)
        records = simulator.run(3000)
        late_totals = [sum(record.rates.values()) for record in records[-500:]]
        mean_total = sum(late_totals) / len(late_totals)
        assert mean_total == pytest.approx(10e9, rel=0.35)

    def test_flow_departure_cleans_state(self):
        network = FluidNetwork.single_link(10e9, 2)
        simulator = DctcpFluidSimulator(network)
        simulator.run(10)
        network.remove_flow(0)
        simulator.run(10)
        assert 0 not in simulator.windows
