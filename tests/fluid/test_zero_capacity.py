"""Graceful degradation: every solver path survives zero/near-zero capacity.

The fault subsystem (PR: fault-injection) can drive any link's capacity to
exactly ``0.0`` (hard failure) or to values like ``1e-12`` (deep
degradation).  These tests pin the contract for every allocation path:
finite prices, finite non-negative rates, flows crossing a dead link pinned
to zero -- no NaN, no inf, no ZeroDivisionError -- and warm solver state
surviving across the fault.
"""

import math

import numpy as np
import pytest

from _fluid_reference import make_simulator
from _maxmin_reference import scalar_max_min
from _oracle_reference import scalar_solve
from repro.core.utility import LogUtility
from repro.fluid.dctcp import DctcpFluidSimulator
from repro.fluid.dgd import DgdFluidSimulator
from repro.fluid.maxmin import weighted_max_min
from repro.fluid import oracle
from repro.fluid.network import FluidFlow, FluidNetwork
from repro.fluid.oracle import PersistentDualSolver, solve_num
from repro.fluid.rcp import RcpStarFluidSimulator
from repro.fluid.vectorized import compile_network, waterfill_arrays
from repro.fluid.xwi import XwiFluidSimulator

DEAD_CAPACITIES = [0.0, 1e-12]
#: The cold Oracle and its per-flow reference, by test id.
SOLVERS = {"scalar": scalar_solve, "vectorized": solve_num}


def two_link_network(dead_capacity: float) -> FluidNetwork:
    """``shared`` stays healthy; ``dead`` is failed/near-dead.

    Flow ``a`` uses only the healthy link, ``b`` only the dead one and
    ``ab`` crosses both -- covering private, dead-only and mixed paths.
    """
    network = FluidNetwork({"shared": 10e9, "dead": 10e9})
    network.add_flow(FluidFlow("a", ("shared",), LogUtility()))
    network.add_flow(FluidFlow("b", ("dead",), LogUtility()))
    network.add_flow(FluidFlow("ab", ("shared", "dead"), LogUtility()))
    network.set_capacity("dead", dead_capacity)
    return network


def assert_finite_rates(rates, dead_capacity):
    for flow_id, rate in rates.items():
        assert math.isfinite(rate), f"{flow_id} rate is {rate}"
        assert rate >= 0.0
    # Flows crossing the dead link get (at most) its capacity.
    for flow_id in ("b", "ab"):
        if flow_id in rates:
            assert rates[flow_id] <= dead_capacity + 1e-9


def test_set_capacity_rejects_negative_but_allows_zero():
    network = FluidNetwork({"link": 10e9})
    network.set_capacity("link", 0.0)
    assert network.capacity("link") == 0.0
    with pytest.raises(ValueError):
        network.set_capacity("link", -1.0)


def test_set_capacity_bumps_capacity_version():
    network = FluidNetwork({"link": 10e9})
    before = network.capacity_version
    network.set_capacity("link", 0.0)
    assert network.capacity_version != before


@pytest.mark.parametrize("dead", DEAD_CAPACITIES)
def test_weighted_max_min_zero_capacity(dead):
    weights = {"a": 1.0, "b": 1.0, "ab": 1.0}
    paths = {"a": ("shared",), "b": ("dead",), "ab": ("shared", "dead")}
    rates = weighted_max_min(weights, paths, {"shared": 10e9, "dead": dead})
    assert_finite_rates(rates, dead)
    assert rates["a"] > 0.0


@pytest.mark.parametrize("dead", DEAD_CAPACITIES)
def test_waterfill_arrays_zero_capacity(dead):
    paths = {"a": ("shared",), "b": ("dead",), "ab": ("shared", "dead")}
    capacities = {"shared": 10e9, "dead": dead}
    rates = weighted_max_min({"a": 1.0, "b": 1.0, "ab": 1.0}, paths, capacities)
    assert_finite_rates(rates, dead)
    # Parity with the scalar reference on the degenerate instance.
    scalar = scalar_max_min({"a": 1.0, "b": 1.0, "ab": 1.0}, paths, capacities)
    for flow_id, rate in scalar.items():
        assert rates[flow_id] == pytest.approx(rate, abs=1e-6)
    # Same instance on the network snapshot's maintained path_links (ragged
    # rows, so the dead link sits next to sentinel padding).
    snapshot = compile_network(two_link_network(dead))
    assert snapshot.path_links.tolist() == [[0, 2], [1, 2], [0, 1]]
    path_indexed = waterfill_arrays(
        snapshot.path_links, np.ones(3), snapshot.capacities_vector()
    )
    assert np.all(np.isfinite(path_indexed))
    for flow_id, rate in zip(snapshot.flow_ids, path_indexed.tolist()):
        assert rate == pytest.approx(scalar[flow_id], abs=1e-6)
    assert snapshot.path_capacities().tolist() == [10e9, dead, dead]
    assert np.all(snapshot.link_load(path_indexed) <= snapshot.capacities_vector() + 1e-6)


@pytest.mark.parametrize("dead", DEAD_CAPACITIES)
@pytest.mark.parametrize("backend", ["scalar", "vectorized"])
@pytest.mark.parametrize(
    "simulator_cls",
    [XwiFluidSimulator, DgdFluidSimulator, RcpStarFluidSimulator, DctcpFluidSimulator],
)
def test_fluid_simulators_survive_dead_link(simulator_cls, backend, dead):
    network = two_link_network(dead)
    simulator = make_simulator(simulator_cls, network, backend)
    record = None
    for _ in range(30):
        record = simulator.step()
        assert_finite_rates(record.rates, dead)
    # Link-side state must stay finite too (prices / fair rates / windows).
    for attr in ("prices", "fair_rates"):
        state = getattr(simulator, attr, None)
        if state:
            for link, value in state.items():
                assert math.isfinite(value), f"{attr}[{link}] = {value}"
    # The healthy-only flow keeps making progress.
    assert record.rates["a"] > 0.0


@pytest.mark.parametrize("backend", ["scalar", "vectorized"])
def test_fluid_simulator_recovers_after_restore(backend):
    network = two_link_network(0.0)
    simulator = make_simulator(XwiFluidSimulator, network, backend)
    for _ in range(20):
        simulator.step()
    network.set_capacity("dead", 10e9)
    record = None
    for _ in range(120):
        record = simulator.step()
    assert record.rates["b"] > 1e8  # the dead-link flow came back


@pytest.mark.parametrize("dead", DEAD_CAPACITIES)
@pytest.mark.parametrize("solver", ["scalar", "vectorized"])
def test_solve_num_zero_capacity(solver, dead):
    network = two_link_network(dead)
    result = SOLVERS[solver](network)
    assert result.converged
    assert_finite_rates(result.rates, dead)
    assert math.isfinite(result.objective)
    for link, price in result.prices.items():
        assert math.isfinite(price), f"price[{link}] = {price}"
    assert result.rates["a"] > 1e8  # the healthy flow still gets real rate


@pytest.mark.parametrize("solver", ["scalar", "vectorized"])
def test_solve_num_every_link_dead(solver):
    network = FluidNetwork({"l1": 10e9, "l2": 10e9})
    network.add_flow(FluidFlow("f1", ("l1",), LogUtility()))
    network.add_flow(FluidFlow("f2", ("l1", "l2"), LogUtility()))
    network.set_capacity("l1", 0.0)
    network.set_capacity("l2", 0.0)
    result = SOLVERS[solver](network)
    assert result.converged
    assert result.rates == {"f1": 0.0, "f2": 0.0}
    assert all(price == 0.0 for price in result.prices.values())
    assert math.isfinite(result.objective)


@pytest.mark.parametrize("dead", DEAD_CAPACITIES)
def test_persistent_dual_solver_zero_capacity(dead):
    network = two_link_network(dead)
    solver = PersistentDualSolver()
    result = solver.solve(network)
    assert_finite_rates(result.rates, dead)
    reference = solve_num(network)
    assert result.rates["a"] == pytest.approx(reference.rates["a"], rel=1e-3)


@pytest.mark.parametrize("dead", DEAD_CAPACITIES)
def test_safeguarded_persistent_solve_is_certified(dead, monkeypatch):
    """The better of the dual's and max-min's allocations attains the dual
    bound here, so the safeguarded answer is certified converged without
    the SLSQP fallback ever running."""

    def no_fallback(*args, **kwargs):
        raise AssertionError("the SLSQP fallback ran")

    monkeypatch.setattr(oracle, "_solve_num_primal", no_fallback)
    network = two_link_network(dead)
    result = PersistentDualSolver(safeguard=True).solve(network)
    assert result.converged
    assert_finite_rates(result.rates, dead)
    reference = scalar_solve(network)
    assert result.objective == pytest.approx(reference.objective, rel=1e-12)


def test_persistent_dual_solver_warm_across_fault():
    """Fail a link mid-churn, keep solving, restore it -- state stays warm
    and every solve matches a fresh Oracle."""
    network = FluidNetwork({"shared": 10e9, "dead": 10e9})
    network.add_flow(FluidFlow("a", ("shared",), LogUtility()))
    network.add_flow(FluidFlow("ab", ("shared", "dead"), LogUtility()))
    solver = PersistentDualSolver()

    def check():
        mine = solver.solve(network)
        fresh = solve_num(network)
        for flow_id, rate in fresh.rates.items():
            assert mine.rates[flow_id] == pytest.approx(rate, rel=1e-3, abs=1.0)
        assert_finite_rates(mine.rates, network.capacity("dead"))

    check()
    network.set_capacity("dead", 0.0)
    check()
    # Churn while the link is down (the dynamic experiments' pattern).
    network.add_flow(FluidFlow("b", ("dead",), LogUtility()))
    check()
    network.set_capacity("dead", 10e9)
    check()


def test_persistent_dual_solver_invalidates_on_capacity_change():
    """A mid-churn capacity change must invalidate the cached conditioning:
    the solver's allocation tracks the new capacity, not the stale scale."""
    network = FluidNetwork({"link": 10e9})
    for i in range(4):
        network.add_flow(FluidFlow(i, ("link",), LogUtility()))
    solver = PersistentDualSolver()
    first = solver.solve(network)
    assert sum(first.rates.values()) == pytest.approx(10e9, rel=1e-3)
    # Rescale the capacity by 100x -- a stale price scale/curvature would
    # leave the dual far from the new optimum.
    network.set_capacity("link", 100e9)
    second = solver.solve(network)
    assert sum(second.rates.values()) == pytest.approx(100e9, rel=1e-3)
    network.set_capacity("link", 1e9)
    third = solver.solve(network)
    assert sum(third.rates.values()) == pytest.approx(1e9, rel=1e-3)


def test_zero_capacity_property():
    """Property test: random topologies with randomly failed links never
    produce non-finite rates or prices, in the Oracle or its reference."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(
        capacities=st.lists(
            st.sampled_from([0.0, 1e-12, 1e-3, 1e9, 10e9]), min_size=2, max_size=4
        ),
        paths=st.data(),
    )
    def run(capacities, paths):
        links = [f"l{i}" for i in range(len(capacities))]
        network = FluidNetwork(
            {link: 10e9 for link in links}
        )
        num_flows = paths.draw(st.integers(min_value=1, max_value=5))
        for j in range(num_flows):
            path = paths.draw(
                st.lists(st.sampled_from(links), min_size=1, max_size=len(links), unique=True)
            )
            network.add_flow(FluidFlow(f"f{j}", tuple(path), LogUtility()))
        for link, capacity in zip(links, capacities):
            network.set_capacity(link, capacity)
        for solve in SOLVERS.values():
            result = solve(network)
            values = list(result.rates.values()) + list(result.prices.values())
            assert np.all(np.isfinite(values))
            assert all(rate >= 0.0 for rate in result.rates.values())

    run()
