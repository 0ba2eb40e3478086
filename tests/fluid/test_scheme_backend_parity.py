"""Parity suite for the DGD / RCP* / DCTCP fluid simulators + CompiledMaxMin.

Mirrors ``tests/fluid/test_vectorized_parity.py`` (the xWI suite): every
test drives a scheme's scalar reference (``_fluid_reference.py``) and its
production simulator through the same scenario and asserts that rates AND
the per-link state (prices, fair rates, queues) agree within 1e-9 -- far
looser than the observed agreement (~1e-15 relative), but tight enough
that any semantic divergence fails immediately.  Each scheme gets the Table 2 parameter grid, a churn trace,
and a hypothesis-driven random-topology comparison.
"""

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from _fluid_reference import Reference
from repro.core.utility import AlphaFairUtility, FctUtility, LogUtility, WeightedAlphaFairUtility
from repro.fluid.dctcp import DctcpFluidParameters, DctcpFluidSimulator
from repro.fluid.dgd import DgdFluidParameters, DgdFluidSimulator
from repro.fluid.maxmin import weighted_max_min
from repro.fluid.network import FluidFlow, FluidNetwork
from repro.fluid.rcp import RcpStarFluidParameters, RcpStarFluidSimulator
from repro.fluid.vectorized import CompiledMaxMin, compile_max_min

TOLERANCE = 1e-9

SCHEMES = {
    "dgd": (DgdFluidSimulator, DgdFluidParameters),
    "rcp_star": (RcpStarFluidSimulator, RcpStarFluidParameters),
    "dctcp": (DctcpFluidSimulator, DctcpFluidParameters),
}

#: Per-scheme gain/parameter variants around the Table 2 operating points.
PARAMETER_GRID = {
    "dgd": [
        DgdFluidParameters(),
        DgdFluidParameters(utilization_gain=0.5, queue_gain=0.05),
        DgdFluidParameters(queue_gain=0.4, max_outstanding_bdp=1.0),
        DgdFluidParameters(update_interval=32e-6, rtt=32e-6),
    ],
    "rcp_star": [
        RcpStarFluidParameters(),
        RcpStarFluidParameters(gain_a=0.8, gain_b=0.1),
        RcpStarFluidParameters(alpha=2.0),
        RcpStarFluidParameters(alpha=0.5, max_outstanding_bdp=1.0),
    ],
    "dctcp": [
        DctcpFluidParameters(),
        DctcpFluidParameters(marking_threshold_fraction=0.3),
        DctcpFluidParameters(gain=1.0 / 4.0),
        DctcpFluidParameters(initial_window_fraction=0.5, mtu_bits=9000 * 8),
    ],
}


def assert_close(scalar_values, vectorized_values, scale=1.0, what="rates"):
    assert set(scalar_values) == set(vectorized_values), what
    for key, value in scalar_values.items():
        assert vectorized_values[key] == pytest.approx(
            value, rel=TOLERANCE, abs=TOLERANCE * scale
        ), (what, key)


def link_state(simulator):
    """The scheme's per-link state dicts (name -> dict), for deep parity."""
    state = {"queues": simulator.queues}
    if hasattr(simulator, "prices"):
        state["prices"] = simulator.prices
    if hasattr(simulator, "fair_rates"):
        state["fair_rates"] = simulator.fair_rates
    return state


def assert_step_parity(scalar_sim, vectorized_sim, iterations):
    for _ in range(iterations):
        scalar_record = scalar_sim.step()
        vectorized_record = vectorized_sim.step()
        assert_close(scalar_record.rates, vectorized_record.rates, scale=1e9)
        scalar_state = link_state(scalar_sim)
        vectorized_state = link_state(vectorized_sim)
        for name, values in scalar_state.items():
            assert_close(values, vectorized_state[name], scale=1e9, what=name)


def make_pair(capacities):
    return FluidNetwork(dict(capacities)), FluidNetwork(dict(capacities))


def add_to_both(networks, flow_id, path, utility):
    for network in networks:
        network.add_flow(FluidFlow(flow_id, path, copy.deepcopy(utility)))


def build_pair():
    """A small multi-bottleneck pair with all vectorizable utility families."""
    networks = make_pair({"a": 10e9, "b": 4e9, "c": 25e9})
    add_to_both(networks, 0, ("a", "b"), LogUtility(weight=2.0))
    add_to_both(networks, 1, ("b", "c"), AlphaFairUtility(alpha=2.0))
    add_to_both(networks, 2, ("a", "c"), WeightedAlphaFairUtility(weight=3.0, alpha=0.5))
    add_to_both(networks, 3, ("c",), FctUtility(flow_size=1e6))
    return networks


class TestSchemeBackendParity:
    @pytest.mark.parametrize(
        "scheme,params",
        [(scheme, params) for scheme in PARAMETER_GRID for params in PARAMETER_GRID[scheme]],
    )
    def test_parameter_grid(self, scheme, params):
        """Parity must hold across the gain grid, not just the defaults."""
        simulator_cls, _ = SCHEMES[scheme]
        networks = build_pair()
        scalar = Reference(simulator_cls, networks[0], params=params)
        vectorized = simulator_cls(networks[1], params=params)
        assert_step_parity(scalar, vectorized, 150)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_churn_trace(self, scheme):
        """Arrivals and departures patch the compiled snapshot without divergence."""
        simulator_cls, _ = SCHEMES[scheme]
        networks = make_pair({"a": 10e9, "b": 4e9})
        add_to_both(networks, 0, ("a",), LogUtility())
        add_to_both(networks, 1, ("a", "b"), LogUtility(weight=2.0))
        scalar = Reference(simulator_cls, networks[0])
        vectorized = simulator_cls(networks[1])
        trace = [
            ("run", 30),
            ("add", 2, ("b",), AlphaFairUtility(alpha=2.0)),
            ("run", 30),
            ("add", 3, ("a", "b"), FctUtility(flow_size=5e5)),
            ("run", 30),
            ("remove", 1),
            ("run", 30),
            ("remove", 0),
            ("add", 4, ("a",), LogUtility(weight=0.5)),
            ("run", 40),
        ]
        for event in trace:
            if event[0] == "run":
                assert_step_parity(scalar, vectorized, event[1])
            elif event[0] == "add":
                _, flow_id, path, utility = event
                add_to_both(networks, flow_id, path, utility)
            else:
                for network in networks:
                    network.remove_flow(event[1])

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_capacity_change_needs_no_recompile(self, scheme):
        simulator_cls, _ = SCHEMES[scheme]
        networks = make_pair({"l": 10e9})
        add_to_both(networks, 0, ("l",), LogUtility())
        add_to_both(networks, 1, ("l",), LogUtility())
        scalar = Reference(simulator_cls, networks[0])
        vectorized = simulator_cls(networks[1])
        assert_step_parity(scalar, vectorized, 40)
        compiled_before = vectorized._compiled
        for network in networks:
            network.set_capacity("l", 2e9)
        assert_step_parity(scalar, vectorized, 60)
        assert vectorized._compiled is compiled_before

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_empty_network(self, scheme):
        """A flowless step must work, as in the reference (prices still move)."""
        simulator_cls, _ = SCHEMES[scheme]
        networks = make_pair({"l": 1e9})
        scalar = Reference(simulator_cls, networks[0])
        vectorized = simulator_cls(networks[1])
        assert_step_parity(scalar, vectorized, 5)

    def test_dctcp_departure_cleans_vectorized_state(self):
        network = FluidNetwork.single_link(10e9, 2)
        simulator = DctcpFluidSimulator(network)
        simulator.run(10)
        network.remove_flow(0)
        simulator.run(10)
        assert 0 not in simulator.windows
        assert 0 not in simulator.ecn_fraction
        assert len(simulator._windows.vector) == 1

    def test_dctcp_external_window_write_honored(self):
        """Assigning `windows` between steps takes effect, as in the reference."""
        networks = make_pair({"l": 10e9})
        for i in range(2):
            add_to_both(networks, i, ("l",), LogUtility())
        scalar = Reference(DctcpFluidSimulator, networks[0])
        vectorized = DctcpFluidSimulator(networks[1])
        assert_step_parity(scalar, vectorized, 10)
        override = {0: 5e4, 1: 7e4}
        scalar.windows = dict(override)
        vectorized.windows = dict(override)
        scalar_record = scalar.step()
        vectorized_record = vectorized.step()
        rtt = scalar.params.rtt
        assert scalar_record.rates[0] == pytest.approx(5e4 / rtt)
        assert vectorized_record.rates[0] == pytest.approx(5e4 / rtt)
        assert_step_parity(scalar, vectorized, 20)
        # In-place item mutation of the dict view must be honored too.
        scalar.windows[1] *= 3.0
        vectorized.windows[1] *= 3.0
        assert scalar.step().rates[1] == pytest.approx(vectorized.step().rates[1], rel=TOLERANCE)
        assert_step_parity(scalar, vectorized, 20)

    def test_dctcp_ewma_survives_churn(self):
        """The lazily synced ECN state must carry across a recompile."""
        networks = make_pair({"l": 10e9})
        for i in range(4):
            add_to_both(networks, i, ("l",), LogUtility())
        scalar = Reference(DctcpFluidSimulator, networks[0])
        vectorized = DctcpFluidSimulator(networks[1])
        assert_step_parity(scalar, vectorized, 120)  # long enough to mark
        add_to_both(networks, 99, ("l",), LogUtility())
        assert_step_parity(scalar, vectorized, 120)
        assert_close(scalar.ecn_fraction, vectorized.ecn_fraction, scale=1.0, what="ecn")


@st.composite
def random_scenarios(draw):
    """A random multi-link topology plus a mixed-utility flow population."""
    n_links = draw(st.integers(min_value=1, max_value=5))
    capacities = {
        f"l{i}": draw(st.sampled_from([1e9, 10e9, 40e9])) for i in range(n_links)
    }
    n_flows = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = random.Random(seed)
    flows = []
    for flow_id in range(n_flows):
        path = tuple(rng.sample(list(capacities), rng.randint(1, n_links)))
        utility = rng.choice(
            [
                LogUtility(weight=rng.uniform(0.2, 5.0)),
                AlphaFairUtility(alpha=rng.choice([0.5, 1.0, 2.0, 3.0])),
                WeightedAlphaFairUtility(weight=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.3, 2.0)),
                FctUtility(flow_size=rng.uniform(1e4, 1e7)),
            ]
        )
        flows.append((flow_id, path, utility))
    return capacities, flows


class TestRandomTopologyParity:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @given(scenario=random_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_random_topologies(self, scheme, scenario):
        """Property: scalar and vectorized agree on any random topology."""
        capacities, flows = scenario
        simulator_cls, _ = SCHEMES[scheme]
        networks = make_pair(capacities)
        for flow_id, path, utility in flows:
            add_to_both(networks, flow_id, path, utility)
        scalar = Reference(simulator_cls, networks[0])
        vectorized = simulator_cls(networks[1])
        assert_step_parity(scalar, vectorized, 40)


class TestCompiledMaxMin:
    def _instance(self, n_flows=30, seed=11):
        rng = random.Random(seed)
        capacities = {f"l{i}": rng.choice([1e9, 10e9, 40e9]) for i in range(5)}
        paths = {
            f: tuple(rng.sample(list(capacities), rng.randint(1, 3)))
            for f in range(n_flows)
        }
        weights = {f: rng.uniform(0.1, 5.0) for f in paths}
        return weights, paths, capacities

    def test_matches_scalar_across_weight_vectors(self):
        """The whole point: one compile, many solves, scalar-equal answers."""
        weights, paths, capacities = self._instance()
        compiled = compile_max_min(paths, capacities)
        rng = random.Random(3)
        for _ in range(10):
            weights = {f: rng.uniform(0.1, 5.0) for f in paths}
            assert_close(
                weighted_max_min(weights, paths, capacities),
                compiled.solve(weights),
                scale=1e9,
            )

    def test_from_network(self):
        network = FluidNetwork({"a": 10e9, "b": 4e9})
        network.add_flow(FluidFlow(0, ("a", "b"), LogUtility()))
        network.add_flow(FluidFlow(1, ("b",), LogUtility()))
        compiled = CompiledMaxMin.from_network(network)
        weights = {0: 1.0, 1: 3.0}
        paths = {0: ("a", "b"), 1: ("b",)}
        assert_close(
            weighted_max_min(weights, paths, network.capacities),
            compiled.solve(weights),
            scale=1e9,
        )

    def test_capacity_override_per_solve(self):
        weights, paths, capacities = self._instance()
        compiled = compile_max_min(paths, capacities)
        halved = {link: capacity / 2 for link, capacity in capacities.items()}
        assert_close(
            weighted_max_min(weights, paths, halved),
            compiled.solve(weights, capacities=halved),
            scale=1e9,
        )
        # ...and the compile-time capacities are untouched afterwards.
        assert_close(
            weighted_max_min(weights, paths, capacities),
            compiled.solve(weights),
            scale=1e9,
        )

    def test_validates_like_scalar(self):
        with pytest.raises(ValueError, match="empty"):
            compile_max_min({0: ()}, {"l": 1e9})
        with pytest.raises(ValueError, match="twice"):
            compile_max_min({0: ("l", "l")}, {"l": 1e9})
        with pytest.raises(KeyError):
            compile_max_min({0: ("ghost",)}, {"l": 1e9})
        compiled = compile_max_min({0: ("l",)}, {"l": 1e9})
        with pytest.raises(ValueError, match="positive weight"):
            compiled.solve({0: -1.0})
        with pytest.raises(ValueError, match="cover the same flow ids"):
            compiled.solve({1: 1.0})
        with pytest.raises(ValueError, match="cover the same flow ids"):
            compiled.solve({0: 1.0, 1: 1.0})
