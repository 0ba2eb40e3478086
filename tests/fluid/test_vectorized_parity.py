"""Parity suite: the vectorized fluid engine must match the scalar reference.

Every test drives the scalar reference (``_fluid_reference.py``) and the
production xWI simulator through the same scenario and asserts the
allocations (and prices) agree within 1e-9 --
far looser than the observed agreement (~1e-12 relative), but tight enough
that any semantic divergence (different clamping, different update order)
fails immediately.
"""

import copy

import pytest

from _fluid_reference import Reference
from repro.core.bandwidth_function import PiecewiseLinearBandwidthFunction
from repro.core.config import NumFabricParameters
from repro.core.utility import (
    AlphaFairUtility,
    BandwidthFunctionUtility,
    FctUtility,
    LogUtility,
    WeightedAlphaFairUtility,
)
from repro.fluid.maxmin import weighted_max_min
from repro.fluid.network import FlowGroup, FluidFlow, FluidNetwork
from repro.fluid.vectorized import compile_network
from repro.fluid.xwi import XwiFluidSimulator

TOLERANCE = 1e-9


def assert_parity(scalar_rates, vectorized_rates, scale=1.0):
    assert set(scalar_rates) == set(vectorized_rates)
    for flow_id, rate in scalar_rates.items():
        assert vectorized_rates[flow_id] == pytest.approx(
            rate, rel=TOLERANCE, abs=TOLERANCE * scale
        ), flow_id


def make_pair(capacities):
    """Two structurally identical networks (independent utility instances)."""
    return FluidNetwork(dict(capacities)), FluidNetwork(dict(capacities))


def add_to_both(networks, flow_id, path, utility, group_id=None):
    for network in networks:
        network.add_flow(FluidFlow(flow_id, path, copy.deepcopy(utility), group_id=group_id))


def run_both(networks, iterations, params=None):
    scalar = Reference(XwiFluidSimulator, networks[0], params=params)
    vectorized = XwiFluidSimulator(networks[1], params=params)
    for _ in range(iterations):
        scalar_record = scalar.step()
        vectorized_record = vectorized.step()
        assert_parity(scalar_record.rates, vectorized_record.rates, scale=1e9)
    return scalar, vectorized


class TestMaxMinBackendParity:
    def test_single_link(self):
        weights = {i: float(i + 1) for i in range(10)}
        paths = {i: ("l",) for i in range(10)}
        capacities = {"l": 10e9}
        assert_parity(
            weighted_max_min(weights, paths, capacities),
            weighted_max_min(weights, paths, capacities, backend="vectorized"),
            scale=1e9,
        )

    def test_parking_lot(self):
        weights = {"long": 1.0, "s1": 2.0, "s2": 0.5}
        paths = {"long": ("l1", "l2"), "s1": ("l1",), "s2": ("l2",)}
        capacities = {"l1": 9e9, "l2": 3e9}
        assert_parity(
            weighted_max_min(weights, paths, capacities),
            weighted_max_min(weights, paths, capacities, backend="vectorized"),
            scale=1e9,
        )

    def test_unused_links_ignored(self):
        weights = {0: 1.0}
        paths = {0: ("used",)}
        capacities = {"used": 1e9, "unused": 5e9}
        result = weighted_max_min(weights, paths, capacities, backend="vectorized")
        assert result[0] == pytest.approx(1e9)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            weighted_max_min({0: 1.0}, {0: ("l",)}, {"l": 1e9}, backend="gpu")

    def test_duplicate_link_paths_rejected(self):
        """A repeated link can't be represented in the incidence matrix, so
        both entry points refuse it instead of letting the backends diverge."""
        from repro.fluid.vectorized import weighted_max_min_vectorized

        with pytest.raises(ValueError, match="twice"):
            weighted_max_min({0: 1.0}, {0: ("l", "l")}, {"l": 1e9})
        with pytest.raises(ValueError, match="twice"):
            weighted_max_min({0: 1.0}, {0: ("l", "l")}, {"l": 1e9}, backend="vectorized")
        with pytest.raises(ValueError, match="twice"):
            weighted_max_min_vectorized({0: 1.0}, {0: ("l", "l")}, {"l": 1e9})
        with pytest.raises(ValueError, match="twice"):
            FluidFlow(0, ("l", "l"))

    def test_direct_vectorized_wrapper_validates(self):
        """The exported wrapper applies the same validation as the scalar API."""
        from repro.fluid.vectorized import weighted_max_min_vectorized

        with pytest.raises(ValueError):
            weighted_max_min_vectorized({0: -1.0}, {0: ("l",)}, {"l": 1e9})
        with pytest.raises(ValueError):
            weighted_max_min_vectorized({0: 1.0}, {1: ("l",)}, {"l": 1e9})
        with pytest.raises(KeyError):
            weighted_max_min_vectorized({0: 1.0}, {0: ("ghost",)}, {"l": 1e9})


class TestXwiBackendParity:
    @pytest.mark.parametrize(
        "params",
        [
            NumFabricParameters(),
            NumFabricParameters(eta=1.0),
            NumFabricParameters(eta=10.0),
            NumFabricParameters(beta=0.25),
            NumFabricParameters(beta=0.75),
            NumFabricParameters().slowed_down(2.0),
        ],
        ids=["table2-default", "eta-1", "eta-10", "beta-0.25", "beta-0.75", "slowed-2x"],
    )
    def test_table2_parameter_grid(self, params):
        """Parity must hold across the Table 2 parameter grid, not just defaults."""
        networks = make_pair({"a": 10e9, "b": 4e9, "c": 25e9})
        add_to_both(networks, 0, ("a", "b"), LogUtility(weight=2.0))
        add_to_both(networks, 1, ("b", "c"), AlphaFairUtility(alpha=2.0))
        add_to_both(networks, 2, ("a", "c"), WeightedAlphaFairUtility(weight=3.0, alpha=0.5))
        add_to_both(networks, 3, ("c",), FctUtility(flow_size=1e6))
        run_both(networks, 120, params=params)

    def test_utility_mix_including_bandwidth_functions(self):
        """Bandwidth-function utilities exercise the per-flow fallback path."""
        bwf = PiecewiseLinearBandwidthFunction([(0.0, 0.0), (1.0, 5e9), (2.0, 8e9)])
        networks = make_pair({"a": 10e9, "b": 6e9})
        add_to_both(networks, 0, ("a",), BandwidthFunctionUtility(bwf))
        add_to_both(networks, 1, ("a", "b"), LogUtility())
        add_to_both(networks, 2, ("b",), AlphaFairUtility(alpha=1.5))
        scalar, vectorized = run_both(networks, 80)
        compiled = vectorized._compiled
        assert compiled is not None and not compiled.vec_utils.fully_vectorized

    def test_multipath_flow_groups(self):
        """Resource-pooling groups (Sec. 6.3) follow the same heuristic."""
        networks = make_pair({"top": 10e9, "bottom": 10e9, "shared": 6e9})
        for network in networks:
            network.add_group(FlowGroup("g", LogUtility(weight=2.0)))
        add_to_both(networks, "g_top", ("top",), LogUtility(), group_id="g")
        add_to_both(networks, "g_bottom", ("bottom", "shared"), LogUtility(), group_id="g")
        add_to_both(networks, "solo", ("shared",), LogUtility())
        add_to_both(networks, "other", ("top",), LogUtility())
        run_both(networks, 120)

    def test_dynamic_arrivals_and_departures(self):
        """A churn trace: the compiled structure recompiles exactly per event."""
        networks = make_pair({"a": 10e9, "b": 4e9})
        add_to_both(networks, 0, ("a",), LogUtility())
        add_to_both(networks, 1, ("a", "b"), LogUtility(weight=2.0))
        scalar = Reference(XwiFluidSimulator, networks[0])
        vectorized = XwiFluidSimulator(networks[1])
        trace = [
            ("run", 25),
            ("add", 2, ("b",), AlphaFairUtility(alpha=2.0)),
            ("run", 25),
            ("add", 3, ("a", "b"), FctUtility(flow_size=5e5)),
            ("run", 25),
            ("remove", 1),
            ("run", 25),
            ("remove", 0),
            ("add", 4, ("a",), LogUtility(weight=0.5)),
            ("run", 40),
        ]
        for event in trace:
            if event[0] == "run":
                for _ in range(event[1]):
                    assert_parity(scalar.step().rates, vectorized.step().rates, scale=1e9)
            elif event[0] == "add":
                _, flow_id, path, utility = event
                networks[0].add_flow(FluidFlow(flow_id, path, copy.deepcopy(utility)))
                networks[1].add_flow(FluidFlow(flow_id, path, copy.deepcopy(utility)))
            else:
                networks[0].remove_flow(event[1])
                networks[1].remove_flow(event[1])

    def test_capacity_change_needs_no_recompile(self):
        """set_capacity must take effect immediately without a recompile."""
        networks = make_pair({"l": 10e9})
        add_to_both(networks, 0, ("l",), LogUtility())
        add_to_both(networks, 1, ("l",), LogUtility())
        scalar, vectorized = run_both(networks, 40)
        compiled_before = vectorized._compiled
        for network in networks:
            network.set_capacity("l", 2e9)
        for _ in range(60):
            assert_parity(scalar.step().rates, vectorized.step().rates, scale=1e9)
        assert vectorized._compiled is compiled_before
        assert sum(vectorized.last_rates.values()) == pytest.approx(2e9, rel=1e-6)

    def test_utility_rebinding_is_applied_in_place(self):
        """Assigning a new utility object between steps must not go stale.

        The compiled snapshot is *updated in place* (the rebound slot's
        parameters are re-batched), not rebuilt -- same answer, no
        O(links x flows) recompile.
        """
        networks = make_pair({"l": 1e9})
        add_to_both(networks, 0, ("l",), LogUtility())
        add_to_both(networks, 1, ("l",), LogUtility())
        scalar, vectorized = run_both(networks, 30)
        compiled_before = vectorized._compiled
        for network in networks:
            network.flow(0).utility = LogUtility(weight=9.0)
        for _ in range(60):
            assert_parity(scalar.step().rates, vectorized.step().rates, scale=1e9)
        assert vectorized._compiled is compiled_before
        assert vectorized.last_rates[0] == pytest.approx(9e8, rel=1e-3)

    def test_empty_network_step(self):
        vectorized = XwiFluidSimulator(FluidNetwork({"l": 1e9}))
        record = vectorized.step()
        assert record.rates == {}
        assert record.prices == {"l": 0.0}


class TestCompiledStructure:
    def test_recompile_only_on_churn(self):
        network = FluidNetwork({"l": 1e9})
        network.add_flow(FluidFlow(0, ("l",), LogUtility()))
        compiled = compile_network(network)
        assert compiled.is_current()
        network.set_capacity("l", 2e9)
        assert compiled.is_current()  # capacities are re-read, not frozen
        assert compiled.capacities_vector().tolist() == [2e9]
        network.add_flow(FluidFlow(1, ("l",), LogUtility()))
        assert not compiled.is_current()

    def test_incidence_matrix_shape_and_paths(self):
        network = FluidNetwork({"a": 1e9, "b": 2e9})
        network.add_flow(FluidFlow("f", ("a", "b"), LogUtility()))
        network.add_flow(FluidFlow("g", ("b",), LogUtility()))
        compiled = compile_network(network)
        assert compiled.incidence.shape == (2, 2)
        assert compiled.path_len.tolist() == [2.0, 1.0]
        assert compiled.path_capacities().tolist() == [1e9, 2e9]
