"""Property-based tests (hypothesis) for the core data structures and invariants."""

import math
import os
import sys

from hypothesis import given, settings, strategies as st

from repro.core.bandwidth_function import PiecewiseLinearBandwidthFunction, single_link_allocation
from repro.core.utility import (
    AlphaFairUtility,
    FctUtility,
    LogUtility,
    WeightedAlphaFairUtility,
)
from repro.fluid.maxmin import weighted_max_min
from repro.fluid.network import FluidFlow, FluidNetwork
from repro.fluid.xwi import XwiFluidSimulator

# The scalar fluid and max-min references live beside the fluid suites.
_FLUID_TESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fluid")
if _FLUID_TESTS not in sys.path:
    sys.path.append(_FLUID_TESTS)
from _fluid_reference import Reference  # noqa: E402
from _maxmin_reference import scalar_max_min  # noqa: E402

rates = st.floats(min_value=1e3, max_value=1e11, allow_nan=False, allow_infinity=False)
alphas = st.floats(min_value=0.1, max_value=4.0)
# Round-trip tests need the marginal utility to stay above the numerical
# floor (~1e-30); alpha = 2.5 at 100 Gbit/s gives ~1e-28, comfortably inside.
roundtrip_alphas = st.floats(min_value=0.1, max_value=2.5)
weights = st.floats(min_value=0.01, max_value=100.0)


class TestUtilityProperties:
    @given(alpha=roundtrip_alphas, rate=rates)
    @settings(max_examples=200)
    def test_alpha_fair_inverse_marginal_roundtrip(self, alpha, rate):
        utility = AlphaFairUtility(alpha=alpha)
        recovered = utility.inverse_marginal(utility.marginal(rate))
        assert math.isclose(recovered, rate, rel_tol=1e-6)

    @given(
        weight=st.floats(min_value=0.1, max_value=10.0),
        alpha=st.floats(min_value=0.1, max_value=2.0),
        rate=rates,
    )
    @settings(max_examples=200)
    def test_weighted_alpha_fair_roundtrip(self, weight, alpha, rate):
        utility = WeightedAlphaFairUtility(weight=weight, alpha=alpha)
        recovered = utility.inverse_marginal(utility.marginal(rate))
        assert math.isclose(recovered, rate, rel_tol=1e-6)

    @given(size=st.floats(min_value=100, max_value=1e9), r1=rates, r2=rates)
    @settings(max_examples=200)
    def test_fct_utility_concave(self, size, r1, r2):
        """Marginal utility is non-increasing in the rate."""
        utility = FctUtility(flow_size=size)
        low, high = min(r1, r2), max(r1, r2)
        assert utility.marginal(low) >= utility.marginal(high) - 1e-18

    @given(alpha=alphas, r1=rates, r2=rates)
    @settings(max_examples=200)
    def test_alpha_fair_value_increasing(self, alpha, r1, r2):
        utility = AlphaFairUtility(alpha=alpha)
        low, high = min(r1, r2), max(r1, r2)
        if high > low * (1 + 1e-9):
            assert utility.value(high) >= utility.value(low)


@st.composite
def maxmin_instances(draw):
    """Random weighted max-min instances: a handful of links and flows."""
    n_links = draw(st.integers(min_value=1, max_value=5))
    n_flows = draw(st.integers(min_value=1, max_value=8))
    capacities = {
        f"l{i}": draw(st.floats(min_value=1e6, max_value=1e10)) for i in range(n_links)
    }
    flow_weights = {}
    paths = {}
    for f in range(n_flows):
        flow_weights[f] = draw(st.floats(min_value=0.01, max_value=10.0))
        path_len = draw(st.integers(min_value=1, max_value=n_links))
        links = draw(
            st.lists(
                st.sampled_from(sorted(capacities)), min_size=path_len, max_size=path_len,
                unique=True,
            )
        )
        paths[f] = links
    return flow_weights, paths, capacities


class TestWeightedMaxMinProperties:
    @given(instance=maxmin_instances())
    @settings(max_examples=200)
    def test_feasibility(self, instance):
        """No link is ever oversubscribed."""
        flow_weights, paths, capacities = instance
        rates = weighted_max_min(flow_weights, paths, capacities)
        load = {link: 0.0 for link in capacities}
        for flow, rate in rates.items():
            assert rate >= 0.0
            for link in paths[flow]:
                load[link] += rate
        for link, capacity in capacities.items():
            assert load[link] <= capacity * (1 + 1e-9)

    @given(instance=maxmin_instances())
    @settings(max_examples=200)
    def test_work_conservation(self, instance):
        """Every flow has at least one saturated link on its path (no waste)."""
        flow_weights, paths, capacities = instance
        rates = weighted_max_min(flow_weights, paths, capacities)
        load = {link: 0.0 for link in capacities}
        for flow, rate in rates.items():
            for link in paths[flow]:
                load[link] += rate
        for flow in rates:
            saturated = any(
                load[link] >= capacities[link] * (1 - 1e-6) for link in paths[flow]
            )
            assert saturated

    @given(instance=maxmin_instances(), scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=100)
    def test_scale_invariance(self, instance, scale):
        """Scaling all capacities scales all rates by the same factor."""
        flow_weights, paths, capacities = instance
        base = weighted_max_min(flow_weights, paths, capacities)
        scaled = weighted_max_min(
            flow_weights, paths, {l: c * scale for l, c in capacities.items()}
        )
        for flow in base:
            assert math.isclose(scaled[flow], base[flow] * scale, rel_tol=1e-6)

    @given(instance=maxmin_instances())
    @settings(max_examples=200)
    def test_vectorized_backend_matches_scalar(self, instance):
        """The NumPy water-filling gives the scalar allocation on any topology."""
        flow_weights, paths, capacities = instance
        scalar = scalar_max_min(flow_weights, paths, capacities)
        vectorized = weighted_max_min(flow_weights, paths, capacities)
        assert set(scalar) == set(vectorized)
        for flow, rate in scalar.items():
            assert math.isclose(vectorized[flow], rate, rel_tol=1e-9, abs_tol=1e-9)


@st.composite
def xwi_networks(draw):
    """Random fluid networks with a mix of utility families."""
    n_links = draw(st.integers(min_value=1, max_value=4))
    capacities = {
        f"l{i}": draw(st.floats(min_value=1e8, max_value=4e10)) for i in range(n_links)
    }
    network = FluidNetwork(capacities)
    n_flows = draw(st.integers(min_value=1, max_value=6))
    for f in range(n_flows):
        path_len = draw(st.integers(min_value=1, max_value=n_links))
        path = tuple(
            draw(
                st.lists(
                    st.sampled_from(sorted(capacities)), min_size=path_len,
                    max_size=path_len, unique=True,
                )
            )
        )
        utility = draw(
            st.one_of(
                st.builds(LogUtility, weight=st.floats(min_value=0.1, max_value=10.0)),
                st.builds(AlphaFairUtility, alpha=st.floats(min_value=0.3, max_value=2.5)),
                st.builds(
                    WeightedAlphaFairUtility,
                    weight=st.floats(min_value=0.1, max_value=10.0),
                    alpha=st.floats(min_value=0.3, max_value=2.5),
                ),
                st.builds(FctUtility, flow_size=st.floats(min_value=1e3, max_value=1e8)),
            )
        )
        network.add_flow(FluidFlow(f, path, utility))
    return network


class TestXwiBackendParityProperties:
    @given(network=xwi_networks(), iterations=st.integers(min_value=1, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_vectorized_xwi_matches_scalar(self, network, iterations):
        """xWI and its scalar reference agree to 1e-9 on random topologies."""
        import copy

        mirror = FluidNetwork(dict(network.capacities))
        for flow in network.flows:
            mirror.add_flow(FluidFlow(flow.flow_id, flow.path, copy.deepcopy(flow.utility)))
        scalar = Reference(XwiFluidSimulator, network)
        vectorized = XwiFluidSimulator(mirror)
        for _ in range(iterations):
            scalar_record = scalar.step()
            vectorized_record = vectorized.step()
        for flow_id, rate in scalar_record.rates.items():
            assert math.isclose(
                vectorized_record.rates[flow_id], rate, rel_tol=1e-9, abs_tol=1e-3
            ), flow_id
        for link, price in scalar_record.prices.items():
            assert math.isclose(
                vectorized_record.prices[link], price, rel_tol=1e-9, abs_tol=1e-18
            ), link


@st.composite
def bandwidth_functions(draw):
    """Random non-decreasing piecewise-linear bandwidth functions."""
    n_segments = draw(st.integers(min_value=1, max_value=4))
    fair_shares = [0.0]
    bandwidths = [0.0]
    for _ in range(n_segments):
        fair_shares.append(fair_shares[-1] + draw(st.floats(min_value=0.1, max_value=5.0)))
        bandwidths.append(bandwidths[-1] + draw(st.floats(min_value=0.0, max_value=10e9)))
    return PiecewiseLinearBandwidthFunction(list(zip(fair_shares, bandwidths)))


class TestBandwidthFunctionProperties:
    @given(bwf=bandwidth_functions(), f1=st.floats(min_value=0, max_value=20),
           f2=st.floats(min_value=0, max_value=20))
    @settings(max_examples=200)
    def test_non_decreasing(self, bwf, f1, f2):
        low, high = min(f1, f2), max(f1, f2)
        assert bwf(high) >= bwf(low) - 1e-6

    @given(bwfs=st.lists(bandwidth_functions(), min_size=1, max_size=4),
           capacity=st.floats(min_value=1e6, max_value=50e9))
    @settings(max_examples=200)
    def test_water_filling_never_oversubscribes(self, bwfs, capacity):
        _, allocation = single_link_allocation(bwfs, capacity)
        assert sum(allocation) <= capacity * (1 + 1e-6) or all(
            a == bwf.max_bandwidth for a, bwf in zip(allocation, bwfs)
        )

    @given(bwfs=st.lists(bandwidth_functions(), min_size=2, max_size=4),
           c1=st.floats(min_value=1e6, max_value=50e9),
           c2=st.floats(min_value=1e6, max_value=50e9))
    @settings(max_examples=100)
    def test_allocations_monotone_in_capacity(self, bwfs, c1, c2):
        low, high = min(c1, c2), max(c1, c2)
        _, alloc_low = single_link_allocation(bwfs, low)
        _, alloc_high = single_link_allocation(bwfs, high)
        for a_low, a_high in zip(alloc_low, alloc_high):
            assert a_high >= a_low - 1e-3
