"""Parity suite for the path-indexed (``path_links``) fluid primitives.

``CompiledFluidNetwork`` runs water-filling and every link <-> flow
reduction on a sentinel-padded flows x max-hops link-index array instead of
the dense link x flow incidence.  These tests pin each primitive to the
scalar / dict implementation at 1e-9 (water-filling: the scalar and dense
references of ``_maxmin_reference``) on the shapes where the padding and
the sentinel entry matter: empty flow sets, a single flow, ragged path
lengths, zero-capacity links, exact ties and links that carry no flow.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _maxmin_reference import dense_incidence, dense_waterfill, path_links_of, scalar_max_min
from _strategies import build_network, instances
from repro.fluid.maxmin import weighted_max_min
from repro.fluid.network import FluidNetwork
from repro.fluid.vectorized import compile_network, waterfill_arrays

TOLERANCE = 1e-9


def weight_vector(compiled, weights):
    return np.array([weights[flow_id] for flow_id in compiled.flow_ids], dtype=float)


def compiled_waterfill(compiled, weights, stats=None):
    return waterfill_arrays(
        compiled.path_links, weight_vector(compiled, weights), compiled.capacities_vector(), stats
    )


def assert_rates_match(flow_ids, rate_vec, scalar):
    assert len(flow_ids) == len(scalar)
    for flow_id, rate in zip(flow_ids, rate_vec.tolist()):
        assert rate == pytest.approx(scalar[flow_id], rel=TOLERANCE, abs=TOLERANCE), flow_id


class TestWaterfillParity:
    @settings(max_examples=200, deadline=None)
    @given(instance=instances())
    def test_matches_scalar_and_unbatched_reference(self, instance):
        capacities, paths, weights = instance
        scalar = scalar_max_min(weights, paths, capacities)
        compiled = compile_network(build_network(capacities, paths))
        stats, reference_stats = {}, {}
        rates = compiled_waterfill(compiled, weights, stats=stats)
        assert_rates_match(compiled.flow_ids, rates, scalar)
        reference = dense_waterfill(
            dense_incidence(compiled),
            weight_vector(compiled, weights),
            compiled.capacities_vector(),
            reference_stats,
        )
        assert_rates_match(compiled.flow_ids, reference, scalar)
        # A round freezes at least one link for good, on either schedule, and
        # the smallest share a batched round freezes at is above every
        # earlier round's: rounds <= distinct levels <= links.  (Batched <=
        # unbatched rounds is not a bound: the unbatched schedule freezes
        # every flow of its bottleneck link at that link's share, the
        # batched one each flow at its own minimum, so two links tied to one
        # ulp cost the batched schedule a round the other never runs.)
        assert reference_stats["rounds"] <= len(capacities)
        assert stats["rounds"] <= stats["levels"] <= len(capacities)

    @settings(max_examples=100, deadline=None)
    @given(instance=instances())
    def test_derived_path_links_match_maintained_ones(self, instance):
        # path_links derived from the dense incidence list a row's links in
        # ascending index order, not path order (as weighted_max_min builds
        # them); the allocation must not depend on the hop order.
        capacities, paths, weights = instance
        scalar = scalar_max_min(weights, paths, capacities)
        assert weighted_max_min(weights, paths, capacities) == pytest.approx(
            scalar, rel=TOLERANCE, abs=TOLERANCE
        )
        compiled = compile_network(build_network(capacities, paths))
        bare = waterfill_arrays(
            path_links_of(dense_incidence(compiled)),
            weight_vector(compiled, weights),
            compiled.capacities_vector(),
        )
        assert_rates_match(compiled.flow_ids, bare, scalar)

    def test_empty_flow_set(self):
        compiled = compile_network(FluidNetwork({"a": 1.0, "b": 2.0}))
        assert compiled.path_links.shape == (0, 1)
        stats = {}
        assert compiled_waterfill(compiled, {}, stats=stats).size == 0
        assert stats == {"rounds": 0, "levels": 0}

    def test_single_flow_gets_its_narrowest_link(self):
        capacities = {"a": 4.0, "b": 1.0, "c": 2.0, "idle": 8.0}
        compiled = compile_network(build_network(capacities, {"f": ("a", "b", "c")}))
        assert compiled_waterfill(compiled, {"f": 3.0}).tolist() == [1.0]

    def test_ragged_paths_share_one_array(self):
        # 1-, 2- and 4-hop flows together: rows 0 and 1 end in sentinels.
        capacities = {"a": 6.0, "b": 4.0, "c": 9.0, "d": 2.0}
        paths = {"one": ("a",), "two": ("a", "b"), "four": ("a", "b", "c", "d")}
        weights = {"one": 1.0, "two": 2.0, "four": 1.0}
        compiled = compile_network(build_network(capacities, paths))
        sentinel = len(compiled.link_ids)
        assert compiled.path_links.tolist() == [
            [0, sentinel, sentinel, sentinel],
            [0, 1, sentinel, sentinel],
            [0, 1, 2, 3],
        ]
        scalar = scalar_max_min(weights, paths, capacities)
        assert_rates_match(compiled.flow_ids, compiled_waterfill(compiled, weights), scalar)


class TestLinkFlowReductions:
    @settings(max_examples=200, deadline=None)
    @given(instance=instances(), seed=st.integers(min_value=0, max_value=2**16))
    def test_reductions_match_dict_implementations(self, instance, seed):
        capacities, paths, _ = instance
        network = build_network(capacities, paths)
        compiled = compile_network(network)
        rng = np.random.default_rng(seed)
        per_flow = rng.uniform(-5.0, 5.0, size=len(compiled.flow_ids))
        per_link = rng.uniform(0.0, 3.0, size=len(compiled.link_ids))
        by_flow = dict(zip(compiled.flow_ids, per_flow.tolist()))
        by_link = dict(zip(compiled.link_ids, per_link.tolist()))

        expected_load = network.link_load(by_flow)
        expected_min = {link: math.inf for link in capacities}
        for flow_id, path in paths.items():
            for link in path:
                expected_min[link] = min(expected_min[link], by_flow[flow_id])
        link_load = compiled.link_load(per_flow)
        link_min = compiled.link_min(per_flow)
        assert link_load.shape == link_min.shape == (len(compiled.link_ids),)
        for i, link in enumerate(compiled.link_ids):
            assert link_load[i] == pytest.approx(expected_load[link], rel=TOLERANCE, abs=TOLERANCE)
            assert link_min[i] == expected_min[link]  # a selection: exact, inf when idle

        path_prices = compiled.path_prices(per_link)
        path_caps = compiled.path_capacities()
        assert path_prices.shape == path_caps.shape == (len(compiled.flow_ids),)
        for j, flow_id in enumerate(compiled.flow_ids):
            expected_price = sum(by_link[link] for link in paths[flow_id])
            assert path_prices[j] == pytest.approx(expected_price, rel=TOLERANCE, abs=TOLERANCE)
            assert path_caps[j] == network.path_capacity(flow_id)

    def test_flowless_links_report_inf_min_and_zero_load(self):
        network = build_network({"used": 1.0, "idle": 1.0}, {"f": ("used",)})
        compiled = compile_network(network)
        assert compiled.link_min(np.array([0.25])).tolist() == [0.25, math.inf]
        assert compiled.link_load(np.array([0.25])).tolist() == [0.25, 0.0]

    def test_empty_flow_set_reductions(self):
        compiled = compile_network(FluidNetwork({"a": 1.0, "b": 2.0}))
        empty = np.zeros(0)
        assert compiled.link_min(empty).tolist() == [math.inf, math.inf]
        assert compiled.link_load(empty).tolist() == [0.0, 0.0]
        assert compiled.path_prices(np.array([1.0, 2.0])).shape == (0,)
        assert compiled.path_capacities().shape == (0,)

    def test_link_vector_reads_missing_links_as_zero(self):
        compiled = compile_network(FluidNetwork({"a": 1.0, "b": 2.0, "c": 3.0}))
        assert compiled.link_vector({"a": 1.5, "b": 2.5, "c": 3.5}).tolist() == [1.5, 2.5, 3.5]
        assert compiled.link_vector({"b": 2.5}).tolist() == [0.0, 2.5, 0.0]
        single = compile_network(FluidNetwork({"only": 1.0}))
        assert single.link_vector({"only": 4.0}).tolist() == [4.0]
        assert single.link_vector({}).tolist() == [0.0]


class TestPathLinksFromIncidence:
    @settings(max_examples=100, deadline=None)
    @given(instance=instances())
    def test_derived_path_links_round_trip(self, instance):
        capacities, paths, _ = instance
        compiled = compile_network(build_network(capacities, paths))
        derived = path_links_of(dense_incidence(compiled))
        np.testing.assert_array_equal(derived, np.sort(compiled.path_links, axis=1))
