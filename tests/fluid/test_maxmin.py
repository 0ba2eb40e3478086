"""Tests for weighted max-min water-filling.

The behaviour tests call the production entry point,
:func:`repro.fluid.maxmin.weighted_max_min`; the batched-round tests hold
:func:`repro.fluid.vectorized.waterfill_arrays` to the scalar and dense
references of ``_maxmin_reference``.
"""

import numpy as np
import pytest
from _maxmin_reference import dense_waterfill, path_links_of, scalar_max_min
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fluid.maxmin import weighted_max_min
from repro.fluid.vectorized import waterfill_arrays


class TestWeightedMaxMinSingleLink:
    def test_equal_weights_split_equally(self):
        rates = weighted_max_min(
            weights={"a": 1.0, "b": 1.0}, paths={"a": ["l"], "b": ["l"]}, capacities={"l": 10.0}
        )
        assert rates["a"] == pytest.approx(5.0)
        assert rates["b"] == pytest.approx(5.0)

    def test_rates_proportional_to_weights(self):
        rates = weighted_max_min(
            weights={"a": 1.0, "b": 3.0}, paths={"a": ["l"], "b": ["l"]}, capacities={"l": 8.0}
        )
        assert rates["a"] == pytest.approx(2.0)
        assert rates["b"] == pytest.approx(6.0)

    def test_single_flow_gets_full_link(self):
        rates = weighted_max_min({"a": 0.1}, {"a": ["l"]}, {"l": 42.0})
        assert rates["a"] == pytest.approx(42.0)


class TestWeightedMaxMinMultiLink:
    def test_parking_lot(self):
        """Classic parking-lot: one long flow over two links, two short one-hop flows."""
        paths = {"long": ["l1", "l2"], "short1": ["l1"], "short2": ["l2"]}
        weights = {flow: 1.0 for flow in paths}
        rates = weighted_max_min(weights, paths, {"l1": 10.0, "l2": 10.0})
        assert rates["long"] == pytest.approx(5.0)
        assert rates["short1"] == pytest.approx(5.0)
        assert rates["short2"] == pytest.approx(5.0)

    def test_bottleneck_shifts_with_capacity(self):
        paths = {"long": ["l1", "l2"], "short1": ["l1"], "short2": ["l2"]}
        weights = {flow: 1.0 for flow in paths}
        rates = weighted_max_min(weights, paths, {"l1": 10.0, "l2": 4.0})
        # l2 is the tighter bottleneck: long and short2 get 2 each; short1 takes the rest of l1.
        assert rates["long"] == pytest.approx(2.0)
        assert rates["short2"] == pytest.approx(2.0)
        assert rates["short1"] == pytest.approx(8.0)

    def test_unbottlenecked_flow_gets_leftover(self):
        paths = {"a": ["l1"], "b": ["l1", "l2"]}
        weights = {"a": 1.0, "b": 1.0}
        rates = weighted_max_min(weights, paths, {"l1": 10.0, "l2": 2.0})
        assert rates["b"] == pytest.approx(2.0)
        assert rates["a"] == pytest.approx(8.0)

    def test_no_link_oversubscribed(self):
        paths = {
            "f1": ["a", "b"],
            "f2": ["b", "c"],
            "f3": ["a", "c"],
            "f4": ["a"],
            "f5": ["c"],
        }
        weights = {"f1": 1.0, "f2": 2.0, "f3": 0.5, "f4": 4.0, "f5": 1.0}
        capacities = {"a": 7.0, "b": 3.0, "c": 5.0}
        rates = weighted_max_min(weights, paths, capacities)
        load = {link: 0.0 for link in capacities}
        for flow, rate in rates.items():
            for link in paths[flow]:
                load[link] += rate
        for link in capacities:
            assert load[link] <= capacities[link] * (1 + 1e-9)

    def test_work_conserving(self):
        """Every flow is bottlenecked somewhere: each path has a saturated link."""
        paths = {"f1": ["a", "b"], "f2": ["b"], "f3": ["a"]}
        weights = {"f1": 1.0, "f2": 1.0, "f3": 1.0}
        capacities = {"a": 6.0, "b": 4.0}
        rates = weighted_max_min(weights, paths, capacities)
        load = {link: 0.0 for link in capacities}
        for flow, rate in rates.items():
            for link in paths[flow]:
                load[link] += rate
        saturated = {
            link: load[link] >= capacities[link] * (1.0 - 1e-9) - 1e-9 for link in capacities
        }
        for flow, path in paths.items():
            assert any(saturated[link] for link in path), f"{flow} has no bottleneck"


class TestValidation:
    def test_empty_input(self):
        assert weighted_max_min({}, {}, {"l": 1.0}) == {}

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_max_min({"a": 0.0}, {"a": ["l"]}, {"l": 1.0})

    def test_unknown_link_rejected(self):
        with pytest.raises(KeyError):
            weighted_max_min({"a": 1.0}, {"a": ["nope"]}, {"l": 1.0})

    def test_mismatched_flow_sets_rejected(self):
        with pytest.raises(ValueError):
            weighted_max_min({"a": 1.0}, {"b": ["l"]}, {"l": 1.0})

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty path"):
            weighted_max_min({"a": 1.0}, {"a": []}, {"l": 1.0})


class TestMaxMin:
    def test_plain_max_min_is_equal_weights(self):
        """With equal weights the allocation is plain max-min fair: every
        flow crosses a saturated link on which no flow gets more than it
        (Bertsekas & Gallager's bottleneck characterisation)."""
        paths = {
            "f1": ["a", "b"],
            "f2": ["b", "c"],
            "f3": ["a", "c"],
            "f4": ["a"],
            "f5": ["c"],
            "f6": ["a", "b", "c"],
        }
        capacities = {"a": 7.0, "b": 3.0, "c": 5.0}
        rates = weighted_max_min({flow: 1.0 for flow in paths}, paths, capacities)
        assert rates == pytest.approx(
            weighted_max_min({flow: 2.5 for flow in paths}, paths, capacities)
        )
        load = {link: sum(rates[f] for f in paths if link in paths[f]) for link in capacities}
        for flow, path in paths.items():
            assert any(
                load[link] >= capacities[link] * (1.0 - 1e-9)
                and all(rates[flow] >= rates[other] * (1.0 - 1e-9)
                        for other in paths if link in paths[other])
                for link in path
            ), f"{flow} has no bottleneck link"


def _tie_heavy_fabric():
    """16 identical edge links, one flow each: every flow at one level."""
    capacities = {f"edge{i}": 10.0 for i in range(16)}
    paths = {i: [f"edge{i}"] for i in range(16)}
    weights = {i: 1.0 for i in range(16)}
    return weights, paths, capacities


def _two_tier_fabric():
    """Two tiers of edge capacities feeding one shared core."""
    capacities = {f"small{i}": 1.0 for i in range(8)}
    capacities.update({f"big{i}": 4.0 for i in range(8)})
    capacities["core"] = 100.0
    paths = {}
    weights = {}
    for i in range(8):
        paths[f"s{i}"] = [f"small{i}", "core"]
        paths[f"b{i}"] = [f"big{i}", "core"]
        weights[f"s{i}"] = weights[f"b{i}"] = 1.0
    return weights, paths, capacities


def _host_link_fabric(seed=9, n_hosts=96, n_flows=120):
    """Host links at three speeds around a fat core (the Fig. 5 shape)."""
    import random as random_module

    rng = random_module.Random(seed)
    capacities = {("edge", h): rng.choice([1.0, 2.0, 4.0]) for h in range(n_hosts)}
    capacities.update({("core", c): 40.0 for c in range(4)})
    paths = {}
    weights = {}
    for f in range(n_flows):
        src, dst = rng.sample(range(n_hosts), 2)
        paths[f] = [("edge", src), ("core", rng.randrange(4)), ("edge", dst)]
        weights[f] = rng.uniform(0.5, 4.0)
    return weights, paths, capacities


def _waterfill_to_exhaustion(path_links, weights, capacities):
    """The batched-wave rounds in their plainest form, run until the working
    set is empty: after the round that freezes the last flows it still
    charges ``remaining`` and compacts.  Returns ``(rates, rounds, levels)``."""
    n_flows, hops = path_links.shape
    n_links = capacities.size
    bins = n_links + 1
    rates = np.zeros(n_flows)
    remaining = np.append(capacities, np.inf)
    live_links = np.ascontiguousarray(path_links.T)
    live_weights = np.asarray(weights, dtype=float)
    slots = np.arange(n_flows)
    rounds, levels = 0, set()
    while live_weights.size:
        flat = live_links.ravel()
        link_weight = np.bincount(flat, weights=np.tile(live_weights, hops), minlength=bins)
        link_weight[n_links] = 0.0
        carrying = link_weight > 0.0
        fair_share = np.full(bins, np.inf)
        np.divide(remaining, link_weight, out=fair_share, where=carrying)
        hop_share = fair_share[live_links]
        flow_share = hop_share.min(axis=0)
        elsewhere = np.bincount(flat, weights=(hop_share > flow_share).ravel(), minlength=bins)
        freezing = carrying & (elsewhere == 0.0)
        frozen = freezing[live_links].any(axis=0)
        if not frozen.any():
            break
        frozen_rates = live_weights[frozen] * flow_share[frozen]
        rates[slots[frozen]] = frozen_rates
        remaining -= np.bincount(
            live_links[:, frozen].ravel(), weights=np.tile(frozen_rates, hops), minlength=bins
        )
        np.maximum(remaining, 0.0, out=remaining)
        levels.update(fair_share[freezing].tolist())
        rounds += 1
        live_links = np.ascontiguousarray(live_links[:, ~frozen])
        live_weights, slots = live_weights[~frozen], slots[~frozen]
    return rates, rounds, len(levels)


def _arrays(weights, paths, capacities):
    """The instance as ``waterfill_arrays`` takes it:
    ``(flow ids, dense incidence, path_links, weights, capacities)``."""
    flow_ids = list(paths)
    link_index = {link: i for i, link in enumerate(capacities)}
    incidence = np.zeros((len(capacities), len(flow_ids)), dtype=bool)
    for j, flow_id in enumerate(flow_ids):
        for link in paths[flow_id]:
            incidence[link_index[link], j] = True
    weight_vec = np.array([weights[f] for f in flow_ids], dtype=float)
    capacity_vec = np.array([capacities[link] for link in link_index], dtype=float)
    return flow_ids, incidence, path_links_of(incidence), weight_vec, capacity_vec


def _assert_early_return_matches_exhaustion(weights, paths, capacities):
    """The production loop (which returns at the round that freezes every
    live flow) gives the exhaustive loop's rates, rounds and levels, bit
    for bit."""
    _, _, path_links, weight_vec, capacity_vec = _arrays(weights, paths, capacities)
    stats = {}
    rates = waterfill_arrays(path_links, weight_vec, capacity_vec, stats)
    expected, rounds, levels = _waterfill_to_exhaustion(path_links, weight_vec, capacity_vec)
    assert rates.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert (stats["rounds"], stats["levels"]) == (rounds, levels)
    return stats


def _assert_batched_matches_scalar(weights, paths, capacities):
    """Batched waterfill == scalar progressive filling at 1e-9 relative."""
    scalar = scalar_max_min(weights, paths, capacities)
    flow_ids, _, path_links, weight_vec, capacity_vec = _arrays(weights, paths, capacities)
    stats = {}
    rates = dict(zip(flow_ids, waterfill_arrays(path_links, weight_vec, capacity_vec, stats)))
    for flow_id, reference in scalar.items():
        assert rates[flow_id] == pytest.approx(reference, rel=1e-9, abs=1e-9)
    return stats


class TestBatchedWaterfill:
    """Batched multi-bottleneck freezing vs the scalar progressive reference."""

    def test_tie_heavy_symmetric_fabric_freezes_in_few_rounds(self):
        # All bottlenecked at the same level: one freezing round despite 16
        # bottleneck links.
        stats = _assert_batched_matches_scalar(*_tie_heavy_fabric())
        assert stats["rounds"] == 1
        assert stats["levels"] == 1

    def test_round_count_tracks_levels_not_links(self):
        # The batched round count is bounded by the distinct bottleneck
        # levels, far below the link count that the unbatched schedule pays.
        weights, paths, capacities = _two_tier_fabric()
        stats = _assert_batched_matches_scalar(weights, paths, capacities)
        assert stats["rounds"] <= stats["levels"] < len(capacities)

    def test_unbatched_reference_path_matches_scalar(self):
        capacities = {"a": 3.0, "b": 5.0, "core": 6.0}
        paths = {1: ["a", "core"], 2: ["b", "core"], 3: ["core"]}
        weights = {1: 1.0, 2: 2.0, 3: 1.0}
        scalar = scalar_max_min(weights, paths, capacities)
        production = weighted_max_min(weights, paths, capacities)
        flow_ids, incidence, _, weight_vec, capacity_vec = _arrays(weights, paths, capacities)
        stats = {}
        single = dense_waterfill(incidence, weight_vec, capacity_vec, stats)
        for j, flow_id in enumerate(flow_ids):
            assert single[j] == pytest.approx(scalar[flow_id], rel=1e-9)
            assert production[flow_id] == pytest.approx(single[j], rel=1e-9)
        assert stats["rounds"] >= stats["levels"]

    def test_wave_regime_matches_scalar_on_host_link_fabric(self):
        # The local-minimum wave detector freezes independent regions at
        # different levels in one round; pin it to the scalar reference on
        # a host-link-rich fabric and check the rounds collapse below the
        # level count.
        weights, paths, capacities = _host_link_fabric()
        stats = _assert_batched_matches_scalar(weights, paths, capacities)
        assert stats["rounds"] <= stats["levels"]
        assert stats["rounds"] < len(capacities)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_tie_heavy_random_topologies(self, data):
        # Small integer capacities and weights force abundant exact ties;
        # the batched allocation must still match scalar progressive
        # filling at 1e-9.
        n_links = data.draw(st.integers(min_value=1, max_value=5), label="links")
        links = [f"l{i}" for i in range(n_links)]
        capacities = {
            link: float(data.draw(st.sampled_from([1, 2, 4]), label="cap"))
            for link in links
        }
        n_flows = data.draw(st.integers(min_value=1, max_value=10), label="flows")
        paths = {}
        weights = {}
        for f in range(n_flows):
            length = data.draw(
                st.integers(min_value=1, max_value=n_links), label="len"
            )
            start = data.draw(
                st.integers(min_value=0, max_value=n_links - 1), label="start"
            )
            paths[f] = [links[(start + i) % n_links] for i in range(length)]
            weights[f] = float(data.draw(st.sampled_from([1, 1, 2]), label="w"))
        stats = _assert_batched_matches_scalar(weights, paths, capacities)
        assert stats["rounds"] <= n_links
        assert _assert_early_return_matches_exhaustion(weights, paths, capacities) == stats

    @pytest.mark.parametrize(
        "fabric",
        [
            _tie_heavy_fabric,
            _two_tier_fabric,
            _host_link_fabric,
            lambda: _host_link_fabric(seed=3, n_hosts=24, n_flows=200),
        ],
    )
    def test_the_last_round_returns_what_running_to_exhaustion_does(self, fabric):
        stats = _assert_early_return_matches_exhaustion(*fabric())
        assert stats["rounds"] >= 1
