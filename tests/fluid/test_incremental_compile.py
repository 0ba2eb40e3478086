"""Incremental compilation vs full recompiles.

``CompiledFluidNetwork.refresh`` replays the network's churn journal as
O(path) row edits of ``path_links`` (arrivals append a slot, departures
swap-remove one).  These tests pin the contract every array step relies
on: after any
sequence of arrivals/departures, the incrementally maintained arrays are
*identical* -- up to the documented slot permutation -- to a compile from
scratch, and the journal machinery degrades safely (full recompile)
whenever it cannot replay.
"""

import numpy as np
import pytest
from _maxmin_reference import dense_incidence
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import AlphaFairUtility, FctUtility, LogUtility
from repro.fluid.network import FlowGroup, FluidFlow, FluidNetwork
from repro.fluid.vectorized import compile_network

LINKS = {"a": 1e9, "b": 2e9, "c": 4e9, "d": 8e9}


def _utility(kind: int, parameter: float):
    if kind == 0:
        return LogUtility(weight=parameter)
    if kind == 1:
        return AlphaFairUtility(alpha=parameter)
    return FctUtility(flow_size=1e4 * parameter)


def dense_from_flows(compiled):
    """The link x flow incidence rebuilt from the flow objects, in slot order."""
    link_index = {link: i for i, link in enumerate(compiled.link_ids)}
    dense = np.zeros((len(compiled.link_ids), len(compiled.flows)), dtype=bool)
    for slot, flow in enumerate(compiled.flows):
        dense[[link_index[link] for link in flow.path], slot] = True
    return dense


def assert_incidence_matches_flows(compiled):
    """``path_links`` spells out the matrix the flows' paths do."""
    np.testing.assert_array_equal(dense_incidence(compiled), dense_from_flows(compiled))


def assert_matches_full_compile(incremental, network):
    """The incremental snapshot must equal a fresh compile, per flow id."""
    full = compile_network(network)
    assert_incidence_matches_flows(incremental)
    assert sorted(incremental.flow_ids, key=repr) == sorted(full.flow_ids, key=repr)
    assert incremental.version == full.version
    full_slot = {flow_id: j for j, flow_id in enumerate(full.flow_ids)}
    sentinel = len(incremental.link_ids)
    # Free slots stay all-sentinel, so an append only writes its own path.
    assert np.all(incremental._path_links[len(incremental.flow_ids) :] == sentinel)
    for slot, flow_id in enumerate(incremental.flow_ids):
        reference = full_slot[flow_id]
        assert incremental.path_len[slot] == full.path_len[reference]
        # Both build their rows from flow.path in path order; the hop axis
        # of the incremental one may be wider (a long flow since departed).
        hops = full.path_links.shape[1]
        np.testing.assert_array_equal(
            incremental.path_links[slot, :hops], full.path_links[reference]
        )
        assert np.all(incremental.path_links[slot, hops:] == sentinel)
        assert incremental.flows[slot] is full.flows[reference]
        assert incremental.vec_utils.utilities[slot] is full.vec_utils.utilities[reference]
    # Utility parameters: evaluate both on a per-slot-aligned rate vector.
    if incremental.flow_ids:
        rng = np.random.default_rng(0)
        rates_inc = rng.uniform(1e3, 1e9, size=len(incremental.flow_ids))
        rates_full = np.empty_like(rates_inc)
        for slot, flow_id in enumerate(incremental.flow_ids):
            rates_full[full_slot[flow_id]] = rates_inc[slot]
        marg_inc = incremental.vec_utils.marginal(rates_inc)
        marg_full = full.vec_utils.marginal(rates_full)
        value_inc = incremental.vec_utils.value(rates_inc)
        value_full = full.vec_utils.value(rates_full)
        for slot, flow_id in enumerate(incremental.flow_ids):
            assert marg_inc[slot] == marg_full[full_slot[flow_id]]
            assert value_inc[slot] == value_full[full_slot[flow_id]]
        path_inc = incremental.path_capacities()
        path_full = full.path_capacities()
        for slot, flow_id in enumerate(incremental.flow_ids):
            assert path_inc[slot] == path_full[full_slot[flow_id]]


@st.composite
def churn_programs(draw):
    """A sequence of add/remove operations over a fixed 4-link network."""
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n_ops):
        ops.append(
            (
                draw(st.sampled_from(["add", "add", "remove"])),
                draw(st.integers(min_value=0, max_value=2)),  # utility kind
                draw(st.floats(min_value=0.5, max_value=4.0)),  # utility parameter
                draw(st.integers(min_value=0, max_value=2**16)),  # path seed
            )
        )
    return ops


class TestIncrementalEqualsFullCompile:
    @settings(max_examples=60, deadline=None)
    @given(program=churn_programs())
    def test_randomized_add_remove_sequences(self, program):
        network = FluidNetwork(dict(LINKS))
        compiled = compile_network(network)
        next_id = 0
        link_names = list(LINKS)
        for op, kind, parameter, path_seed in program:
            if op == "remove" and network.flows:
                victims = network.flow_ids
                network.remove_flow(victims[path_seed % len(victims)])
            else:
                length = 1 + path_seed % len(link_names)
                start = path_seed % len(link_names)
                path = tuple(
                    link_names[(start + i) % len(link_names)] for i in range(length)
                )
                network.add_flow(FluidFlow(next_id, path, _utility(kind, parameter)))
                next_id += 1
            assert compiled.refresh() == "updated"
            assert_matches_full_compile(compiled, network)

    def test_every_churn_step_stays_in_sync(self):
        network = FluidNetwork(dict(LINKS))
        compiled = compile_network(network)
        for i in range(8):
            network.add_flow(FluidFlow(i, ("a", "b"), LogUtility(weight=i + 1.0)))
        assert compiled.refresh() == "updated"
        assert_matches_full_compile(compiled, network)
        for i in (1, 3, 5):
            network.remove_flow(i)
        assert compiled.refresh() == "updated"
        assert_matches_full_compile(compiled, network)
        assert compiled.refresh() == "current"


class TestPathLinksMaintenance:
    def test_slot_order_equals_full_compile_without_departures(self):
        # Arrivals only: slot order is the network's dict order, so the whole
        # array (not just each row) equals a from-scratch compile.
        network = FluidNetwork(dict(LINKS))
        compiled = compile_network(network)
        for i, path in enumerate([("a",), ("b", "c"), ("d", "a", "b"), ("c",)] * 5):
            network.add_flow(FluidFlow(i, path, LogUtility()))  # crosses a column regrow
        assert compiled.refresh() == "updated"
        full = compile_network(network)
        assert compiled.flow_ids == full.flow_ids
        np.testing.assert_array_equal(compiled.path_links, full.path_links)
        assert compiled.path_links.dtype == np.intp

    def test_longer_path_widens_hop_axis_in_place(self):
        network = FluidNetwork(dict(LINKS))
        network.add_flow(FluidFlow("short", ("b",), LogUtility()))
        network.add_flow(FluidFlow("pair", ("c", "a"), LogUtility()))
        compiled = compile_network(network)
        before = compiled.path_links.copy()
        assert before.shape == (2, 2)
        network.add_flow(FluidFlow("long", ("d", "c", "b", "a"), LogUtility()))
        assert compiled.refresh() == "updated"
        assert compiled.path_links.shape == (3, 4)
        np.testing.assert_array_equal(compiled.path_links[:2, :2], before)
        assert np.all(compiled.path_links[:2, 2:] == len(LINKS))
        assert compiled.path_links[2].tolist() == [3, 2, 1, 0]  # path order, not sorted
        assert_matches_full_compile(compiled, network)
        # The widened axis survives the long flow's departure.
        network.remove_flow("long")
        assert compiled.refresh() == "updated"
        assert compiled.path_links.shape == (2, 4)
        assert_matches_full_compile(compiled, network)

    def test_swap_remove_moves_the_last_row(self):
        network = FluidNetwork(dict(LINKS))
        for i, path in enumerate([("a", "b"), ("c",), ("d", "a", "c")]):
            network.add_flow(FluidFlow(i, path, LogUtility()))
        compiled = compile_network(network)
        network.remove_flow(0)
        assert compiled.refresh() == "updated"
        assert compiled.flow_ids == [2, 1]
        assert compiled.path_links.tolist() == [[3, 0, 2], [2, 4, 4]]

    def test_pickle_round_trip_resumes_bit_identically(self):
        # The streaming checkpoint pickles a simulator holding its compiled
        # snapshot; the restored copy must continue exactly like the original.
        import pickle

        from repro.fluid.xwi import XwiFluidSimulator

        def populate(network, start, count):
            names = list(LINKS)
            for i in range(start, start + count):
                path = tuple(names[(i + k) % 4] for k in range(1 + i % 3))
                network.add_flow(FluidFlow(i, path, LogUtility(weight=1.0 + i % 2)))

        network = FluidNetwork(dict(LINKS))
        populate(network, 0, 9)
        simulator = XwiFluidSimulator(network)
        simulator.run(5, record_history=False)
        restored = pickle.loads(pickle.dumps(simulator))
        np.testing.assert_array_equal(
            restored._compiled.path_links, simulator._compiled.path_links
        )
        assert_incidence_matches_flows(restored._compiled)
        for sim in (simulator, restored):
            sim.network.remove_flow(4)
            populate(sim.network, 9, 2)
        for _ in range(5):
            assert restored.step().rates == simulator.step().rates
        assert restored.prices == simulator.prices
        assert_incidence_matches_flows(restored._compiled)  # after post-restore churn


class TestRefreshFallbacks:
    def test_journal_overflow_forces_recompile(self):
        from repro.fluid import network as network_module

        network = FluidNetwork(dict(LINKS))
        compiled = compile_network(network)
        for i in range(network_module._JOURNAL_LIMIT + 10):
            network.add_flow(FluidFlow(i, ("a",), LogUtility()))
        assert network.churn_since(compiled.version) is None
        assert compiled.refresh() == "stale"

    def test_group_churn_forces_recompile(self):
        network = FluidNetwork(dict(LINKS))
        compiled = compile_network(network)
        network.add_group(FlowGroup("g", LogUtility()))
        assert compiled.refresh() == "stale"

    def test_grouped_member_arrival_forces_recompile(self):
        network = FluidNetwork(dict(LINKS))
        network.add_group(FlowGroup("g", LogUtility()))
        compiled = compile_network(network)
        network.add_flow(FluidFlow("sub", ("a",), LogUtility(), group_id="g"))
        assert compiled.refresh() == "stale"

    def test_utility_rebind_updates_in_place(self):
        network = FluidNetwork(dict(LINKS))
        network.add_flow(FluidFlow(0, ("a",), LogUtility()))
        compiled = compile_network(network)
        network.flow(0).utility = LogUtility(weight=7.0)
        assert compiled.refresh() == "updated"
        assert compiled.vec_utils.marginal(np.array([1.0]))[0] == pytest.approx(7.0)
        assert_matches_full_compile(compiled, network)


class TestChurnJournal:
    def test_events_in_order(self):
        network = FluidNetwork(dict(LINKS))
        base = network.topology_version
        flow = network.add_flow(FluidFlow(0, ("a",), LogUtility()))
        network.remove_flow(0)
        events = network.churn_since(base)
        assert [(op, payload.flow_id) for _, op, payload in events] == [
            ("add", 0),
            ("remove", 0),
        ]
        assert flow is events[0][2]

    def test_no_churn_is_empty(self):
        network = FluidNetwork(dict(LINKS))
        assert network.churn_since(network.topology_version) == []

    def test_future_version_is_unreplayable(self):
        network = FluidNetwork(dict(LINKS))
        assert network.churn_since(network.topology_version + 1) is None
