"""Arrays are the state; dicts are views (``ArrayState`` / ``IterationRecord``).

The fluid simulators store their per-link / per-flow state and their
records as vectors and build the public dicts only when somebody reads them.
These tests pin the rule on small hypothesis-drawn fabrics, for all four
simulators:

* steps nobody observed end in exactly the state that observing every step
  (the pre-array behaviour: a dict after every step) ends in, and in the
  scalar reference's state (``_fluid_reference.py``) at the usual 1e-9;
* a dict that was handed out -- mutated in place or replaced -- is what the
  next step runs on, in the simulator as in the reference, and stays the
  one object the attribute returns across steps and churn;
* records are immutable snapshots whose dict views equal their vectors;
* a pickled simulator resumes bit-identically, whether or not a dict was
  handed out when it was pickled;
* ``convergence_iterations`` gives the same verdict on records as on the
  rate dicts it used to be handed.
"""

import inspect
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fluid_reference import make_simulator
from _strategies import build_network, instances
from repro.core.utility import LogUtility
from repro.fluid.convergence import ConvergenceCriterion, convergence_iterations
from repro.fluid.dctcp import DctcpFluidSimulator
from repro.fluid.dgd import DgdFluidSimulator
from repro.fluid.network import FluidFlow
from repro.fluid.rcp import RcpStarFluidSimulator
from repro.fluid.vectorized import IterationRecord
from repro.fluid.xwi import XwiFluidSimulator

TOLERANCE = 1e-9
SCALE = 1e9

#: scheme -> (simulator class, its state attributes, its records' dict fields)
SCHEMES = {
    "xwi": (XwiFluidSimulator, ("prices",), ("rates", "prices", "weights")),
    "dgd": (DgdFluidSimulator, ("prices", "queues"), ("rates", "prices", "queues")),
    "rcp_star": (
        RcpStarFluidSimulator, ("fair_rates", "queues"), ("rates", "fair_rates", "queues")
    ),
    "dctcp": (
        DctcpFluidSimulator, ("windows", "ecn_fraction", "queues"), ("rates", "queues")
    ),
}

#: record dict field -> (the vector behind it, the ids that key it)
RECORD_FIELDS = {
    "rates": ("rate_vec", "flow_ids"),
    "weights": ("weight_vec", "flow_ids"),
    "prices": ("price_vec", "link_ids"),
    "queues": ("queue_vec", "link_ids"),
    "fair_rates": ("fair_rate_vec", "link_ids"),
}

#: Link speeds instead of the strategy's default unit capacities, so the
#: schemes run in their usual regime; 0 is still a failed link.
fabrics = instances(capacity_values=(0, 1e9, 2e9, 4e9, 10e9))
schemes = st.sampled_from(sorted(SCHEMES))


def make(scheme, instance, backend="vectorized"):
    capacities, paths, _ = instance
    return make_simulator(SCHEMES[scheme][0], build_network(capacities, paths), backend)


def state_of(scheme, simulator):
    """Copies of the public state dicts (reading them hands them out)."""
    return {name: dict(getattr(simulator, name)) for name in SCHEMES[scheme][1]}


def churn(simulator, round_):
    """Remove the oldest flow (a swap-remove in the compiled view), add one."""
    network = simulator.network
    flows = network.flows
    if flows:
        network.remove_flow(flows[0].flow_id)
    link = network.links[round_ % len(network.links)]
    network.add_flow(FluidFlow(f"new{round_}", (link,), LogUtility(weight=1.0 + round_)))


def assert_close(actual, expected, what):
    assert set(actual) == set(expected), what
    for key, value in expected.items():
        assert actual[key] == pytest.approx(value, rel=TOLERANCE, abs=TOLERANCE * SCALE), (
            what,
            key,
        )


class TestUnobservedSteps:
    @settings(max_examples=40, deadline=None)
    @given(scheme=schemes, instance=fabrics, steps=st.integers(min_value=1, max_value=12))
    def test_equal_observed_steps_and_the_scalar_reference(self, scheme, instance, steps):
        scalar = make(scheme, instance, backend="scalar")
        observed = make(scheme, instance)
        unobserved = make(scheme, instance)
        observed_records, unobserved_records = [], []
        for round_ in range(2):
            for _ in range(steps):
                scalar.step()
                observed_records.append(observed.step())
                state_of(scheme, observed)  # a dict after every step, as before
                unobserved_records.append(unobserved.step())
            final = state_of(scheme, unobserved)  # the one read
            assert final == state_of(scheme, observed)  # bit for bit
            for name, values in state_of(scheme, scalar).items():
                assert_close(final[name], values, name)
            for simulator in (scalar, observed, unobserved):
                churn(simulator, round_)
        for field in SCHEMES[scheme][2]:
            assert [getattr(r, field) for r in unobserved_records] == [
                getattr(r, field) for r in observed_records
            ]


class TestHandedOutDicts:
    @settings(max_examples=40, deadline=None)
    @given(scheme=schemes, instance=fabrics, factor=st.sampled_from([0.0, 0.5, 3.0]))
    def test_writes_between_steps_reach_the_next_step_as_in_the_reference(
        self, scheme, instance, factor
    ):
        scalar = make(scheme, instance, backend="scalar")
        vectorized = make(scheme, instance)
        for simulator in (scalar, vectorized):
            simulator.run(3, record_history=False)
        for name in SCHEMES[scheme][1]:
            # In place, on the dict the attribute hands out ...
            for simulator in (scalar, vectorized):
                values = getattr(simulator, name)
                for key in list(values)[::2]:
                    values[key] *= factor
            assert_close(vectorized.step().rates, scalar.step().rates, f"{name} in place")
            # ... and by assigning a fresh dict.
            for simulator in (scalar, vectorized):
                setattr(
                    simulator,
                    name,
                    {key: value * factor for key, value in getattr(simulator, name).items()},
                )
            assert_close(vectorized.step().rates, scalar.step().rates, f"{name} assigned")
            for simulator in (scalar, vectorized):
                simulator.run(2, record_history=False)
            for state, values in state_of(scheme, scalar).items():
                assert_close(state_of(scheme, vectorized)[state], values, state)

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_a_price_write_moves_the_next_allocation(self, backend):
        """Not just parity: the write is visibly what the step ran on."""
        instance = ({"a": 10e9, "b": 10e9}, {0: ("a",), 1: ("a", "b"), 2: ("b",)}, None)
        written, untouched = make("xwi", instance, backend), make("xwi", instance, backend)
        for simulator in (written, untouched):
            simulator.run(20, record_history=False)
        written.prices["a"] *= 4.0
        assert written.step().rates[1] < 0.75 * untouched.step().rates[1]

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_a_dict_held_across_steps_stays_the_attribute(self, scheme, backend):
        """One dict object per attribute, through steps and churn, in the
        simulator as in the reference: a caller that kept it reads and
        writes the live state."""
        instance = ({"a": 10e9, "b": 10e9}, {0: ("a",), 1: ("a", "b"), 2: ("b",)}, None)
        holder, reader = make(scheme, instance, backend), make(scheme, instance, backend)
        for simulator in (holder, reader):
            simulator.step()
        held = {name: getattr(holder, name) for name in SCHEMES[scheme][1]}
        for round_ in range(2):
            for simulator in (holder, reader):
                simulator.run(2, record_history=False)
                churn(simulator, round_)
                simulator.step()
            for name, values in held.items():
                assert getattr(holder, name) is values
                assert values == getattr(reader, name)  # current; departed flows gone
        for simulator, values in ((holder, held), (reader, state_of(scheme, reader))):
            name = SCHEMES[scheme][1][0]
            getattr(simulator, name).update({key: 3.0 * v for key, v in values[name].items()})
        assert holder.step().rates == reader.step().rates

    def test_a_held_dict_is_brought_up_to_date_by_reading_the_attribute(self):
        """The one difference from the reference: a step touches no dict,
        so a kept reference lags until the attribute is read again."""
        simulator = make("xwi", ({"a": 1e9}, {0: ("a",)}, None))
        simulator.step()
        held = simulator.prices
        before = dict(held)
        simulator.step()
        assert held == before and not simulator._prices.handed_out
        assert simulator.prices is held and held != before


class TestRecords:
    @settings(max_examples=40, deadline=None)
    @given(scheme=schemes, instance=fabrics)
    def test_views_equal_vectors_and_survive_churn(self, scheme, instance):
        simulator = make(scheme, instance)
        simulator.step()
        record = simulator.step()
        if record.rate_vec is None:
            assert not simulator.network.flows  # xWI's flowless step builds dicts
            return
        flow_ids = list(simulator._compiled.flow_ids)
        assert list(record.flow_ids) == flow_ids
        churn(simulator, 0)
        simulator.step()  # the compiled view has swapped slots by now
        assert list(record.flow_ids) == flow_ids
        assert record.rates == dict(zip(flow_ids, record.rate_vec.tolist()))
        for field in SCHEMES[scheme][2]:
            vector, ids = (getattr(record, name) for name in RECORD_FIELDS[field])
            assert not vector.flags.writeable
            with pytest.raises(ValueError):
                vector[:1] = 0.0
            assert getattr(record, field) == dict(zip(ids, vector.tolist()))
            assert getattr(record, field) is getattr(record, field)  # cached

    def test_no_step_builds_a_dict(self):
        """The per-step dict builds this layout replaced must not come back."""
        for simulator_cls, _, _ in SCHEMES.values():
            body = inspect.getsource(simulator_cls.step)
            for banned in ("dict(zip(", "dict(self.", "_store_link_vector("):
                assert banned not in body, (simulator_cls.__name__, banned)


class TestPickle:
    @settings(max_examples=30, deadline=None)
    @given(scheme=schemes, instance=fabrics, handed_out=st.booleans())
    def test_resumes_bit_identically(self, scheme, instance, handed_out):
        simulator = make(scheme, instance)
        simulator.run(4)
        if handed_out:
            state_of(scheme, simulator)
        restored = pickle.loads(pickle.dumps(simulator))
        for twin in (simulator, restored):
            twin.run(3)
            churn(twin, 0)
            twin.run(3)
        for field in SCHEMES[scheme][2]:
            assert [getattr(r, field) for r in restored.history] == [
                getattr(r, field) for r in simulator.history
            ]
        assert state_of(scheme, restored) == state_of(scheme, simulator)


@st.composite
def histories(draw):
    """Records over shifting flow sets, rates scattered around an optimum.

    Some optimal flows never appear in a record (they read rate 0), some
    recorded flows have no optimum (ignored), some optima are <= 0, and the
    rates sit on, just inside and just outside the 10 % band.
    """
    universe = list(range(draw(st.integers(min_value=1, max_value=6))))
    optimal = {
        flow: draw(st.sampled_from([-1.0, 0.0, 1.0, 2.0, 8.0]))
        for flow in draw(st.lists(st.sampled_from(universe + ["ghost"]), unique=True))
    }
    records = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        flow_ids = tuple(draw(st.permutations(universe))[: draw(st.integers(0, len(universe)))])
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            rates = [
                max(optimal.get(flow, 1.0), 0.0)
                * draw(st.sampled_from([0.0, 0.89, 0.9, 1.0, 1.1, 1.11]))
                + draw(st.sampled_from([0.0, 0.0, 0.05, 0.1, 0.2]))
                for flow in flow_ids
            ]
            records.append(
                IterationRecord(len(records), flow_ids, (), rate_vec=np.array(rates, dtype=float))
            )
    return records, optimal


class TestConvergenceOnRecords:
    @settings(max_examples=300, deadline=None)
    @given(
        history=histories(),
        hold=st.sampled_from([1, 3]),
        fraction=st.sampled_from([0.5, 0.95, 1.0]),
    )
    def test_same_verdict_as_the_mapping_path(self, history, hold, fraction):
        records, optimal = history
        criterion = ConvergenceCriterion(flow_fraction=fraction, hold_iterations=hold)
        expected = convergence_iterations([r.rates for r in records], optimal, criterion)
        assert convergence_iterations(records, optimal, criterion) == expected

    def test_never_converged_is_none_and_dict_records_are_read_through(self):
        optimal = {0: 1.0, 1: 1.0}
        far = IterationRecord(0, (0, 1), (), rate_vec=np.array([0.1, 0.2]))
        assert convergence_iterations([far] * 5, optimal) is None
        scalar_record = IterationRecord(0, rates={0: 1.0, 1: 1.05})
        assert convergence_iterations([far, scalar_record], optimal) == 1
