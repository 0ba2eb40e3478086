"""Array-loop parity for the flow-level simulation (Fig. 5/7 engine).

``FlowLevelSimulation``'s array loop must reproduce the per-flow dict loop
of ``_flow_reference.run_dict`` exactly -- same
completion order, same quantized finish times, same average rates -- across
the edge cases the batched update has to preserve: zero-byte flows,
simultaneous arrivals and completions inside one step, and ``max_time``
truncation mid-flow.
"""

import pytest

from _flow_reference import run_dict
from repro.experiments.dynamic_fluid import (
    ArrivalStream,
    EqualSharePolicy,
    FlowLevelSimulation,
    OracleRatePolicy,
    scheme_rate_policy,
)
from repro.fluid.network import FluidNetwork
from repro.workloads.distributions import UniformFlowSizeDistribution
from repro.workloads.poisson import FlowArrival, PoissonTrafficGenerator

STEP = 30e-6


def single_link_network():
    return FluidNetwork({"bottleneck": 1e9})


def run_single_link(arrivals, loop, policy=None, max_time=None, network=None):
    """Run on one bottleneck with the ``"array"`` loop or the ``"dict"`` reference."""
    network = network or single_link_network()
    simulation = FlowLevelSimulation(
        network,
        lambda arrival: ("bottleneck",),
        policy or EqualSharePolicy(1e9),
        step_interval=STEP,
    )
    if loop == "dict":
        return simulation, run_dict(simulation, arrivals, max_time=max_time)
    return simulation, simulation.run(arrivals, max_time=max_time)


def assert_identical(dict_completed, array_completed):
    assert [c.flow_id for c in dict_completed] == [c.flow_id for c in array_completed]
    for d, a in zip(dict_completed, array_completed):
        assert d.size_bytes == a.size_bytes
        assert d.start_time == a.start_time
        assert d.finish_time == a.finish_time  # exact: identical arithmetic
        assert d.fct == a.fct
        assert d.average_rate == a.average_rate


def arrival(flow_id, time, size_bytes):
    return FlowArrival(
        flow_id=flow_id, time=time, source=0, destination=1, size_bytes=size_bytes
    )


class TestBackendParity:
    def test_rejects_unknown_backend(self):
        """The engine has one loop: a caller still asking for a backend is
        refused, not silently given the array loop."""
        for backend in ("dict", "array", "gpu"):
            with pytest.raises(TypeError, match="backend"):
                FlowLevelSimulation(
                    single_link_network(), lambda a: ("bottleneck",), EqualSharePolicy(1e9),
                    backend=backend,
                )

    def test_poisson_workload_identical(self):
        generator = PoissonTrafficGenerator(
            num_servers=4,
            size_distribution=UniformFlowSizeDistribution(1_000, 200_000),
            load=0.5,
            link_rate=1e9,
            seed=3,
        )
        arrivals = generator.generate(max_flows=80)
        _, by_dict = run_single_link(arrivals, "dict")
        _, by_array = run_single_link(arrivals, "array")
        assert len(by_dict) == 80
        assert_identical(by_dict, by_array)

    def test_zero_byte_flow_completes_on_first_step(self):
        arrivals = [arrival(0, 0.0, 0), arrival(1, 0.0, 50_000)]
        _, by_dict = run_single_link(arrivals, "dict")
        _, by_array = run_single_link(arrivals, "array")
        assert_identical(by_dict, by_array)
        zero = next(c for c in by_array if c.flow_id == 0)
        # It still takes one step interval to be noticed, never less.
        assert zero.finish_time == pytest.approx(STEP)
        assert zero.average_rate == 0.0

    def test_simultaneous_arrivals_and_completions_within_one_step(self):
        # Three flows arrive at the same instant (admitted as one batch); the
        # two small ones are sized to finish together in a single step.
        small = int(1e9 * STEP / 8 / 3 * 0.4)  # 40% of one step's three-way share
        arrivals = [
            arrival(0, 0.0, small),
            arrival(1, 0.0, small),
            arrival(2, 0.0, 10_000_000),
        ]
        _, by_dict = run_single_link(arrivals, "dict")
        _, by_array = run_single_link(arrivals, "array")
        assert_identical(by_dict, by_array)
        # The two small flows complete in the same (first) step.
        first_two = [c for c in by_array if c.flow_id in (0, 1)]
        assert first_two[0].finish_time == first_two[1].finish_time == pytest.approx(STEP)

    def test_max_time_truncates_mid_flow(self):
        arrivals = [arrival(0, 0.0, 1_000), arrival(1, 0.0, 50_000_000)]
        horizon = 40 * STEP
        sim_dict, by_dict = run_single_link(arrivals, "dict", max_time=horizon)
        sim_array, by_array = run_single_link(arrivals, "array", max_time=horizon)
        assert_identical(by_dict, by_array)
        assert [c.flow_id for c in by_array] == [0]
        # The truncated flow stays admitted in both loops.
        assert sim_dict.network.flow_ids == [1]
        assert sim_array.network.flow_ids == [1]
        assert sim_array.active_flow_count == 1

    def test_idle_gap_jumps_to_next_arrival(self):
        arrivals = [arrival(0, 0.0, 1_000), arrival(1, 0.5, 1_000)]
        _, by_dict = run_single_link(arrivals, "dict")
        _, by_array = run_single_link(arrivals, "array")
        assert_identical(by_dict, by_array)
        assert by_array[1].start_time == 0.5
        assert by_array[1].finish_time > 0.5

    def test_flows_outlive_many_compaction_batches(self):
        # Staggered sizes force a completion batch on almost every step, so
        # the array loop compacts repeatedly while survivors keep state.
        arrivals = [arrival(i, 0.0, 1_000 * (i + 1)) for i in range(50)]
        _, by_dict = run_single_link(arrivals, "dict")
        _, by_array = run_single_link(arrivals, "array")
        assert len(by_array) == 50
        assert_identical(by_dict, by_array)

    def test_scheme_policy_parity(self):
        generator = PoissonTrafficGenerator(
            num_servers=4,
            size_distribution=UniformFlowSizeDistribution(10_000, 500_000),
            load=0.4,
            link_rate=1e9,
            seed=9,
        )
        arrivals = generator.generate(max_flows=30)
        _, by_dict = run_single_link(
            arrivals, "dict", policy=scheme_rate_policy("NUMFabric")
        )
        _, by_array = run_single_link(
            arrivals, "array", policy=scheme_rate_policy("NUMFabric")
        )
        assert_identical(by_dict, by_array)

    def test_oracle_policy_parity(self):
        generator = PoissonTrafficGenerator(
            num_servers=4,
            size_distribution=UniformFlowSizeDistribution(10_000, 500_000),
            load=0.4,
            link_rate=1e9,
            seed=11,
        )
        arrivals = generator.generate(max_flows=25)
        _, by_dict = run_single_link(arrivals, "dict", policy=OracleRatePolicy())
        _, by_array = run_single_link(arrivals, "array", policy=OracleRatePolicy())
        assert_identical(by_dict, by_array)


class TestRunMatchesRunStream:
    def test_list_run_and_streamed_run_complete_identically(self):
        """``run(list)`` and ``run_stream(ArrivalStream(list))`` are one loop:
        equal completion records across an idle gap (the loop jumps to the
        next arrival), simultaneous arrivals and a ``max_time`` cut."""
        arrivals = [
            arrival(0, 0.0, 30_000),
            arrival(1, 0.0, 5_000),  # simultaneous with flow 0
            arrival(2, 3 * STEP, 0),  # zero-byte, completes in its first step
            arrival(3, 0.004, 20_000),  # after an idle gap, off the step grid
            arrival(4, 0.004, 20_000),
            arrival(5, 0.004 + 2 * STEP, 900_000),  # still in flight at max_time
        ]
        max_time = 0.0045
        simulation, by_run = run_single_link(arrivals, "array", max_time=max_time)

        streamed = FlowLevelSimulation(
            single_link_network(), lambda a: ("bottleneck",), EqualSharePolicy(1e9),
            step_interval=STEP,
        )
        assert streamed.run_stream(ArrivalStream(arrivals), max_time=max_time) is True
        assert_identical(by_run, streamed.completed)
        assert [c.flow_id for c in by_run] == [1, 2, 0, 3, 4]
        assert simulation.active_flow_count == streamed.active_flow_count == 1
        assert simulation._time == streamed._time


class TestArrayInternals:
    def test_slot_compaction_preserves_admission_order(self):
        policy = EqualSharePolicy(1e9)
        simulation = FlowLevelSimulation(
            single_link_network(), lambda a: ("bottleneck",), policy,
            step_interval=STEP,
        )
        sizes = [5_000, 500_000, 5_000, 500_000, 5_000]
        simulation.run([arrival(i, 0.0, s) for i, s in enumerate(sizes)])
        # Small flows (even ids) complete first, in admission order; then the
        # large ones, also in admission order.
        assert [c.flow_id for c in simulation.completed] == [0, 2, 4, 1, 3]
        assert simulation.active_flow_count == 0

    def test_mutating_policy_without_epoch_is_never_served_stale_rates(self):
        # A policy written the "natural" way: it mutates one dict in place
        # and returns the same object every step.  Since it does not
        # implement rates_epoch(), the array loop must re-gather every
        # step instead of trusting dict identity.
        class InPlacePolicy:
            def __init__(self):
                self._rates = {}
                self.calls = 0

            def on_flow_set_changed(self, network):
                pass

            def rates(self, network, dt):
                self.calls += 1
                self._rates.clear()
                # Rate grows step over step, so a stale cached vector would
                # visibly delay completions.
                for flow in network.flows:
                    self._rates[flow.flow_id] = 1e6 * self.calls
                return self._rates

            def rates_epoch(self):
                return None

        arrivals = [arrival(0, 0.0, 40_000), arrival(1, 0.0, 40_000)]
        _, by_dict = run_single_link(arrivals, "dict", policy=InPlacePolicy())
        _, by_array = run_single_link(arrivals, "array", policy=InPlacePolicy())
        assert_identical(by_dict, by_array)

    def test_epoch_caching_reuses_vector_between_flow_set_changes(self):
        class StubPolicy:
            epoch = 1

            def on_flow_set_changed(self, network):
                pass

            def rates(self, network, dt):
                return {}

            def rates_epoch(self):
                return self.epoch

        policy = StubPolicy()
        simulation = FlowLevelSimulation(
            single_link_network(), lambda a: ("bottleneck",), policy,
            step_interval=STEP,
        )
        simulation._append_flow(arrival(0, 0.0, 1_000))
        first = simulation._gather_rates({0: 5.0})
        # Same epoch: the gathered vector is reused (that is the contract --
        # a policy advertising an epoch promises the allocation is stable).
        assert simulation._gather_rates({0: 7.0}) is first
        policy.epoch = 2
        refreshed = simulation._gather_rates({0: 7.0})
        assert refreshed is not first
        assert refreshed[0] == 7.0
        # A slot-layout change invalidates the cache even at the same epoch.
        simulation._append_flow(arrival(1, 0.0, 1_000))
        regathered = simulation._gather_rates({0: 7.0, 1: 9.0})
        assert regathered.shape == (2,) and regathered[1] == 9.0

    def test_rate_cache_invalidated_on_flow_set_change(self):
        # A policy that mutates its allocation only on flow-set changes, like
        # the Oracle: the cached rate vector must be refreshed when the slot
        # layout changes even though the dict object stays logically similar.
        arrivals = [arrival(0, 0.0, 40_000), arrival(1, 10 * STEP, 40_000)]
        _, by_dict = run_single_link(arrivals, "dict")
        _, by_array = run_single_link(arrivals, "array")
        assert_identical(by_dict, by_array)
