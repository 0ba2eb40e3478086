"""Tests for flow-size distributions and workload generators."""

import random

import numpy as np
import pytest

from repro.workloads.distributions import (
    EmpiricalFlowSizeDistribution,
    ParetoFlowSizeDistribution,
    UniformFlowSizeDistribution,
    enterprise_distribution,
    web_search_distribution,
)
from repro.workloads.permutation import PermutationTraffic, permutation_pairs
from repro.workloads.poisson import PoissonTrafficGenerator
from repro.workloads.semidynamic import SemiDynamicScenario, arrivals_from_scenario


class TestEmpiricalDistribution:
    def test_quantiles_monotone(self):
        dist = web_search_distribution()
        values = [dist.quantile(u) for u in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_websearch_statistics_match_paper(self):
        """About 50% of web-search flows are below 100 KB (Sec. 6.1)."""
        dist = web_search_distribution()
        assert 0.4 <= dist.cdf(100_000) <= 0.65
        assert dist.cdf(1_000_000) <= 0.85

    def test_enterprise_statistics_match_paper(self):
        """95% of enterprise flows are smaller than 10 KB (Sec. 6.1)."""
        dist = enterprise_distribution()
        assert dist.cdf(10_000) == pytest.approx(0.95, abs=0.02)

    def test_sampling_respects_bounds(self):
        dist = web_search_distribution()
        rng = random.Random(0)
        samples = [dist.sample(rng) for _ in range(500)]
        assert min(samples) >= 1
        assert max(samples) <= 30_000_000

    def test_mean_is_heavy_tail_dominated(self):
        dist = web_search_distribution()
        assert dist.mean() > 500_000  # much larger than the median (~50 KB)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalFlowSizeDistribution([(1, 0.5)])
        with pytest.raises(ValueError):
            EmpiricalFlowSizeDistribution([(10, 0.5), (5, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalFlowSizeDistribution([(1, 0.5), (10, 0.9)])


class TestOtherDistributions:
    def test_pareto_bounds(self):
        dist = ParetoFlowSizeDistribution(shape=1.2, minimum=1000, maximum=1_000_000)
        rng = random.Random(1)
        samples = [dist.sample(rng) for _ in range(300)]
        assert min(samples) >= 1000 * 0.99
        assert max(samples) <= 1_000_000 * 1.01
        assert dist.mean() > 1000

    def test_uniform(self):
        dist = UniformFlowSizeDistribution(100, 200)
        rng = random.Random(2)
        assert all(100 <= dist.sample(rng) <= 200 for _ in range(100))
        assert dist.mean() == 150


class TestPoissonGenerator:
    def test_reproducible_with_seed(self):
        make = lambda: PoissonTrafficGenerator(16, web_search_distribution(), load=0.5, seed=3)
        assert make().generate(max_flows=20) == make().generate(max_flows=20)

    def test_no_self_traffic(self):
        generator = PoissonTrafficGenerator(4, web_search_distribution(), load=0.5, seed=4)
        assert all(a.source != a.destination for a in generator.generate(max_flows=200))

    def test_arrival_rate_scales_with_load(self):
        low = PoissonTrafficGenerator(16, web_search_distribution(), load=0.2, seed=5)
        high = PoissonTrafficGenerator(16, web_search_distribution(), load=0.8, seed=5)
        assert high.arrival_rate == pytest.approx(4 * low.arrival_rate, rel=1e-6)

    def test_duration_bound(self):
        generator = PoissonTrafficGenerator(16, web_search_distribution(), load=0.5, seed=6)
        arrivals = generator.generate(duration=1e-3)
        assert all(a.time <= 1e-3 for a in arrivals)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonTrafficGenerator(1, web_search_distribution(), load=0.5)
        with pytest.raises(ValueError):
            PoissonTrafficGenerator(4, web_search_distribution(), load=1.5)


class TestSemiDynamicScenario:
    def test_event_sizes_and_bounds(self):
        scenario = SemiDynamicScenario(num_paths=300, flows_per_event=50,
                                       min_active=100, max_active=200, seed=1)
        scenario.initialize()
        for event in scenario.events(20):
            assert len(event.path_ids) == 50
            assert 100 <= len(event.active_after) <= 200

    def test_start_adds_and_stop_removes(self):
        scenario = SemiDynamicScenario(num_paths=300, flows_per_event=50,
                                       min_active=100, max_active=200, seed=2)
        before = set(scenario.initialize())
        event = scenario.next_event()
        after = set(event.active_after)
        if event.kind == "start":
            assert after == before | set(event.path_ids)
        else:
            assert after == before - set(event.path_ids)

    def test_reproducible(self):
        def run():
            scenario = SemiDynamicScenario(seed=42, num_paths=100, flows_per_event=10,
                                           min_active=30, max_active=60)
            scenario.initialize()
            return [e.path_ids for e in scenario.events(5)]

        assert run() == run()

    def test_paths_have_distinct_endpoints(self):
        scenario = SemiDynamicScenario(seed=3)
        assert all(p.source != p.destination for p in scenario.paths)


class TestPermutationTraffic:
    def test_pairs_are_a_permutation(self):
        pairs = permutation_pairs(64, seed=1)
        senders = [s for s, _ in pairs]
        receivers = [r for _, r in pairs]
        assert senders == list(range(32))
        assert sorted(receivers) == list(range(32, 64))

    def test_subflow_counts(self):
        traffic = PermutationTraffic(num_servers=32, num_spines=4, seed=1)
        specs = traffic.subflows(4)
        assert len(specs) == 16 * 4
        assert all(0 <= s.spine < 4 for s in specs)

    def test_odd_server_count_rejected(self):
        with pytest.raises(ValueError):
            permutation_pairs(7)


class TestArrivalsFromScenario:
    def _scenario(self):
        return SemiDynamicScenario(
            num_servers=16, num_paths=40, flows_per_event=5,
            min_active=10, max_active=20, num_spines=2, seed=4,
        )

    def test_initial_set_arrives_at_time_zero(self):
        arrivals = arrivals_from_scenario(
            self._scenario(), UniformFlowSizeDistribution(1_000, 10_000),
            event_interval=1e-3, num_events=6, seed=1,
        )
        initial = [a for a in arrivals if a.time == 0.0]
        assert len(initial) == 15  # (min_active + max_active) // 2

    def test_start_events_become_sized_batches(self):
        scenario = self._scenario()
        arrivals = arrivals_from_scenario(
            scenario, UniformFlowSizeDistribution(1_000, 10_000),
            event_interval=1e-3, num_events=10, seed=1,
        )
        times = sorted({a.time for a in arrivals if a.time > 0.0})
        # Every non-initial batch lands on the event grid with 5 flows each.
        for t in times:
            assert t / 1e-3 == pytest.approx(round(t / 1e-3))
            assert len([a for a in arrivals if a.time == t]) == 5
        assert all(a.size_bytes >= 1_000 for a in arrivals)
        assert all(a.source != a.destination for a in arrivals)

    def test_flow_ids_unique_even_across_path_restarts(self):
        arrivals = arrivals_from_scenario(
            self._scenario(), UniformFlowSizeDistribution(1_000, 10_000),
            event_interval=1e-3, num_events=30, seed=1,
        )
        ids = [a.flow_id for a in arrivals]
        assert len(ids) == len(set(ids))

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            arrivals_from_scenario(
                self._scenario(), UniformFlowSizeDistribution(1_000, 10_000),
                event_interval=0.0, num_events=1,
            )

    def test_drives_flow_level_simulation(self):
        from repro.experiments.dynamic_fluid import FlowLevelSimulation, RatePolicy
        from repro.fluid.network import FluidNetwork
        from repro.fluid.vectorized import IterationRecord

        arrivals = arrivals_from_scenario(
            self._scenario(), UniformFlowSizeDistribution(1_000, 5_000),
            event_interval=5e-3, num_events=4, seed=2,
        )
        network = FluidNetwork({"bottleneck": 1e9})

        class EqualShare(RatePolicy):
            def rates(self, network, dt):
                flow_ids = tuple(network.flow_ids)
                return IterationRecord(
                    0, flow_ids, rate_vec=np.full(len(flow_ids), 1e9 / len(flow_ids))
                )

        simulation = FlowLevelSimulation(
            network, lambda a: ("bottleneck",), EqualShare()
        )
        completed = simulation.run(arrivals)
        assert len(completed) == len(arrivals)
