"""Tests for the declarative scenario subsystem (spec, registry, runner)."""

import dataclasses
import gc
import weakref

import pytest

from repro.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    SchemeSpec,
    fanout_workload,
    get_scenario,
    leaf_spine_topology,
    list_scenarios,
    oracle_scheme,
    poisson_workload,
    run_scenario,
    scheme,
    single_link_topology,
    trace_workload,
)
from repro.scenarios.materialize import build_fluid_topology, materialize_arrivals
from repro.workloads.hotspot import HotspotTrafficGenerator
from repro.workloads.incast import IncastTrafficGenerator
from repro.workloads.trace import arrivals_from_trace, trace_from_arrivals
from repro.workloads.distributions import web_search_distribution


class TestSpec:
    def test_engine_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="x",
                topology=single_link_topology(),
                workload=fanout_workload(2),
                engine="warp-drive",
            )

    def test_using_rejects_unsupported_engine(self):
        spec = ScenarioSpec(
            name="x",
            topology=single_link_topology(),
            workload=fanout_workload(2),
            engine="fluid",
        )
        with pytest.raises(ValueError):
            spec.using(engine="packet")

    def test_using_merges_sizing_and_keeps_original(self):
        spec = ScenarioSpec(
            name="x",
            topology=single_link_topology(),
            workload=fanout_workload(2),
            engine="fluid",
            sizing={"iterations": 10, "measure": "rates"},
        )
        derived = spec.using(seed=9, iterations=33)
        assert derived.seed == 9 and derived.size("iterations") == 33
        assert derived.size("measure") == "rates"
        assert spec.size("iterations") == 10 and spec.seed is None

    def test_string_kind_coerced(self):
        spec = ScenarioSpec(name="x", topology="single_link", workload="fanout")
        assert spec.topology.kind == "single_link"
        assert spec.workload.kind == "fanout"


class TestRegistry:
    def test_at_least_twelve_scenarios_with_new_families(self):
        names = set(SCENARIOS)
        assert len(names) >= 12
        for required in (
            "fattree/websearch",
            "incast/leaf-spine",
            "hotspot/leaf-spine",
            "trace/replay",
        ):
            assert required in names

    def test_every_figure_family_registered(self):
        prefixes = {name.split("/")[0] for name in SCENARIOS}
        for fig in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"):
            assert fig in prefixes

    def test_get_scenario_unknown_name(self):
        with pytest.raises(KeyError):
            get_scenario("nope/never")

    def test_get_scenario_scales(self):
        toy = get_scenario("fig5/websearch", scale="toy")
        paper = get_scenario("fig5/websearch", scale="paper")
        assert toy.workload.get("num_flows") < paper.workload.get("num_flows")
        with pytest.raises(ValueError):
            get_scenario("fig5/websearch", scale="galactic")

    def test_get_scenario_returns_the_registered_name(self):
        for name in ("fig4/semidynamic-convergence", "fig5/websearch", "fig8/permutation-pooling"):
            assert get_scenario(name).name == name

    def test_listing_is_sorted_and_described(self):
        entries = list_scenarios()
        assert [e.name for e in entries] == sorted(e.name for e in entries)
        assert all(e.description for e in entries)
        assert all(e.default_engine in e.engines for e in entries)


class TestSeedDeterminism:
    """ScenarioSpec.seed must reach every stochastic component end-to-end."""

    def _rows(self, name, seed, engine=None):
        result = run_scenario(get_scenario(name), seed=seed, engine=engine)
        return result.rows

    @pytest.mark.parametrize(
        "name,engine",
        [
            ("fig5/websearch", None),  # PoissonTrafficGenerator (flow engine)
            ("fig8/permutation-pooling", None),  # PermutationTraffic (fluid engine)
            ("fig4/semidynamic-convergence", None),  # SemiDynamicScenario
            ("hotspot/leaf-spine", None),  # HotspotTrafficGenerator
            ("incast/leaf-spine", None),  # IncastTrafficGenerator
        ],
    )
    def test_same_seed_bit_identical(self, name, engine):
        first = self._rows(name, seed=123, engine=engine)
        second = self._rows(name, seed=123, engine=engine)
        assert first == second  # exact equality, including every float bit

    def test_different_seed_changes_workload(self):
        first = self._rows("fig5/websearch", seed=1)
        second = self._rows("fig5/websearch", seed=2)
        assert first != second

    def test_seed_reaches_arrival_generators(self):
        spec = get_scenario("fig5/websearch").using(seed=77)
        topo = build_fluid_topology(spec)
        arrivals_a = materialize_arrivals(spec, topo)
        arrivals_b = materialize_arrivals(spec, build_fluid_topology(spec))
        assert arrivals_a == arrivals_b
        spec_c = spec.using(seed=78)
        arrivals_c = materialize_arrivals(spec_c, build_fluid_topology(spec_c))
        assert arrivals_a != arrivals_c


class TestRunnerFluid:
    def test_equal_split_on_single_link(self):
        spec = ScenarioSpec(
            name="t/equal-split",
            topology=single_link_topology(capacity=8e9),
            workload=fanout_workload(4),
            scheme=scheme("NUMFabric"),
            engine="fluid",
            sizing={"iterations": 80},
        )
        rates = run_scenario(spec).artifacts["final_rates"]
        for rate in rates.values():
            assert rate == pytest.approx(2e9, rel=0.05)

    def test_oracle_scheme_solves_directly(self):
        spec = ScenarioSpec(
            name="t/oracle",
            topology=single_link_topology(capacity=8e9),
            workload=fanout_workload(4),
            scheme=scheme("Oracle"),
            engine="fluid",
        )
        result = run_scenario(spec)
        assert len(result.rows) == 4
        for row in result.rows:
            assert row["rate_bps"] == pytest.approx(2e9, rel=1e-6)

    def test_unknown_scheme_rejected(self):
        spec = ScenarioSpec(
            name="t/unknown",
            topology=single_link_topology(),
            workload=fanout_workload(2),
            scheme=scheme("TCP-Reno"),
            engine="fluid",
        )
        with pytest.raises(ValueError):
            run_scenario(spec)

    def test_capacity_schedule_applies(self):
        spec = ScenarioSpec(
            name="t/capacity",
            topology=single_link_topology(capacity=4e9),
            workload=fanout_workload(2),
            engine="fluid",
            sizing={
                "iterations": 160,
                "capacity_schedule": ((80, "link", 8e9),),
                "record_timeseries": True,
            },
        )
        run = run_scenario(spec)
        series = run.artifacts["timeseries"]
        early, late = series[70], series[-1]
        assert sum(early.values()) == pytest.approx(4e9, rel=0.05)
        assert sum(late.values()) == pytest.approx(8e9, rel=0.05)

    def test_star_spread_works_on_any_link_bundle(self):
        from repro.scenarios import parking_lot_topology, star_spread_workload

        spec = ScenarioSpec(
            name="t/parking-star",
            topology=parking_lot_topology(n_hops=3, capacity=9e9),
            workload=star_spread_workload(6),
            engine="fluid",
            sizing={"iterations": 60},
        )
        rates = run_scenario(spec).artifacts["final_rates"]
        assert len(rates) == 6 and all(rate > 0 for rate in rates.values())

    def test_fanout_on_multi_link_topology_gives_clear_error(self):
        from repro.scenarios import parking_lot_topology

        spec = ScenarioSpec(
            name="t/parking-fanout",
            topology=parking_lot_topology(n_hops=3),
            workload=fanout_workload(2),
            engine="fluid",
        )
        with pytest.raises(ValueError, match="fanout workload"):
            run_scenario(spec)

    def test_incast_with_size_distribution_and_explicit_servers(self):
        from repro.scenarios import incast_workload

        spec = ScenarioSpec(
            name="t/incast-sized",
            topology=single_link_topology(capacity=10e9),
            workload=incast_workload(
                num_senders=4, waves=2, size_distribution="websearch", num_servers=8
            ),
            engine="flow",
            seed=2,
        )
        run = run_scenario(spec)
        sizes = {c.size_bytes for c in run.artifacts["completions"]}
        assert len(run.artifacts["completions"]) == 8
        assert len(sizes) > 1  # drawn from the distribution, not a constant

    def test_departure_batches_sharing_a_step_all_apply(self):
        spec = ScenarioSpec(
            name="t/departures",
            topology=single_link_topology(capacity=6e9),
            workload=fanout_workload(6, departures=[(10, (0, 1)), (10, (2,)), (20, (3,))]),
            engine="fluid",
            sizing={"iterations": 60},
        )
        rates = run_scenario(spec).artifacts["final_rates"]
        # Flows 0, 1, 2 (two batches at step 10) and 3 (step 20) all left.
        assert set(rates) == {4, 5}
        for rate in rates.values():
            assert rate == pytest.approx(3e9, rel=0.05)

    def test_semidynamic_oracle_cache_shares_solves(self):
        spec = get_scenario("fig4/semidynamic-convergence")
        cache = {}
        with_cache = run_scenario(spec, seed=9, oracle_cache=cache)
        assert cache  # one entry per distinct active set
        without = run_scenario(spec, seed=9)
        assert with_cache.rows == without.rows
        # A second scheme reusing the cache gets identical references.
        reused = run_scenario(spec, seed=9, oracle_cache=cache)
        assert reused.rows == with_cache.rows

    def test_fluid_engine_on_arrivals_builds_static_population(self):
        spec = get_scenario("incast/leaf-spine").using(engine="fluid", seed=3)
        run = run_scenario(spec)
        # Every arrival became one persistent flow.
        assert len(run.artifacts["final_rates"]) == len(run.rows)
        # N-to-1: the receiver's host-down link is the bottleneck, so the
        # fan-in flows split it roughly equally.
        senders = spec.workload.get("num_senders")
        waves = spec.workload.get("waves")
        assert len(run.rows) == senders * waves


class TestRunnerFlowAndPacket:
    def test_flow_engine_completions_match_rows(self):
        result = run_scenario(get_scenario("unit/dumbbell-websearch"), seed=5)
        completions = result.artifacts["completions"]
        assert len(result.rows) == len(completions) == len(result.artifacts["arrivals"])
        for row in result.rows:
            assert row["fct"] > 0

    def test_packet_engine_runs_same_spec(self):
        result = run_scenario(
            get_scenario("unit/dumbbell-websearch"), engine="packet", seed=5
        )
        assert result.artifacts["engine"] == "packet"
        assert len(result.artifacts["completions"]) > 0

    def test_a_dropped_packet_run_is_freed_when_the_next_one_starts(self):
        # A packet network is cyclic, so with automatic collection off only
        # the runner's own collection can free a run its caller dropped.
        spec = get_scenario("fig7/dumbbell-fct")
        enabled = gc.isenabled()
        gc.disable()
        try:
            network = weakref.ref(run_scenario(spec).artifacts["network"])
            assert network() is not None  # the dropped graph is still there
            assert len(run_scenario(spec).artifacts["completions"]) > 0
            assert network() is None
        finally:
            if enabled:
                gc.enable()

    def test_packet_single_link_sizes_pairs_from_endpoints(self):
        spec = ScenarioSpec(
            name="t/packet-single-link",
            topology=single_link_topology(capacity=1e9),
            workload=poisson_workload(
                "websearch", num_flows=20, num_servers=4, size_cap_bytes=20_000
            ),
            engine="packet",
            seed=8,
            sizing={"drain": 0.05},
        )
        run = run_scenario(spec)
        # One dumbbell pair per endpoint, not per arrival.
        assert len(run.artifacts["network"].hosts) == 2 * 4
        assert len(run.artifacts["completions"]) == 20

    def test_flow_engine_rejects_static_workload(self):
        spec = ScenarioSpec(
            name="t/static-flow",
            topology=single_link_topology(),
            workload=fanout_workload(2),
            engine="flow",
        )
        with pytest.raises(ValueError):
            run_scenario(spec)

    @pytest.mark.parametrize(
        "build, option",
        [
            # knobs that no longer exist
            (lambda: oracle_scheme(solver="scipy"), "solver"),
            (lambda: scheme("NUMFabric", kernel="numba"), "kernel"),
            # a misspelt one
            (lambda: oracle_scheme(safegaurd=True), "safegaurd"),
            # the Oracle takes no tuning knob
            (lambda: oracle_scheme(safeguard=True), "safeguard"),
            (lambda: oracle_scheme(tolerance=1e-6), "tolerance"),
            (lambda: oracle_scheme(scale_refresh_interval=8), "scale_refresh_interval"),
        ],
    )
    def test_unknown_scheme_option_is_a_type_error_at_the_builder(self, build, option):
        with pytest.raises(TypeError, match=rf"unexpected keyword argument '{option}'"):
            build()

    def test_known_scheme_options_reach_the_policy(self):
        """No scheme takes an option: a scheme is its name and parameters,
        and an Oracle scheme runs."""
        assert [f.name for f in dataclasses.fields(SchemeSpec)] == ["name", "params"]
        spec = get_scenario("unit/dumbbell-websearch")
        assert run_scenario(spec, scheme=oracle_scheme(), seed=5).rows


class TestPooledOracle:
    def test_fig10_bandwidth_function_pooling_has_no_oracle(self):
        """Fig. 10 pools sub-flows under bandwidth-function utilities, which
        have no power law, so the Oracle's pooled (Newton) solve refuses the
        network with a ``ValueError`` instead of answering uncertified --
        both as the scheme and as the ``compare_oracle`` reference.  The
        NUMFabric run itself needs no Oracle."""
        spec = get_scenario("fig10/bwfunction-pooling")
        with pytest.raises(ValueError, match="needs a power-law utility on every flow and group"):
            run_scenario(spec, scheme=oracle_scheme(), seed=0)
        with pytest.raises(ValueError, match="needs a power-law utility on every flow and group"):
            run_scenario(spec.using(compare_oracle=True), seed=0)
        assert run_scenario(spec, seed=0).rows


class TestNewWorkloads:
    def test_incast_waves_target_one_receiver(self):
        generator = IncastTrafficGenerator(
            num_servers=16, receiver=3, num_senders=5, wave_interval=1e-3, seed=1
        )
        arrivals = generator.generate(waves=4)
        assert len(arrivals) == 20
        assert all(a.destination == 3 for a in arrivals)
        assert all(a.source != 3 for a in arrivals)
        wave_times = sorted({a.time for a in arrivals})
        assert wave_times == [0.0, 1e-3, 2e-3, 3e-3]

    def test_incast_validation(self):
        with pytest.raises(ValueError):
            IncastTrafficGenerator(num_servers=4, num_senders=4)
        with pytest.raises(ValueError):
            IncastTrafficGenerator(num_servers=4, receiver=9)

    def test_hotspot_skews_destinations(self):
        generator = HotspotTrafficGenerator(
            num_servers=32,
            size_distribution=web_search_distribution(),
            load=0.5,
            hot_fraction=0.8,
            num_hot=2,
            seed=11,
        )
        arrivals = generator.generate(max_flows=400)
        hot = sum(1 for a in arrivals if a.destination in (0, 1))
        assert hot > 200  # ~0.8 * 400 plus uniform spillover
        assert all(a.source != a.destination for a in arrivals)
        assert generator.hot_load_share(arrivals) > 0.5

    def test_hotspot_validation(self):
        with pytest.raises(ValueError):
            HotspotTrafficGenerator(
                num_servers=8,
                size_distribution=web_search_distribution(),
                load=0.5,
                hot_fraction=1.5,
            )

    def test_trace_roundtrip(self):
        generator = IncastTrafficGenerator(num_servers=8, num_senders=3, seed=2)
        arrivals = generator.generate(waves=2)
        text = trace_from_arrivals(arrivals)
        replayed = arrivals_from_trace(text)
        assert replayed == arrivals

    def test_trace_jsonl_and_csv_files(self, tmp_path):
        csv_file = tmp_path / "trace.csv"
        csv_file.write_text(
            "time,source,destination,size_bytes\n# comment\n0.5,1,2,1000\n0.25,2,3,2000\n"
        )
        from_csv = arrivals_from_trace(str(csv_file))
        assert [a.flow_id for a in from_csv] == [1, 0]  # sorted by time
        jsonl_file = tmp_path / "trace.jsonl"
        jsonl_file.write_text(
            '{"time": 0.1, "source": 0, "destination": 1, "size_bytes": 500, "flow_id": 7}\n'
        )
        from_jsonl = arrivals_from_trace(str(jsonl_file))
        assert from_jsonl[0].flow_id == 7 and from_jsonl[0].size_bytes == 500

    def test_trace_rejects_bad_records(self):
        with pytest.raises(ValueError):
            arrivals_from_trace("time,source,destination\n0.1,0,1\n")
        with pytest.raises(ValueError):
            arrivals_from_trace(
                "time,source,destination,size_bytes\n0.1,2,2,100\n"
            )

    def test_trace_scenario_through_both_engines(self):
        trace = "time,source,destination,size_bytes\n0,0,1,50000\n0,2,3,50000\n"
        spec = ScenarioSpec(
            name="t/trace",
            topology=leaf_spine_topology(num_servers=8, num_leaves=2, num_spines=2),
            workload=trace_workload(trace),
            engine="flow",
            engines=("flow", "fluid"),
        )
        flow_run = run_scenario(spec)
        assert len(flow_run.artifacts["completions"]) == 2
        fluid_run = run_scenario(spec, engine="fluid")
        assert len(fluid_run.artifacts["final_rates"]) == 2


class TestObjectives:
    def test_fct_objective_prioritizes_short_flows(self):
        trace = (
            "time,source,destination,size_bytes\n"
            "0,1,0,200000\n"
            "0,2,0,10000000\n"
        )
        spec = ScenarioSpec(
            name="t/fct",
            topology=leaf_spine_topology(num_servers=8, num_leaves=2, num_spines=2),
            workload=trace_workload(trace),
            scheme=scheme("Oracle"),
            engine="flow",
        )
        from repro.scenarios import alpha_fair_objective, fct_objective

        fct_run = run_scenario(spec, objective=fct_objective())
        fair_run = run_scenario(spec, objective=alpha_fair_objective(1.0))
        fct_short = {c.flow_id: c for c in fct_run.artifacts["completions"]}[0]
        fair_short = {c.flow_id: c for c in fair_run.artifacts["completions"]}[0]
        # Both flows fan into server 0's access link; the SRPT-like utility
        # must finish the short flow well before fair sharing would.
        assert fct_short.fct < 0.75 * fair_short.fct


class TestPoissonWorkloadSpec:
    def test_size_cap_applies(self):
        spec = ScenarioSpec(
            name="t/cap",
            topology=leaf_spine_topology(num_servers=8, num_leaves=2, num_spines=2),
            workload=poisson_workload("websearch", num_flows=50, size_cap_bytes=10_000),
            engine="flow",
            seed=4,
        )
        arrivals = materialize_arrivals(spec, build_fluid_topology(spec))
        assert max(a.size_bytes for a in arrivals) <= 10_000
