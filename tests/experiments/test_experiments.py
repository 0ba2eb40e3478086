"""Smoke and shape tests for the experiment harnesses (tiny configurations)."""

import pytest

from repro.experiments import (
    format_table,
    run_bandwidth_function_sweep,
    run_bwfunction_pooling_timeseries,
    run_convergence_cdf,
    run_deviation_experiment,
    run_rate_timeseries,
    run_resource_pooling,
    run_table1_allocations,
    run_table2_parameters,
)
from repro.experiments.fig4_convergence import ConvergenceSettings
from repro.experiments.fig5_dynamic import DeviationSettings
from repro.experiments.fig7_fct import FlowLevelFctSettings, run_fct_flow_level
from repro.experiments.fig8_resource_pooling import ResourcePoolingSettings
from repro.results import ExperimentResult


class TestRegistry:
    def test_result_columns_and_str(self):
        result = ExperimentResult("x", "title")
        result.add_row(a=1, b=2.5)
        result.add_row(a=3)
        assert result.column("a") == [1, 3]
        assert result.column("b") == [2.5, None]
        rendered = str(result)
        assert "title" in rendered and "2.5" in rendered

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_ragged_rows(self):
        # Rows with mixed/missing columns: the header must show the union,
        # missing cells render as '-', and nothing raises.
        rows = [
            {"a": 1},
            {"b": 2.5},
            {"a": 3, "c": "x"},
        ]
        rendered = format_table(rows)
        header = rendered.splitlines()[0]
        for col in ("a", "b", "c"):
            assert col in header
        body = rendered.splitlines()[2:]
        assert len(body) == 3
        assert "-" in body[0]  # row 1 has no 'b'/'c'

    def test_format_table_all_empty_rows(self):
        # A column absent from every row (only empty dicts) must not crash
        # the width computation with max() on an empty sequence.
        assert format_table([{}, {}]) == "(no columns)"

    def test_format_table_column_only_in_header_position(self):
        # One wide column name, values narrower than the header everywhere.
        rows = [{"a_very_long_column_name": 1}, {}]
        rendered = format_table(rows)
        assert rendered.splitlines()[0].strip() == "a_very_long_column_name"
        assert rendered.splitlines()[2].startswith("1")
        assert rendered.splitlines()[3].strip() == "-"


class TestFig4:
    def test_convergence_cdf_tiny(self):
        settings = ConvergenceSettings(
            num_servers=16, num_leaves=4, num_spines=2, num_paths=60,
            flows_per_event=10, min_active=20, max_active=40, num_events=2,
            max_iterations=150,
        )
        result = run_convergence_cdf(settings)
        schemes = set(result.column("scheme"))
        assert schemes == {"NUMFabric", "DGD", "RCP*"}
        by = {row["scheme"]: row for row in result.rows}
        assert by["NUMFabric"]["median_us"] <= by["DGD"]["median_us"]

    def test_rate_timeseries_shapes(self):
        result = run_rate_timeseries(num_flows=6, iterations=40, change_at=20)
        assert len(result.rows) == 40
        assert result.rows[-1]["numfabric_rate_gbps"] == pytest.approx(
            result.rows[-1]["expected_rate_gbps"], rel=0.1
        )


class TestFig5:
    def test_websearch_small(self):
        settings = DeviationSettings(num_servers=8, num_leaves=2, num_spines=2, num_flows=25)
        result = run_deviation_experiment("websearch", settings, schemes=["NUMFabric"])
        assert all(row["scheme"] == "NUMFabric" for row in result.rows)
        assert len(result.rows) == 5  # one row per BDP bin

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_deviation_experiment("nonsense")


class TestFig7FlowLevel:
    def test_fct_utility_beats_proportional_fairness(self):
        settings = FlowLevelFctSettings(
            num_servers=8, num_leaves=2, num_spines=2, num_flows=60
        )
        result = run_fct_flow_level(loads=[0.4, 0.6], settings=settings)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["fct_utility_flows_completed"] == 60
            assert row["proportional_flows_completed"] == 60
            # The SRPT-like utility cannot do worse on average than fair sharing.
            assert row["ratio"] <= 1.0 + 1e-9


class TestFig8:
    def test_resource_pooling_small(self):
        settings = ResourcePoolingSettings(num_servers=16, num_leaves=4, num_spines=2,
                                           iterations=50)
        result = run_resource_pooling(subflow_counts=[1, 4], settings=settings)
        pooled = {row["subflows"]: row for row in result.rows if row["resource_pooling"]}
        assert pooled[4]["total_throughput_pct"] >= pooled[1]["total_throughput_pct"] - 1e-6


class TestFig9And10:
    def test_bandwidth_function_sweep_matches_expectation(self):
        result = run_bandwidth_function_sweep(capacities_gbps=[10, 25], iterations=120)
        by_capacity = {row["capacity_gbps"]: row for row in result.rows}
        assert by_capacity[25]["numfabric_flow1_gbps"] == pytest.approx(15.0, rel=0.05)
        assert by_capacity[25]["numfabric_flow2_gbps"] == pytest.approx(10.0, rel=0.05)

    def test_pooling_timeseries_final_allocation(self):
        result = run_bwfunction_pooling_timeseries(iterations_per_phase=80, record_every=20)
        final = result.rows[-1]
        assert final["flow1_gbps"] == pytest.approx(15.0, rel=0.1)
        assert final["flow2_gbps"] == pytest.approx(10.0, rel=0.1)


class TestTables:
    def test_table1_has_all_objectives(self):
        result = run_table1_allocations()
        assert len(result.rows) == 5

    def test_table2_contains_numfabric_defaults(self):
        result = run_table2_parameters()
        values = {(r["scheme"], r["parameter"]): r["value"] for r in result.rows}
        assert values[("NUMFabric", "eta")] == 5.0
        assert values[("NUMFabric", "beta")] == 0.5
