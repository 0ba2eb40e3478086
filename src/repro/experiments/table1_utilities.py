"""Table 1: utility functions for the supported allocation objectives.

For each objective the harness solves a small canonical scenario with the
corresponding utility functions and reports the resulting allocation next to
the analytically expected one, demonstrating that the utility encodes the
intended policy.  Every row is one explicit-workload scenario spec solved
by the Oracle (``solve_num`` pools the groups itself where they are
present); all five specs run as one sweep through
:func:`repro.sweep.run_sweep` -- serially by default, over worker
processes with ``mode="sharded"``.
"""

from __future__ import annotations

from repro.core.bandwidth_function import fig2_flow1, fig2_flow2, single_link_allocation
from repro.core.utility import (
    AlphaFairUtility,
    BandwidthFunctionUtility,
    FctUtility,
    LogUtility,
    WeightedAlphaFairUtility,
)
from repro.results import ExperimentResult
from repro.scenarios.build import (
    FlowSpec,
    GroupSpec,
    explicit_links_topology,
    explicit_workload,
    oracle_scheme,
    per_flow_objective,
    single_link_topology,
)
from repro.scenarios.spec import ScenarioSpec, TopologySpec
from repro.sweep import run_sweep, tasks_from_specs


def _table1_spec(name: str, topology: TopologySpec, flows, groups=()) -> ScenarioSpec:
    """One canonical explicit scenario, solved by the Oracle."""
    return ScenarioSpec(
        name=f"table1/{name}",
        description=f"Table 1 canonical scenario: {name}",
        paper_reference="Table 1",
        topology=topology,
        workload=explicit_workload(flows, groups),
        scheme=oracle_scheme(),
        objective=per_flow_objective(),
        engine="fluid",
    )


def run_table1_allocations(
    capacity: float = 10e9,
    mode: str = "serial",
    cache=None,
    workers=None,
) -> ExperimentResult:
    """Solve one canonical scenario per Table 1 row and report the allocation.

    Every row is a reference cell (there is nothing meaningful to degrade
    to), so a failed cell escalates in either mode.
    """
    result = ExperimentResult(
        experiment_id="table1",
        title="Allocation objectives expressed as utility functions",
        paper_reference="Table 1",
    )

    specs = [
        _table1_spec(
            "alpha-fairness",
            single_link_topology(capacity),
            [FlowSpec(i, ("link",), AlphaFairUtility(alpha=1.0)) for i in range(4)],
        ),
        _table1_spec(
            "weighted-alpha-fairness",
            single_link_topology(capacity),
            [
                FlowSpec(i, ("link",), WeightedAlphaFairUtility(weight=weight, alpha=1.0))
                for i, weight in enumerate([1.0, 2.0, 5.0])
            ],
        ),
        _table1_spec(
            "fct-minimization",
            single_link_topology(capacity),
            [
                FlowSpec("short", ("link",), FctUtility(flow_size=10e3)),
                FlowSpec("long", ("link",), FctUtility(flow_size=10e6)),
            ],
        ),
        _table1_spec(
            "resource-pooling",
            explicit_links_topology({"p1": 4e9, "p2": 6e9}),
            [
                FlowSpec("sub1", ("p1",), LogUtility(), group_id="g"),
                FlowSpec("sub2", ("p2",), LogUtility(), group_id="g"),
            ],
            groups=[GroupSpec("g", LogUtility(), members=("sub1", "sub2"))],
        ),
        _table1_spec(
            "bandwidth-functions",
            single_link_topology(25e9),
            [
                FlowSpec("f1", ("link",), BandwidthFunctionUtility(fig2_flow1(), alpha=5.0)),
                FlowSpec("f2", ("link",), BandwidthFunctionUtility(fig2_flow2(), alpha=5.0)),
            ],
        ),
    ]
    tasks = tasks_from_specs(
        specs, axes=[{"objective": spec.name.split("/", 1)[1]} for spec in specs]
    )
    report = run_sweep(tasks, mode=mode, cache=cache, workers=workers)
    report.raise_on_failure()
    allocations = [run.artifacts["final_rates"] for run in report.results]

    # Row 1: alpha-fairness (alpha = 1, proportional fairness) -- equal split.
    rates = allocations[0]
    result.add_row(
        objective="alpha-fairness (alpha=1)",
        scenario="4 flows, one link",
        expected="equal split (2.5 Gbps each)",
        achieved_gbps=[round(rates[i] / 1e9, 3) for i in range(4)],
    )

    # Row 2: weighted alpha-fairness -- split proportional to weights.
    rates = allocations[1]
    result.add_row(
        objective="weighted alpha-fairness",
        scenario="weights 1:2:5, one link",
        expected="1.25 / 2.5 / 6.25 Gbps",
        achieved_gbps=[round(rates[i] / 1e9, 3) for i in range(3)],
    )

    # Row 3: FCT minimization -- the short flow preempts the long one.
    rates = allocations[2]
    result.add_row(
        objective="minimize FCT (1/s weights)",
        scenario="10 KB vs 10 MB flow",
        expected="short flow gets (nearly) the whole link",
        achieved_gbps=[round(rates["short"] / 1e9, 3), round(rates["long"] / 1e9, 3)],
    )

    # Row 4: resource pooling -- aggregate utility over two paths.
    rates = allocations[3]
    result.add_row(
        objective="resource pooling",
        scenario="one flow, two paths of 4 and 6 Gbps",
        expected="aggregate 10 Gbps across both paths",
        achieved_gbps=[round((rates["sub1"] + rates["sub2"]) / 1e9, 3)],
    )

    # Row 5: bandwidth functions -- the Fig. 2 allocation at 25 Gbps.
    _, expected = single_link_allocation([fig2_flow1(), fig2_flow2()], 25e9)
    rates = allocations[4]
    result.add_row(
        objective="bandwidth functions",
        scenario="Fig. 2 flows on a 25 Gbps link",
        expected=f"{expected[0] / 1e9:.0f} / {expected[1] / 1e9:.0f} Gbps",
        achieved_gbps=[round(rates["f1"] / 1e9, 3), round(rates["f2"] / 1e9, 3)],
    )
    return result
