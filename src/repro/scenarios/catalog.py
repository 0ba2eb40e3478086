"""The scenario catalog: spec factories plus the name-based registry.

Two layers:

* **Spec factories** (``fig5_deviation_spec`` & co.): parameterized
  constructors the experiment harnesses call with their own settings, so a
  figure's scenario is defined exactly once.
* **The registry** (:data:`SCENARIOS`): named, ready-to-run scenarios --
  every figure's setup plus the new families the paper never ran
  (fat-tree, incast, hotspot, trace replay) -- each with a ``toy`` scale
  (seconds) and, where meaningful, a ``paper`` scale.  The ``python -m
  repro`` CLI, the examples and the smoke suite all drive this registry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bandwidth_function import fig2_flow1, fig2_flow2
from repro.core.config import NumFabricParameters
from repro.core.utility import BandwidthFunctionUtility, LogUtility
from repro.scenarios.build import (
    FlowSpec,
    GroupSpec,
    alpha_fair_objective,
    dumbbell_topology,
    explicit_workload,
    fanout_workload,
    fat_tree_topology,
    fct_objective,
    hotspot_workload,
    incast_workload,
    leaf_spine_topology,
    per_flow_objective,
    permutation_workload,
    poisson_workload,
    scheme,
    semidynamic_workload,
    single_link_topology,
    star_spread_workload,
    star_topology,
    trace_workload,
    two_path_topology,
)
from repro.scenarios.faults import (
    CapacityRamp,
    ControlPlaneFault,
    FluctuatingCapacity,
    LinkDegrade,
    LinkFail,
    LinkFlap,
    LinkRestore,
    fault_plan,
)
from repro.scenarios.spec import ScenarioSpec

# -- spec factories shared with the experiment harnesses --------------------


def semidynamic_convergence_spec(
    scheme_name: str = "NUMFabric",
    num_servers: int = 32,
    num_leaves: int = 4,
    num_spines: int = 4,
    num_paths: int = 200,
    flows_per_event: int = 20,
    min_active: int = 60,
    max_active: int = 100,
    num_events: int = 5,
    max_iterations: int = 300,
    seed: int = 1,
) -> ScenarioSpec:
    """Fig. 4(a): per-event convergence in the semi-dynamic scenario."""
    return ScenarioSpec(
        name=f"fig4/semidynamic-{scheme_name}",
        description="Per-event convergence time after semi-dynamic start/stop events",
        paper_reference="Figure 4(a)",
        topology=leaf_spine_topology(
            num_servers=num_servers, num_leaves=num_leaves, num_spines=num_spines
        ),
        workload=semidynamic_workload(
            num_paths=num_paths,
            flows_per_event=flows_per_event,
            min_active=min_active,
            max_active=max_active,
            num_events=num_events,
        ),
        scheme=scheme(scheme_name),
        engine="fluid",
        seed=seed,
        sizing={"max_iterations": max_iterations},
    )


def single_link_churn_spec(
    scheme_name: str = "NUMFabric",
    num_flows: int = 20,
    link_capacity: float = 10e9,
    iterations: int = 400,
    change_at: int = 200,
) -> ScenarioSpec:
    """Fig. 4(b)/(c): one bottleneck, half the flows leave mid-run."""
    departures = [(change_at, tuple(range(num_flows // 2, num_flows)))]
    return ScenarioSpec(
        name=f"fig4/single-link-{scheme_name}",
        description="Rate of a typical flow across a mid-run departure event",
        paper_reference="Figure 4(b), 4(c)",
        topology=single_link_topology(capacity=link_capacity),
        workload=fanout_workload(num_flows, departures=departures),
        scheme=scheme(scheme_name),
        engine="fluid",
        sizing={"iterations": iterations, "record_timeseries": True},
    )


def deviation_spec(
    scheme_name: str = "NUMFabric",
    workload: str = "websearch",
    num_servers: int = 16,
    num_leaves: int = 4,
    num_spines: int = 2,
    load: float = 0.4,
    num_flows: int = 120,
    seed: int = 7,
) -> ScenarioSpec:
    """Fig. 5: Poisson arrivals at flow level, rates vs the Oracle's."""
    return ScenarioSpec(
        name=f"fig5/{workload}-{scheme_name}",
        description=f"Flow-level {workload} workload under {scheme_name}",
        paper_reference="Figure 5",
        topology=leaf_spine_topology(
            num_servers=num_servers, num_leaves=num_leaves, num_spines=num_spines
        ),
        workload=poisson_workload(workload, load=load, num_flows=num_flows),
        scheme=scheme(scheme_name),
        engine="flow",
        engines=("flow", "fluid"),
        seed=seed,
    )


def star_convergence_spec(
    alpha: float = 1.0,
    params: Optional[NumFabricParameters] = None,
    num_flows: int = 20,
    num_links: int = 6,
    capacity: float = 10e9,
    max_iterations: int = 400,
) -> ScenarioSpec:
    """Fig. 6(b)/(c): fluid xWI convergence on a multi-bottleneck star."""
    return ScenarioSpec(
        name=f"fig6/star-alpha-{alpha:g}",
        description="Fluid xWI convergence time on a multi-bottleneck star",
        paper_reference="Figure 6(b), 6(c)",
        topology=star_topology(num_links=num_links, capacity=capacity),
        workload=star_spread_workload(num_flows),
        scheme=scheme("NUMFabric", params=params),
        objective=alpha_fair_objective(alpha),
        engine="fluid",
        sizing={"iterations": max_iterations, "measure": "convergence"},
    )


def delay_slack_spec(
    params: Optional[NumFabricParameters] = None,
    num_flows: int = 3,
    link_rate: float = 1e9,
    duration: float = 0.02,
) -> ScenarioSpec:
    """Fig. 6(a): packet-level convergence/queueing vs Swift's delay slack."""
    return ScenarioSpec(
        name="fig6/delay-slack",
        description="Packet-level convergence and queueing under Swift's delay slack",
        paper_reference="Figure 6(a)",
        topology=single_link_topology(capacity=link_rate),
        workload=fanout_workload(num_flows),
        scheme=scheme("NUMFabric", params=params),
        engine="packet",
        sizing={"duration": duration},
    )


def dumbbell_fct_spec(
    scheme_name: str = "NUMFabric",
    num_pairs: int = 6,
    link_rate: float = 1e9,
    load: float = 0.4,
    num_flows: int = 60,
    max_flow_bytes: int = 300_000,
    seed: int = 11,
    epsilon: float = 0.125,
    baseline_rtt: float = 50e-6,
    params: Optional[object] = None,
    drain: float = 0.5,
) -> ScenarioSpec:
    """Fig. 7: packet-level FCT comparison on a scaled-down dumbbell."""
    return ScenarioSpec(
        name=f"fig7/dumbbell-{scheme_name}",
        description=f"Packet-level web-search FCTs under {scheme_name}",
        paper_reference="Figure 7",
        topology=dumbbell_topology(num_pairs=num_pairs, bottleneck_rate=link_rate),
        workload=poisson_workload(
            "websearch",
            load=load,
            num_flows=num_flows,
            link_rate=link_rate,
            num_servers=num_pairs,
            size_cap_bytes=max_flow_bytes,
        ),
        scheme=scheme(scheme_name, params=params),
        objective=fct_objective(epsilon),
        engine="packet",
        engines=("packet", "flow"),
        seed=seed,
        sizing={"baseline_rtt": baseline_rtt, "drain": drain},
    )


def flow_level_fct_spec(
    utility_kind: str = "fct",
    num_servers: int = 16,
    num_leaves: int = 4,
    num_spines: int = 2,
    load: float = 0.4,
    num_flows: int = 120,
    seed: int = 11,
    epsilon: float = 0.125,
) -> ScenarioSpec:
    """Fig. 7 (flow-level companion): FCT utility vs proportional fairness."""
    objective = fct_objective(epsilon) if utility_kind == "fct" else alpha_fair_objective(1.0)
    return ScenarioSpec(
        name=f"fig7/flow-level-{utility_kind}",
        description="Flow-level web-search FCTs, FCT utility vs proportional fairness",
        paper_reference="Figure 7 (flow-level companion)",
        topology=leaf_spine_topology(
            num_servers=num_servers, num_leaves=num_leaves, num_spines=num_spines
        ),
        workload=poisson_workload("websearch", load=load, num_flows=num_flows),
        scheme=scheme("NUMFabric"),
        objective=objective,
        engine="flow",
        seed=seed,
    )


def resource_pooling_spec(
    subflows_per_pair: int = 1,
    pooling: bool = False,
    num_servers: int = 32,
    num_leaves: int = 4,
    num_spines: int = 4,
    iterations: int = 120,
    seed: int = 2,
) -> ScenarioSpec:
    """Fig. 8: permutation traffic with multipath sub-flows."""
    return ScenarioSpec(
        name=f"fig8/permutation-x{subflows_per_pair}{'-pooled' if pooling else ''}",
        description="Permutation traffic with multipath sub-flows (resource pooling)",
        paper_reference="Figure 8(a), 8(b)",
        topology=leaf_spine_topology(
            num_servers=num_servers, num_leaves=num_leaves, num_spines=num_spines
        ),
        workload=permutation_workload(subflows_per_pair=subflows_per_pair, pooling=pooling),
        scheme=scheme("NUMFabric"),
        engine="fluid",
        seed=seed,
        sizing={"iterations": iterations},
    )


def bandwidth_function_spec(
    capacity: float = 25e9, alpha: float = 5.0, iterations: int = 150
) -> ScenarioSpec:
    """Fig. 9: the two Fig. 2 bandwidth functions on one variable link."""
    flows = (
        FlowSpec("flow1", ("link",), BandwidthFunctionUtility(fig2_flow1(), alpha)),
        FlowSpec("flow2", ("link",), BandwidthFunctionUtility(fig2_flow2(), alpha)),
    )
    return ScenarioSpec(
        name="fig9/bandwidth-functions",
        description="Bandwidth-function allocation on a single variable-capacity link",
        paper_reference="Figure 9",
        topology=single_link_topology(capacity=capacity),
        workload=explicit_workload(flows),
        scheme=scheme("NUMFabric"),
        objective=per_flow_objective(),
        engine="fluid",
        sizing={"iterations": iterations},
    )


def bwfunction_pooling_spec(
    iterations_per_phase: int = 120,
    initial_middle_gbps: float = 5.0,
    final_middle_gbps: float = 17.0,
    alpha: float = 5.0,
) -> ScenarioSpec:
    """Fig. 10: bandwidth functions + pooling across a capacity change."""
    groups = (
        GroupSpec("flow1", BandwidthFunctionUtility(fig2_flow1(), alpha)),
        GroupSpec("flow2", BandwidthFunctionUtility(fig2_flow2(), alpha)),
    )
    flows = (
        FlowSpec("flow1_private", ("top",), LogUtility(), group_id="flow1"),
        FlowSpec("flow1_shared", ("middle",), LogUtility(), group_id="flow1"),
        FlowSpec("flow2_private", ("bottom",), LogUtility(), group_id="flow2"),
        FlowSpec("flow2_shared", ("middle",), LogUtility(), group_id="flow2"),
    )
    return ScenarioSpec(
        name="fig10/bwfunction-pooling",
        description="Bandwidth functions + resource pooling across a capacity change",
        paper_reference="Figure 10",
        topology=two_path_topology(
            top_capacity=5e9,
            middle_capacity=initial_middle_gbps * 1e9,
            bottom_capacity=3e9,
        ),
        workload=explicit_workload(flows, groups),
        scheme=scheme("NUMFabric"),
        objective=per_flow_objective(),
        engine="fluid",
        sizing={
            "iterations": 2 * iterations_per_phase,
            "record_timeseries": True,
            "capacity_schedule": ((iterations_per_phase, "middle", final_middle_gbps * 1e9),),
        },
    )


def fat_tree_poisson_spec(
    k: int = 4,
    workload: str = "websearch",
    load: float = 0.3,
    num_flows: int = 60,
    seed: int = 3,
) -> ScenarioSpec:
    """NEW: Poisson traffic on a k-ary fat-tree (topology the paper never ran)."""
    return ScenarioSpec(
        name="fattree/websearch",
        description=f"Poisson {workload} workload on a k={k} fat-tree",
        topology=fat_tree_topology(k=k),
        workload=poisson_workload(workload, load=load, num_flows=num_flows),
        scheme=scheme("NUMFabric"),
        engine="flow",
        engines=("flow", "fluid"),
        seed=seed,
    )


def incast_spec(
    num_servers: int = 16,
    num_leaves: int = 4,
    num_spines: int = 2,
    num_senders: int = 8,
    response_bytes: int = 30_000,
    waves: int = 3,
    wave_interval: float = 1e-3,
    seed: int = 4,
    drain: float = 0.1,
) -> ScenarioSpec:
    """NEW: synchronized N-to-1 incast waves on the leaf-spine fabric."""
    return ScenarioSpec(
        name="incast/leaf-spine",
        description=f"{num_senders}-to-1 incast waves on a leaf-spine fabric",
        topology=leaf_spine_topology(
            num_servers=num_servers, num_leaves=num_leaves, num_spines=num_spines
        ),
        workload=incast_workload(
            num_senders=num_senders,
            receiver=0,
            response_bytes=response_bytes,
            waves=waves,
            wave_interval=wave_interval,
        ),
        scheme=scheme("NUMFabric"),
        engine="flow",
        engines=("flow", "fluid", "packet"),
        seed=seed,
        sizing={"drain": drain},
    )


def hotspot_spec(
    num_servers: int = 16,
    num_leaves: int = 4,
    num_spines: int = 2,
    workload: str = "websearch",
    load: float = 0.4,
    num_flows: int = 80,
    hot_fraction: float = 0.6,
    num_hot: int = 2,
    seed: int = 6,
) -> ScenarioSpec:
    """NEW: Poisson arrivals skewed toward a hot destination set."""
    return ScenarioSpec(
        name="hotspot/leaf-spine",
        description=f"Skewed Poisson traffic ({hot_fraction:.0%} to {num_hot} hot servers)",
        topology=leaf_spine_topology(
            num_servers=num_servers, num_leaves=num_leaves, num_spines=num_spines
        ),
        workload=hotspot_workload(
            workload,
            load=load,
            num_flows=num_flows,
            hot_fraction=hot_fraction,
            num_hot=num_hot,
        ),
        scheme=scheme("NUMFabric"),
        engine="flow",
        engines=("flow", "fluid"),
        seed=seed,
    )


#: A tiny self-contained trace so the trace-replay scenario runs anywhere
#: (write your own CSV/JSONL with the same header to replay real schedules).
SAMPLE_TRACE = """\
flow_id,time,source,destination,size_bytes
0,0.0,1,0,60000
1,0.0001,2,0,45000
2,0.0002,3,7,150000
3,0.0004,4,2,30000
4,0.0006,5,0,90000
5,0.001,6,1,300000
6,0.0012,0,4,75000
7,0.0015,7,3,20000
"""


def trace_replay_spec(
    trace=SAMPLE_TRACE,
    num_servers: int = 8,
    num_leaves: int = 2,
    num_spines: int = 2,
) -> ScenarioSpec:
    """NEW: replay a recorded flow schedule (CSV/JSONL) through any engine."""
    return ScenarioSpec(
        name="trace/replay",
        description="Trace-driven arrivals replayed on a leaf-spine fabric",
        topology=leaf_spine_topology(
            num_servers=num_servers, num_leaves=num_leaves, num_spines=num_spines
        ),
        workload=trace_workload(trace),
        scheme=scheme("NUMFabric"),
        engine="flow",
        engines=("flow", "fluid"),
    )


def dumbbell_websearch_spec(
    num_pairs: int = 4,
    link_rate: float = 10e9,
    load: float = 0.3,
    num_flows: int = 24,
    size_cap_bytes: int = 100_000,
    seed: int = 5,
    drain: float = 0.2,
) -> ScenarioSpec:
    """One spec, three engines: a web-search dumbbell runnable everywhere."""
    return ScenarioSpec(
        name="unit/dumbbell-websearch",
        description="Web-search Poisson traffic on a dumbbell (all three engines)",
        topology=dumbbell_topology(num_pairs=num_pairs, bottleneck_rate=link_rate),
        workload=poisson_workload(
            "websearch",
            load=load,
            num_flows=num_flows,
            link_rate=link_rate,
            num_servers=num_pairs,
            size_cap_bytes=size_cap_bytes,
        ),
        scheme=scheme("NUMFabric"),
        engine="flow",
        engines=("flow", "fluid", "packet"),
        seed=seed,
        sizing={"drain": drain},
    )


# -- fault scenarios (adversarial families; see repro.scenarios.faults) -----


def midrun_link_failure_spec(
    num_servers: int = 16,
    num_leaves: int = 4,
    num_spines: int = 2,
    load: float = 0.4,
    num_flows: int = 30,
    seed: int = 9,
    iterations: int = 400,
    fail_at: float = 1.8e-3,
    restore_at: float = 3.6e-3,
    drain: float = 0.1,
) -> ScenarioSpec:
    """FAULT: a leaf uplink fails mid-run and is later restored (all engines)."""
    return ScenarioSpec(
        name="fault/midrun-link-failure",
        description="Leaf uplink fails mid-run, then restores (re-convergence)",
        topology=leaf_spine_topology(
            num_servers=num_servers, num_leaves=num_leaves, num_spines=num_spines
        ),
        workload=poisson_workload("websearch", load=load, num_flows=num_flows),
        scheme=scheme("NUMFabric"),
        engine="fluid",
        engines=("fluid", "flow", "packet"),
        seed=seed,
        faults=fault_plan(
            LinkFail(("up", 0, 0), at=fail_at),
            LinkRestore(("up", 0, 0), at=restore_at),
        ),
        sizing={"iterations": iterations, "drain": drain},
    )


def flapping_spine_spec(
    num_servers: int = 16,
    num_leaves: int = 4,
    num_spines: int = 2,
    load: float = 0.4,
    num_flows: int = 30,
    seed: int = 10,
    iterations: int = 240,
    start: float = 1.2e-3,
    end: float = 3.0e-3,
    period: float = 0.6e-3,
) -> ScenarioSpec:
    """FAULT: one leaf uplink flaps (down half of every period), then settles."""
    return ScenarioSpec(
        name="fault/flapping-spine",
        description="A leaf uplink flaps periodically before settling (fluid, flow)",
        topology=leaf_spine_topology(
            num_servers=num_servers, num_leaves=num_leaves, num_spines=num_spines
        ),
        workload=poisson_workload("websearch", load=load, num_flows=num_flows),
        scheme=scheme("NUMFabric"),
        engine="fluid",
        engines=("fluid", "flow"),
        seed=seed,
        faults=fault_plan(
            LinkFlap(
                ("up", 0, 1), start=start, end=end, period=period,
                down_fraction=0.5, down_factor=0.0,
            ),
        ),
        sizing={"iterations": iterations},
    )


def wireless_bottleneck_spec(
    capacity: float = 10e9,
    load: float = 0.4,
    num_flows: int = 24,
    num_servers: int = 4,
    seed: int = 12,
    iterations: int = 240,
    start: float = 0.9e-3,
    end: float = 3.0e-3,
    interval: float = 0.3e-3,
) -> ScenarioSpec:
    """FAULT: the bottleneck capacity fluctuates like a wireless channel."""
    return ScenarioSpec(
        name="fault/wireless-bottleneck",
        description="Stochastically fluctuating bottleneck capacity (wireless-like)",
        topology=single_link_topology(capacity=capacity),
        workload=poisson_workload(
            "websearch",
            load=load,
            num_flows=num_flows,
            link_rate=capacity,
            num_servers=num_servers,
        ),
        scheme=scheme("NUMFabric"),
        engine="fluid",
        engines=("fluid", "flow"),
        seed=seed,
        faults=fault_plan(
            FluctuatingCapacity(
                "link", start=start, end=end, interval=interval,
                mean_factor=0.6, sigma=0.2, floor_factor=0.1,
            ),
        ),
        sizing={"iterations": iterations},
    )


def degradation_ramp_spec(
    capacity: float = 1e9,
    num_flows: int = 3,
    iterations: int = 240,
    ramp_steps: int = 4,
    duration: float = 5e-3,
) -> ScenarioSpec:
    """FAULT: the shared link degrades to 30% in a linear ramp, then recovers."""
    return ScenarioSpec(
        name="fault/degradation-ramp",
        description="Gradual degradation to 30% capacity and a recovery ramp",
        topology=single_link_topology(capacity=capacity),
        workload=fanout_workload(num_flows),
        scheme=scheme("NUMFabric"),
        engine="fluid",
        engines=("fluid", "packet"),
        faults=fault_plan(
            CapacityRamp(
                "link", start=1.5e-3, end=2.2e-3,
                from_factor=1.0, to_factor=0.3, steps=ramp_steps,
            ),
            CapacityRamp(
                "link", start=3.0e-3, end=3.8e-3,
                from_factor=0.3, to_factor=1.0, steps=ramp_steps,
            ),
        ),
        sizing={"iterations": iterations, "duration": duration},
    )


def lossy_control_plane_spec(
    capacity: float = 10e9,
    num_flows: int = 6,
    iterations: int = 240,
    drop_probability: float = 0.3,
    seed: int = 13,
) -> ScenarioSpec:
    """FAULT: xWI price updates are dropped while the link degrades and heals."""
    return ScenarioSpec(
        name="fault/lossy-control-plane",
        description="Lossy price dissemination across a degradation window (xWI)",
        topology=single_link_topology(capacity=capacity),
        workload=fanout_workload(num_flows),
        scheme=scheme("NUMFabric"),
        engine="fluid",
        seed=seed,
        faults=fault_plan(
            LinkDegrade("link", at=1.2e-3, factor=0.5),
            LinkRestore("link", at=2.1e-3),
            ControlPlaneFault(start=0.9e-3, end=2.4e-3, drop_probability=drop_probability),
        ),
        sizing={"iterations": iterations},
    )


# -- the registry -----------------------------------------------------------


@dataclass(frozen=True)
class RegisteredScenario:
    """One named entry of the scenario registry."""

    name: str
    factory: Callable[..., ScenarioSpec]
    description: str
    engines: Tuple[str, ...]
    default_engine: str
    tags: Tuple[str, ...] = ()


SCENARIOS: Dict[str, RegisteredScenario] = {}


def register_scenario(
    name: str, factory: Callable[..., ScenarioSpec], tags: Sequence[str] = ()
) -> RegisteredScenario:
    """Register a scenario factory under a unique name.

    ``factory`` takes ``scale`` (``"toy"`` or ``"paper"``) and returns a
    :class:`ScenarioSpec`; a toy spec is built once here to capture the
    description and supported engines for listings.
    """
    if name in SCENARIOS:
        raise ValueError(f"scenario {name!r} already registered")
    probe = factory(scale="toy")
    entry = RegisteredScenario(
        name=name,
        factory=factory,
        description=probe.description,
        engines=probe.engines,
        default_engine=probe.engine,
        tags=tuple(tags),
    )
    SCENARIOS[name] = entry
    return entry


def get_scenario(name: str, scale: str = "toy") -> ScenarioSpec:
    """Build a registered scenario's spec at the requested scale.

    The returned spec carries the registry name, so result ids and
    ``artifacts["spec"].name`` match the name that was asked for (factories
    shared with the harnesses may use scheme-qualified internal names).
    """
    try:
        entry = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS)) or "(none)"
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from None
    if scale not in ("toy", "paper"):
        raise ValueError(f"unknown scale {scale!r}; use 'toy' or 'paper'")
    return replace(entry.factory(scale=scale), name=name)


def list_scenarios() -> List[RegisteredScenario]:
    """All registered scenarios, sorted by name."""
    return [SCENARIOS[name] for name in sorted(SCENARIOS)]


def _scaled(toy: Dict, paper: Dict) -> Callable[..., Dict]:
    def pick(scale: str) -> Dict:
        return dict(paper if scale == "paper" else toy)

    return pick


_FIG4A_SIZES = _scaled(
    toy=dict(
        num_servers=16, num_leaves=4, num_spines=2, num_paths=60,
        flows_per_event=10, min_active=20, max_active=40, num_events=2,
        max_iterations=150,
    ),
    paper=dict(
        num_servers=128, num_leaves=8, num_spines=4, num_paths=1000,
        flows_per_event=100, min_active=300, max_active=500, num_events=100,
    ),
)

register_scenario(
    "fig4/semidynamic-convergence",
    lambda scale="toy": semidynamic_convergence_spec(**_FIG4A_SIZES(scale)),
    tags=("paper", "convergence"),
)
register_scenario(
    "fig4/single-link-churn",
    lambda scale="toy": single_link_churn_spec(
        **(dict(num_flows=6, iterations=60, change_at=30) if scale == "toy" else {})
    ),
    tags=("paper", "convergence"),
)
_FIG5_SIZES = _scaled(
    toy=dict(num_servers=8, num_leaves=2, num_spines=2, num_flows=30),
    paper=dict(num_servers=128, num_leaves=8, num_spines=4, load=0.6, num_flows=10_000),
)
register_scenario(
    "fig5/websearch",
    lambda scale="toy": deviation_spec(workload="websearch", **_FIG5_SIZES(scale)),
    tags=("paper", "dynamic"),
)
register_scenario(
    "fig5/enterprise",
    lambda scale="toy": deviation_spec(workload="enterprise", **_FIG5_SIZES(scale)),
    tags=("paper", "dynamic"),
)
register_scenario(
    "fig6/star-alpha",
    lambda scale="toy": star_convergence_spec(
        alpha=2.0, **(dict(num_flows=10, max_iterations=200) if scale == "toy" else {})
    ),
    tags=("paper", "sensitivity"),
)
register_scenario(
    "fig6/delay-slack",
    lambda scale="toy": delay_slack_spec(
        params=NumFabricParameters(baseline_rtt=60e-6),
        duration=0.004 if scale == "toy" else 0.02,
    ),
    tags=("paper", "sensitivity", "packet"),
)
register_scenario(
    "fig7/dumbbell-fct",
    lambda scale="toy": dumbbell_fct_spec(
        params=NumFabricParameters(baseline_rtt=50e-6).slowed_down(2.0),
        **(dict(num_pairs=4, num_flows=16, drain=0.1) if scale == "toy" else {}),
    ),
    tags=("paper", "fct", "packet"),
)
register_scenario(
    "fig7/flow-level-fct",
    lambda scale="toy": flow_level_fct_spec(
        **(
            dict(num_servers=8, num_leaves=2, num_spines=2, num_flows=40)
            if scale == "toy"
            else dict(num_servers=128, num_leaves=8, num_spines=4, num_flows=10_000)
        )
    ),
    tags=("paper", "fct"),
)
register_scenario(
    "fig8/permutation-pooling",
    lambda scale="toy": resource_pooling_spec(
        subflows_per_pair=4,
        pooling=True,
        **(
            dict(num_servers=16, num_leaves=4, num_spines=2, iterations=50)
            if scale == "toy"
            else dict(num_servers=128, num_leaves=8, num_spines=16, iterations=200)
        ),
    ),
    tags=("paper", "pooling"),
)
register_scenario(
    "fig9/bandwidth-functions",
    lambda scale="toy": bandwidth_function_spec(
        iterations=120 if scale == "toy" else 150
    ),
    tags=("paper", "bandwidth-functions"),
)
register_scenario(
    "fig10/bwfunction-pooling",
    lambda scale="toy": bwfunction_pooling_spec(
        iterations_per_phase=80 if scale == "toy" else 120
    ),
    tags=("paper", "bandwidth-functions", "pooling"),
)
register_scenario(
    "unit/dumbbell-websearch",
    lambda scale="toy": dumbbell_websearch_spec(
        num_flows=24 if scale == "toy" else 200
    ),
    tags=("unit", "all-engines"),
)
register_scenario(
    "fattree/websearch",
    lambda scale="toy": fat_tree_poisson_spec(
        **(dict(k=4, num_flows=40) if scale == "toy" else dict(k=8, num_flows=2000))
    ),
    tags=("new", "fat-tree"),
)
register_scenario(
    "incast/leaf-spine",
    lambda scale="toy": incast_spec(
        **(
            dict(num_senders=8, waves=2)
            if scale == "toy"
            else dict(
                num_servers=128,
                num_leaves=8,
                num_spines=4,
                num_senders=64,
                waves=10,
                response_bytes=256_000,
            )
        )
    ),
    tags=("new", "incast", "all-engines"),
)
register_scenario(
    "hotspot/leaf-spine",
    lambda scale="toy": hotspot_spec(
        **(
            dict(num_flows=50)
            if scale == "toy"
            else dict(
                num_servers=128, num_leaves=8, num_spines=4, load=0.6, num_flows=5000
            )
        )
    ),
    tags=("new", "hotspot"),
)
register_scenario(
    "trace/replay",
    lambda scale="toy": trace_replay_spec(),
    tags=("new", "trace"),
)
register_scenario(
    "fault/midrun-link-failure",
    lambda scale="toy": midrun_link_failure_spec(
        **(
            {}
            if scale == "toy"
            else dict(
                num_servers=64, num_leaves=8, num_spines=4,
                num_flows=400, iterations=600,
            )
        )
    ),
    tags=("fault", "all-engines"),
)
register_scenario(
    "fault/flapping-spine",
    lambda scale="toy": flapping_spine_spec(
        **({} if scale == "toy" else dict(num_servers=64, num_leaves=8, num_spines=4,
                                          num_flows=400, iterations=600))
    ),
    tags=("fault",),
)
register_scenario(
    "fault/wireless-bottleneck",
    lambda scale="toy": wireless_bottleneck_spec(
        **({} if scale == "toy" else dict(num_flows=200, iterations=600))
    ),
    tags=("fault", "stochastic"),
)
register_scenario(
    "fault/degradation-ramp",
    lambda scale="toy": degradation_ramp_spec(
        **({} if scale == "toy" else dict(num_flows=12, iterations=600, duration=0.02))
    ),
    tags=("fault",),
)
register_scenario(
    "fault/lossy-control-plane",
    lambda scale="toy": lossy_control_plane_spec(
        **({} if scale == "toy" else dict(num_flows=40, iterations=600))
    ),
    tags=("fault", "control-plane"),
)
