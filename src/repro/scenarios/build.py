"""Composable builders for scenario specs.

Small, named constructors for every topology/workload/scheme/objective the
runner understands, so scenario definitions read as one declarative
expression::

    spec = ScenarioSpec(
        name="websearch-deviation",
        topology=leaf_spine_topology(num_servers=16),
        workload=poisson_workload("websearch", load=0.4, num_flows=120),
        scheme=scheme("NUMFabric"),
        engine="flow",
    )
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional, Sequence, Tuple

from repro.core.utility import Utility
from repro.scenarios.spec import ObjectiveSpec, SchemeSpec, TopologySpec, WorkloadSpec

# -- topologies -------------------------------------------------------------


def leaf_spine_topology(
    num_servers: int = 128,
    num_leaves: int = 8,
    num_spines: int = 4,
    edge_link_rate: float = 10e9,
    core_link_rate: float = 40e9,
) -> TopologySpec:
    """The paper's leaf-spine fabric (fluid and packet realizations)."""
    return TopologySpec(
        "leaf_spine",
        {
            "num_servers": num_servers,
            "num_leaves": num_leaves,
            "num_spines": num_spines,
            "edge_link_rate": edge_link_rate,
            "core_link_rate": core_link_rate,
        },
    )


def fat_tree_topology(
    k: int = 4,
    edge_link_rate: float = 10e9,
    aggregation_link_rate: float = 40e9,
    core_link_rate: float = 40e9,
) -> TopologySpec:
    """A k-ary fat-tree (fluid realization; ``k^3/4`` hosts)."""
    return TopologySpec(
        "fat_tree",
        {
            "k": k,
            "edge_link_rate": edge_link_rate,
            "aggregation_link_rate": aggregation_link_rate,
            "core_link_rate": core_link_rate,
        },
    )


def single_link_topology(capacity: float = 10e9) -> TopologySpec:
    """One shared bottleneck link (fluid ``link``; packet dumbbell)."""
    return TopologySpec("single_link", {"capacity": capacity})


def dumbbell_topology(
    num_pairs: int = 6,
    bottleneck_rate: float = 10e9,
    access_rate: Optional[float] = None,
) -> TopologySpec:
    """Senders -> bottleneck -> receivers (packet engine; fluid: one link)."""
    return TopologySpec(
        "dumbbell",
        {
            "num_pairs": num_pairs,
            "bottleneck_rate": bottleneck_rate,
            "access_rate": access_rate,
        },
    )


def two_path_topology(
    top_capacity: float = 5e9,
    middle_capacity: float = 5e9,
    bottom_capacity: float = 3e9,
) -> TopologySpec:
    """The Fig. 10 topology: two private links plus a shared middle link."""
    return TopologySpec(
        "two_path",
        {
            "top_capacity": top_capacity,
            "middle_capacity": middle_capacity,
            "bottom_capacity": bottom_capacity,
        },
    )


def star_topology(num_links: int = 6, capacity: float = 10e9) -> TopologySpec:
    """A bundle of parallel links flows are spread over (Fig. 6 sweeps)."""
    return TopologySpec("star", {"num_links": num_links, "capacity": capacity})


def parking_lot_topology(n_hops: int = 2, capacity: float = 10e9) -> TopologySpec:
    """A chain of ``n_hops`` equal links (unit studies)."""
    return TopologySpec("parking_lot", {"n_hops": n_hops, "capacity": capacity})


def explicit_links_topology(capacities: dict) -> TopologySpec:
    """A literal ``link -> capacity`` map (pair with an explicit workload)."""
    return TopologySpec("explicit_links", {"capacities": dict(capacities)})


# -- workloads --------------------------------------------------------------


def poisson_workload(
    workload: str = "websearch",
    load: float = 0.4,
    num_flows: int = 120,
    link_rate: Optional[float] = None,
    num_servers: Optional[int] = None,
    size_cap_bytes: Optional[int] = None,
    seed: Optional[int] = None,
) -> WorkloadSpec:
    """Poisson arrivals with web-search/enterprise sizes at a target load.

    ``num_servers``/``link_rate`` default to the topology's values;
    ``seed`` defaults to the scenario's seed.
    """
    return WorkloadSpec(
        "poisson",
        {
            "workload": workload,
            "load": load,
            "num_flows": num_flows,
            "link_rate": link_rate,
            "num_servers": num_servers,
            "size_cap_bytes": size_cap_bytes,
            "seed": seed,
        },
    )


def hotspot_workload(
    workload: str = "websearch",
    load: float = 0.4,
    num_flows: int = 120,
    hot_fraction: float = 0.5,
    num_hot: int = 2,
    hot_servers: Optional[Sequence[int]] = None,
    link_rate: Optional[float] = None,
    seed: Optional[int] = None,
) -> WorkloadSpec:
    """Poisson arrivals skewed toward a hot destination set."""
    return WorkloadSpec(
        "hotspot",
        {
            "workload": workload,
            "load": load,
            "num_flows": num_flows,
            "hot_fraction": hot_fraction,
            "num_hot": num_hot,
            "hot_servers": tuple(hot_servers) if hot_servers is not None else None,
            "link_rate": link_rate,
            "seed": seed,
        },
    )


def incast_workload(
    num_senders: int = 8,
    receiver: int = 0,
    response_bytes: int = 20_000,
    waves: int = 3,
    wave_interval: float = 1e-3,
    jitter: float = 0.0,
    size_distribution: Optional[Any] = None,
    num_servers: Optional[int] = None,
    seed: Optional[int] = None,
) -> WorkloadSpec:
    """Synchronized N-to-1 fan-in waves.

    ``size_distribution`` (a distribution object or ``"websearch"`` /
    ``"enterprise"``) overrides the fixed ``response_bytes``;
    ``num_servers`` overrides the topology's server count (required on
    topologies without endpoints).
    """
    return WorkloadSpec(
        "incast",
        {
            "num_senders": num_senders,
            "receiver": receiver,
            "response_bytes": response_bytes,
            "waves": waves,
            "wave_interval": wave_interval,
            "jitter": jitter,
            "size_distribution": size_distribution,
            "num_servers": num_servers,
            "seed": seed,
        },
    )


def trace_workload(trace: Any) -> WorkloadSpec:
    """Replay a recorded schedule: a path, inline CSV/JSONL text, or lines."""
    return WorkloadSpec("trace", {"trace": trace})


def semidynamic_workload(
    num_paths: int = 200,
    flows_per_event: int = 20,
    min_active: int = 60,
    max_active: int = 100,
    num_events: int = 5,
    seed: Optional[int] = None,
) -> WorkloadSpec:
    """The paper's semi-dynamic start/stop event scenario (Sec. 6.1)."""
    return WorkloadSpec(
        "semidynamic",
        {
            "num_paths": num_paths,
            "flows_per_event": flows_per_event,
            "min_active": min_active,
            "max_active": max_active,
            "num_events": num_events,
            "seed": seed,
        },
    )


def permutation_workload(
    subflows_per_pair: int = 1,
    pooling: bool = False,
    seed: Optional[int] = None,
) -> WorkloadSpec:
    """Permutation pairs with multipath sub-flows (Fig. 8, Sec. 6.3)."""
    return WorkloadSpec(
        "permutation",
        {"subflows_per_pair": subflows_per_pair, "pooling": pooling, "seed": seed},
    )


def fanout_workload(
    num_flows: int,
    departures: Sequence[Tuple[int, Sequence[Hashable]]] = (),
) -> WorkloadSpec:
    """``num_flows`` persistent flows, one per sender/receiver pair.

    ``departures`` is a schedule of ``(step, flow_ids)`` batches removed
    just before that fluid iteration (Fig. 4(b)/(c)'s network event).
    """
    return WorkloadSpec(
        "fanout",
        {
            "num_flows": num_flows,
            "departures": tuple((step, tuple(ids)) for step, ids in departures),
        },
    )


def star_spread_workload(num_flows: int = 20) -> WorkloadSpec:
    """Flows deterministically spread over a star topology's links (Fig. 6)."""
    return WorkloadSpec("star_spread", {"num_flows": num_flows})


@dataclass(frozen=True)
class FlowSpec:
    """One explicit flow: id, fluid path and utility (optionally grouped)."""

    flow_id: Hashable
    path: Tuple[Hashable, ...]
    utility: Utility
    group_id: Optional[Hashable] = None


@dataclass(frozen=True)
class GroupSpec:
    """One explicit flow group (resource pooling): id, aggregate utility."""

    group_id: Hashable
    utility: Utility
    members: Optional[Tuple[Hashable, ...]] = None


def explicit_workload(
    flows: Iterable[FlowSpec], groups: Iterable[GroupSpec] = ()
) -> WorkloadSpec:
    """Literal flow (and group) lists -- the escape hatch for unit scenarios."""
    return WorkloadSpec("explicit", {"flows": tuple(flows), "groups": tuple(groups)})


# -- schemes and objectives -------------------------------------------------


def scheme(name: str = "NUMFabric", params: Optional[Any] = None) -> SchemeSpec:
    """A named scheme (NUMFabric, DGD, RCP*, DCTCP, pFabric) with parameters."""
    return SchemeSpec(name=name, params=params)


def oracle_scheme() -> SchemeSpec:
    """The centralized NUM Oracle (exact optimal rates)."""
    return SchemeSpec(name="Oracle")


def log_objective() -> ObjectiveSpec:
    """Proportional fairness (the default)."""
    return ObjectiveSpec("log")


def alpha_fair_objective(alpha: float) -> ObjectiveSpec:
    """Alpha-fairness; ``alpha == 1`` collapses to proportional fairness."""
    if alpha == 1.0:
        return ObjectiveSpec("log")
    return ObjectiveSpec("alpha", {"alpha": alpha})


def fct_objective(epsilon: float = 0.125) -> ObjectiveSpec:
    """The FCT-minimizing ``x^(1-eps)/s`` utility, sized per flow."""
    return ObjectiveSpec("fct", {"epsilon": epsilon})


def per_flow_objective() -> ObjectiveSpec:
    """Utilities are supplied by the (explicit) workload itself."""
    return ObjectiveSpec("per_flow")
