"""Fluid-level network description: links, flows and multipath flow groups.

The fluid engine works on an abstract view of the network: a set of
capacitated links and a set of flows, each traversing an ordered list of
links and carrying a utility function.  Multipath (resource-pooling) traffic
is expressed with :class:`FlowGroup`: the member sub-flows share a single
utility defined on their aggregate rate (Table 1, fourth row).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.core.utility import LogUtility, Utility

LinkId = Hashable
FlowId = Hashable

#: How many churn events the network retains for incremental consumers
#: (:meth:`FluidNetwork.churn_since`).  A compiled view lagging further
#: behind than this simply recompiles from scratch.
_JOURNAL_LIMIT = 256

#: Process-wide count of ``FluidFlow.utility`` *rebinds* (a flow's first
#: binding, at construction, is read when the flow is compiled in).
#: Compiled views compare it with the value they last scanned at, so a step
#: on which no utility anywhere was rebound -- arrivals included -- skips
#: the O(flows) identity scan.  A witness only: it never decreases, and a
#: stale comparison costs one scan, not a wrong answer.
_utility_bindings = 0


@dataclass(slots=True)
class FluidFlow:
    """A unidirectional flow (or sub-flow) traversing a fixed path of links.

    ``utility`` may be rebound to a different instance between iterations
    (the compiled snapshot picks that up), but treat utility objects
    themselves as immutable: the fluid engine batches their parameters at
    compile time and cannot observe in-place mutation.
    """

    flow_id: FlowId
    path: Tuple[LinkId, ...]
    utility: Utility = field(default_factory=LogUtility)
    group_id: Optional[Hashable] = None

    def __setattr__(self, name: str, value: object) -> None:
        if name == "utility" and hasattr(self, "utility"):
            global _utility_bindings
            _utility_bindings += 1
        object.__setattr__(self, name, value)

    def __post_init__(self) -> None:
        self.path = tuple(self.path)
        if not self.path:
            raise ValueError(f"flow {self.flow_id!r} must traverse at least one link")
        if len(set(self.path)) != len(self.path):
            # A repeated link would be double-counted by the per-link sums;
            # reject it outright (no topology builds one).
            raise ValueError(f"flow {self.flow_id!r} traverses a link twice: {self.path!r}")


@dataclass
class FlowGroup:
    """A set of sub-flows whose utility is a function of their aggregate rate."""

    group_id: Hashable
    utility: Utility
    member_ids: Tuple[FlowId, ...] = ()


class FluidNetwork:
    """A capacitated network shared by a (mutable) set of fluid flows.

    The flow set can change between iterations (flow arrivals/departures in
    the semi-dynamic and dynamic scenarios); the fluid simulators read the
    current set each time they recompute an allocation.
    """

    def __init__(self, capacities: Dict[LinkId, float]):
        if not capacities:
            raise ValueError("a network needs at least one link")
        for link, capacity in capacities.items():
            if capacity <= 0:
                raise ValueError(f"link {link!r} must have positive capacity, got {capacity}")
        self._capacities: Dict[LinkId, float] = dict(capacities)
        # Zero-copy read-only view handed out by the ``capacities`` property;
        # it tracks ``set_capacity`` updates automatically.
        self._capacities_view: Mapping[LinkId, float] = MappingProxyType(self._capacities)
        self._flows: Dict[FlowId, FluidFlow] = {}
        self._groups: Dict[Hashable, FlowGroup] = {}
        self._topology_version = 0
        self._capacity_version = 0
        # Bounded churn journal: one entry per topology_version bump, so
        # compiled views can replay arrivals/departures incrementally
        # instead of rebuilding their incidence structure per event.
        self._journal: deque = deque(maxlen=_JOURNAL_LIMIT)

    # -- pickling ---------------------------------------------------------
    #
    # ``_capacities_view`` is a ``MappingProxyType`` (unpicklable by
    # design); drop it on the way out and rebuild it over the restored
    # ``_capacities`` dict on the way in.  This is what lets a live
    # network ride inside run checkpoints (scenarios.runner) and the
    # sweep cache.

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        del state["_capacities_view"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._capacities_view = MappingProxyType(self._capacities)

    # -- links ------------------------------------------------------------

    @property
    def capacities(self) -> Mapping[LinkId, float]:
        """Read-only live view of the link capacities (no per-access copy)."""
        return self._capacities_view

    @property
    def topology_version(self) -> int:
        """Monotonic counter bumped on every flow/group arrival or departure.

        Compiled snapshots (:class:`~repro.fluid.vectorized.CompiledFluidNetwork`)
        cache the per-flow link indices and recompile only when this counter
        moves; capacity changes (``set_capacity``) do not bump it because
        the snapshots re-read capacities on every iteration.
        """
        return self._topology_version

    def churn_since(self, version: int) -> Optional[List[Tuple[int, str, FluidFlow]]]:
        """Churn events after ``version``, oldest first, or ``None``.

        Each entry is ``(version_after, op, payload)`` with ``op`` one of
        ``"add"`` / ``"remove"`` (payload: the :class:`FluidFlow`) or
        ``"group"`` (payload: the :class:`FlowGroup`).  Returns ``None``
        when the bounded journal no longer reaches back to ``version`` --
        the caller must then rebuild its view from scratch.  Because every
        :attr:`topology_version` bump appends exactly one entry, the needed
        events are simply the last ``current - version`` entries.
        """
        current = self._topology_version
        if version == current:
            return []
        lag = current - version
        if lag < 0 or lag > len(self._journal):
            return None
        journal = self._journal
        return [journal[i] for i in range(-lag, 0)]  # O(lag): deque ends index in O(1)

    def capacity(self, link: LinkId) -> float:
        return self._capacities[link]

    @property
    def capacity_version(self) -> int:
        """Monotonic counter bumped on every ``set_capacity`` call.

        Compiled snapshots use it to memoize capacity-derived vectors (the
        capacities themselves, per-flow path capacities) without re-reading
        the dict on every iteration.
        """
        return self._capacity_version

    def set_capacity(self, link: LinkId, capacity: float) -> None:
        """Change a link's capacity (Fig. 10 experiment, fault injection).

        Zero is allowed and means a failed link: flows crossing it have a
        path capacity of zero and every solver pins their rate to zero
        while keeping prices finite (see ``tests/fluid/test_zero_capacity``).
        """
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if link not in self._capacities:
            raise KeyError(f"unknown link {link!r}")
        self._capacities[link] = capacity
        self._capacity_version += 1

    @property
    def links(self) -> List[LinkId]:
        return list(self._capacities)

    # -- flows ------------------------------------------------------------

    def add_flow(self, flow: FluidFlow) -> FluidFlow:
        if flow.flow_id in self._flows:
            raise ValueError(f"duplicate flow id {flow.flow_id!r}")
        for link in flow.path:
            if link not in self._capacities:
                raise KeyError(f"flow {flow.flow_id!r} references unknown link {link!r}")
        self._flows[flow.flow_id] = flow
        if flow.group_id is not None and flow.group_id in self._groups:
            group = self._groups[flow.group_id]
            group.member_ids = tuple(list(group.member_ids) + [flow.flow_id])
        self._topology_version += 1
        self._journal.append((self._topology_version, "add", flow))
        return flow

    def remove_flow(self, flow_id: FlowId) -> FluidFlow:
        flow = self._flows.pop(flow_id)
        if flow.group_id is not None and flow.group_id in self._groups:
            group = self._groups[flow.group_id]
            group.member_ids = tuple(m for m in group.member_ids if m != flow_id)
        self._topology_version += 1
        self._journal.append((self._topology_version, "remove", flow))
        return flow

    def add_group(self, group: FlowGroup) -> FlowGroup:
        if group.group_id in self._groups:
            raise ValueError(f"duplicate group id {group.group_id!r}")
        self._groups[group.group_id] = group
        self._topology_version += 1
        self._journal.append((self._topology_version, "group", group))
        return group

    @property
    def flows(self) -> List[FluidFlow]:
        return list(self._flows.values())

    @property
    def flow_ids(self) -> List[FlowId]:
        return list(self._flows)

    @property
    def groups(self) -> List[FlowGroup]:
        return list(self._groups.values())

    def flow(self, flow_id: FlowId) -> FluidFlow:
        return self._flows[flow_id]

    def group(self, group_id: Hashable) -> FlowGroup:
        return self._groups[group_id]

    def flows_on_link(self, link: LinkId) -> List[FluidFlow]:
        return [flow for flow in self._flows.values() if link in flow.path]

    def path_capacity(self, flow_id: FlowId) -> float:
        """The capacity of the narrowest link on a flow's path."""
        flow = self._flows[flow_id]
        return min(self._capacities[link] for link in flow.path)

    def link_load(self, rates: Dict[FlowId, float]) -> Dict[LinkId, float]:
        """Aggregate traffic per link for a given rate assignment."""
        load = {link: 0.0 for link in self._capacities}
        for flow_id, rate in rates.items():
            flow = self._flows.get(flow_id)
            if flow is None:
                continue
            for link in flow.path:
                load[link] += rate
        return load

    def is_feasible(self, rates: Dict[FlowId, float], tolerance: float = 1e-6) -> bool:
        """Check that a rate assignment respects every link capacity."""
        load = self.link_load(rates)
        return all(
            load[link] <= self._capacities[link] * (1.0 + tolerance) for link in self._capacities
        )

    def total_utility(self, rates: Dict[FlowId, float]) -> float:
        """Objective value of the NUM problem at a given rate assignment.

        Grouped flows contribute their group utility evaluated at the
        aggregate member rate; ungrouped flows contribute their own utility.
        A group whose members have all left contributes nothing.
        """
        total = 0.0
        grouped_members = set()
        for group in self._groups.values():
            if not group.member_ids:
                continue
            aggregate = sum(rates.get(member, 0.0) for member in group.member_ids)
            grouped_members.update(group.member_ids)
            total += group.utility.value(aggregate)
        for flow in self._flows.values():
            if flow.flow_id in grouped_members:
                continue
            total += flow.utility.value(rates.get(flow.flow_id, 0.0))
        return total

    # -- convenience constructors -----------------------------------------

    @classmethod
    def single_link(cls, capacity: float, n_flows: int,
                    utilities: Optional[Sequence[Utility]] = None) -> "FluidNetwork":
        """A single bottleneck shared by ``n_flows`` flows."""
        network = cls({"link": capacity})
        for i in range(n_flows):
            utility = utilities[i] if utilities is not None else LogUtility()
            network.add_flow(FluidFlow(flow_id=i, path=("link",), utility=utility))
        return network

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FluidNetwork(links={len(self._capacities)}, flows={len(self._flows)}, "
            f"groups={len(self._groups)})"
        )
