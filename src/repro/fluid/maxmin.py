"""Weighted max-min water-filling: the fixed point achieved by Swift.

Swift (WFQ scheduling at switches + packet-pair rate control at hosts)
drives the network to the *weighted max-min* rate allocation for the
current set of flow weights.  The fluid engine computes that fixed point
directly with the classical progressive-filling / bottleneck-freezing
algorithm (Bertsekas & Gallager).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

LinkId = Hashable
FlowId = Hashable


def _validate_instance(
    weights: Mapping[FlowId, float],
    paths: Mapping[FlowId, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
) -> List[FlowId]:
    flow_ids = list(weights)
    if set(flow_ids) != set(paths):
        raise ValueError("weights and paths must cover the same flow ids")
    for flow_id in flow_ids:
        if weights[flow_id] <= 0:
            raise ValueError(f"flow {flow_id!r} must have a positive weight")
        path = paths[flow_id]
        if not path:
            raise ValueError(f"flow {flow_id!r} has an empty path")
        if len(set(path)) != len(path):
            raise ValueError(f"flow {flow_id!r} traverses a link twice: {tuple(path)!r}")
        for link in path:
            if link not in capacities:
                raise KeyError(f"flow {flow_id!r} references unknown link {link!r}")
    return flow_ids


def weighted_max_min(
    weights: Mapping[FlowId, float],
    paths: Mapping[FlowId, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
    backend: str = "scalar",
) -> Dict[FlowId, float]:
    """Compute the network-wide weighted max-min fair allocation.

    Parameters
    ----------
    weights:
        Positive weight per flow.  At a single shared link the allocation is
        proportional to the weights.
    paths:
        Sequence of links traversed by each flow.
    capacities:
        Capacity of every link (same units as the returned rates).
    backend:
        ``"scalar"`` (the reference implementation below) or
        ``"vectorized"`` (NumPy water-filling from
        :mod:`repro.fluid.vectorized`; same allocation, one to two orders of
        magnitude faster on large flow populations).  For *repeated* solves
        on a static topology, compile the instance once with
        :class:`repro.fluid.vectorized.CompiledMaxMin` instead: it keeps the
        incidence matrix across calls, so each solve skips the dict-to-array
        rebuild that dominates one-shot vectorized calls.

    Returns
    -------
    Dict mapping flow id to its weighted max-min rate.

    The algorithm repeatedly finds the bottleneck link -- the one whose
    remaining capacity divided by the total weight of its still-unfrozen
    flows is smallest -- and freezes those flows at ``weight * fair_share``.
    Complexity is O(#links * #flows) per freezing round and there are at
    most ``#links`` rounds.
    """
    if backend == "vectorized":
        from repro.fluid.vectorized import weighted_max_min_vectorized

        return weighted_max_min_vectorized(weights, paths, capacities)
    if backend != "scalar":
        raise ValueError(f"unknown max-min backend {backend!r}")
    flow_ids = _validate_instance(weights, paths, capacities)

    rates: Dict[FlowId, float] = {}
    if not flow_ids:
        return rates

    remaining = {link: float(capacities[link]) for link in capacities}
    # Only links actually carrying flows participate.
    link_to_flows: Dict[LinkId, List[FlowId]] = {}
    for flow_id in flow_ids:
        for link in paths[flow_id]:
            link_to_flows.setdefault(link, []).append(flow_id)

    unfrozen = set(flow_ids)
    active_links = set(link_to_flows)

    while unfrozen:
        bottleneck: Tuple[float, LinkId] = (float("inf"), None)
        for link in active_links:
            flows_here = [f for f in link_to_flows[link] if f in unfrozen]
            if not flows_here:
                continue
            total_weight = sum(weights[f] for f in flows_here)
            fair_share = remaining[link] / total_weight
            if fair_share < bottleneck[0]:
                bottleneck = (fair_share, link)
        fair_share, link = bottleneck
        if link is None:
            # Remaining flows only cross links with no capacity pressure left
            # (can happen with zero-remaining links fully consumed); give zero.
            for flow_id in unfrozen:
                rates[flow_id] = 0.0
            break
        newly_frozen = [f for f in link_to_flows[link] if f in unfrozen]
        for flow_id in newly_frozen:
            rate = weights[flow_id] * fair_share
            rates[flow_id] = rate
            for hop in paths[flow_id]:
                remaining[hop] = max(remaining[hop] - rate, 0.0)
            unfrozen.discard(flow_id)
        active_links.discard(link)

    return rates


def max_min(
    paths: Mapping[FlowId, Sequence[LinkId]], capacities: Mapping[LinkId, float]
) -> Dict[FlowId, float]:
    """Plain (unweighted) max-min fair allocation."""
    weights = {flow_id: 1.0 for flow_id in paths}
    return weighted_max_min(weights, paths, capacities)


def bottleneck_links(
    rates: Mapping[FlowId, float],
    paths: Mapping[FlowId, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
    tolerance: float = 1e-9,
) -> Dict[LinkId, bool]:
    """Return, per link, whether it is saturated under the given rates."""
    load: Dict[LinkId, float] = {link: 0.0 for link in capacities}
    for flow_id, rate in rates.items():
        for link in paths[flow_id]:
            load[link] += rate
    return {
        link: load[link] >= capacities[link] * (1.0 - tolerance) - tolerance
        for link in capacities
    }
