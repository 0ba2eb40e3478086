"""Weighted max-min water-filling: the fixed point achieved by Swift.

Swift (WFQ scheduling at switches + packet-pair rate control at hosts)
drives the network to the *weighted max-min* rate allocation for the
current set of flow weights.  The fluid engine computes that fixed point
directly with progressive filling (Bertsekas & Gallager):
:func:`weighted_max_min` is the dict-in / dict-out entry point over the one
array water-fill, :func:`repro.fluid.vectorized.waterfill_arrays`, that
xWI and the Oracle's safeguard run.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence

import numpy as np

from repro.fluid.vectorized import waterfill_arrays

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

    Returns
    -------
    Dict mapping flow id to its weighted max-min rate.

    Validates the instance, builds the sentinel-padded per-flow link
    indices once (see :class:`~repro.fluid.vectorized.CompiledFluidNetwork`)
    and runs :func:`~repro.fluid.vectorized.waterfill_arrays` on them.
    """
    flow_ids = _validate_instance(weights, paths, capacities)
    link_index = {link: i for i, link in enumerate(capacities)}
    hops = max((len(paths[flow_id]) for flow_id in flow_ids), default=1)
    path_links = np.full((len(flow_ids), hops), len(link_index), dtype=np.intp)
    for j, flow_id in enumerate(flow_ids):
        path = paths[flow_id]
        path_links[j, : len(path)] = [link_index[link] for link in path]
    rates = waterfill_arrays(
        path_links,
        np.array([weights[flow_id] for flow_id in flow_ids], dtype=float),
        np.array([capacities[link] for link in link_index], dtype=float),
    )
    return dict(zip(flow_ids, rates.tolist()))
