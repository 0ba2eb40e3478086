"""Max-min references the production water-fill is gated against.

``repro`` has one weighted max-min water-fill,
:func:`repro.fluid.vectorized.waterfill_arrays` (batched multi-bottleneck
rounds on the padded per-flow link indices), and one dict entry point over
it, :func:`repro.fluid.maxmin.weighted_max_min`.  This module keeps what
the parity gates compare them against, written independently of both:

* :func:`scalar_max_min` -- textbook progressive filling over dicts
  (Bertsekas & Gallager): freeze the flows of the link with the smallest
  fair share, one link per round;
* :func:`dense_waterfill` -- the same one-bottleneck-per-round schedule on
  a dense link x flow incidence matrix, the perf harness's "before" side
  of the batched rounds;
* :func:`dense_incidence` / :func:`incidence_of` / :func:`path_links_of`
  -- the dense matrix of a compiled network or of padded link indices,
  and the padded link indices of a dense matrix.
"""

from typing import Dict, Optional

import numpy as np


def scalar_max_min(weights, paths, capacities) -> Dict:
    """Weighted max-min rates by per-link progressive filling (no validation)."""
    rates = {}
    remaining = {link: float(capacity) for link, capacity in capacities.items()}
    link_to_flows: Dict = {}
    for flow_id in weights:
        for link in paths[flow_id]:
            link_to_flows.setdefault(link, []).append(flow_id)
    unfrozen = set(weights)
    active_links = set(link_to_flows)
    while unfrozen:
        best_share, bottleneck = float("inf"), None
        for link in active_links:
            flows_here = [f for f in link_to_flows[link] if f in unfrozen]
            if not flows_here:
                continue
            share = remaining[link] / sum(weights[f] for f in flows_here)
            if share < best_share:
                best_share, bottleneck = share, link
        if bottleneck is None:
            for flow_id in unfrozen:
                rates[flow_id] = 0.0
            break
        for flow_id in [f for f in link_to_flows[bottleneck] if f in unfrozen]:
            rate = weights[flow_id] * best_share
            rates[flow_id] = rate
            for hop in paths[flow_id]:
                remaining[hop] = max(remaining[hop] - rate, 0.0)
            unfrozen.discard(flow_id)
        active_links.discard(bottleneck)
    return rates


def dense_waterfill(
    incidence: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    stats: Optional[Dict[str, int]] = None,
) -> np.ndarray:
    """One bottleneck per round on a dense boolean link x flow incidence.

    ``stats`` receives ``"rounds"`` and ``"levels"`` like
    :func:`~repro.fluid.vectorized.waterfill_arrays`.
    """
    incidence_f = incidence.astype(float)
    n_links, n_flows = incidence.shape
    rates = np.zeros(n_flows)
    weights = np.asarray(weights, dtype=float)
    remaining = np.asarray(capacities, dtype=float).copy()
    unfrozen = np.ones(n_flows, dtype=bool)
    unfrozen_weights = weights.copy()  # zeroed as flows freeze
    rounds, levels = 0, set()
    while unfrozen.any():
        link_weight = incidence_f @ unfrozen_weights
        fair_share = np.full(n_links, np.inf)
        np.divide(remaining, link_weight, out=fair_share, where=link_weight > 0.0)
        bottleneck = int(np.argmin(fair_share)) if n_links else 0
        if not n_links or not np.isfinite(fair_share[bottleneck]):
            break
        share = fair_share[bottleneck]
        frozen = np.nonzero(incidence[bottleneck] & unfrozen)[0]
        rates[frozen] = weights[frozen] * share
        remaining -= incidence_f[:, frozen] @ rates[frozen]
        np.maximum(remaining, 0.0, out=remaining)
        unfrozen[frozen] = False
        unfrozen_weights[frozen] = 0.0
        levels.add(float(share))
        rounds += 1
    if stats is not None:
        stats["rounds"] = rounds
        stats["levels"] = len(levels)
    return rates


def incidence_of(path_links: np.ndarray, n_links: int) -> np.ndarray:
    """Boolean link x flow incidence of sentinel-padded link indices."""
    n_flows = len(path_links)
    dense = np.zeros((n_links + 1, n_flows), dtype=bool)
    dense[path_links.T, np.arange(n_flows)] = True
    return dense[:-1]  # the sentinel row collected the padding


def dense_incidence(compiled) -> np.ndarray:
    """Boolean link x flow incidence of a ``CompiledFluidNetwork``."""
    return incidence_of(compiled.path_links, len(compiled.link_ids))


def path_links_of(incidence: np.ndarray) -> np.ndarray:
    """Sentinel-padded flows x max-hops link indices of a dense incidence.

    Row ``j`` lists flow ``j``'s links in ascending index order, padded
    with ``n_links``.
    """
    n_links, n_flows = incidence.shape
    hops = max(int(incidence.sum(axis=0).max(initial=1)), 1)
    path_links = np.full((n_flows, hops), n_links, dtype=np.intp)
    for j in range(n_flows):
        links = np.nonzero(incidence[:, j])[0]
        path_links[j, : links.size] = links
    return path_links
