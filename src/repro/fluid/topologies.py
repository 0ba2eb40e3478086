"""Fluid-level topology builders used by the evaluation scenarios (Sec. 6).

These construct :class:`~repro.fluid.network.FluidNetwork` instances plus
helpers to build flow paths through them.  The packet-level equivalents live
in :mod:`repro.sim.topology`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import SimulationParameters
from repro.fluid.network import FluidNetwork, LinkId


@dataclass(frozen=True)
class LeafSpineFluid:
    """A leaf-spine fabric expressed as a fluid network plus path helpers.

    Links are modelled in both directions independently:

    * ``("host-up", server)``    -- server NIC to its leaf switch,
    * ``("host-down", server)``  -- leaf switch to the server NIC,
    * ``("up", leaf, spine)``    -- leaf uplink to a spine,
    * ``("down", spine, leaf)``  -- spine downlink to a leaf.
    """

    network: FluidNetwork
    params: SimulationParameters

    @property
    def num_servers(self) -> int:
        return self.params.num_servers

    @property
    def servers_per_leaf(self) -> int:
        return self.params.num_servers // self.params.num_leaves

    def leaf_of(self, server: int) -> int:
        self._check_server(server)
        return server // self.servers_per_leaf

    def _check_server(self, server: int) -> None:
        if not 0 <= server < self.params.num_servers:
            raise ValueError(f"server {server} out of range 0..{self.params.num_servers - 1}")

    def path(self, src: int, dst: int, spine: Optional[int] = None) -> Tuple[LinkId, ...]:
        """Links traversed from ``src`` to ``dst`` (via ``spine`` if cross-leaf).

        Same-leaf traffic only crosses the two host links.  Cross-leaf
        traffic additionally crosses one leaf uplink and one spine downlink;
        the spine is chosen uniformly at random when not given (ECMP).
        """
        self._check_server(src)
        self._check_server(dst)
        if src == dst:
            raise ValueError("source and destination must differ")
        src_leaf, dst_leaf = self.leaf_of(src), self.leaf_of(dst)
        if src_leaf == dst_leaf:
            return (("host-up", src), ("host-down", dst))
        if spine is None:
            spine = random.randrange(self.params.num_spines)
        if not 0 <= spine < self.params.num_spines:
            raise ValueError(f"spine {spine} out of range 0..{self.params.num_spines - 1}")
        return (
            ("host-up", src),
            ("up", src_leaf, spine),
            ("down", spine, dst_leaf),
            ("host-down", dst),
        )

    def all_spine_paths(self, src: int, dst: int) -> List[Tuple[LinkId, ...]]:
        """One path per spine between two cross-leaf servers (for multipath)."""
        src_leaf, dst_leaf = self.leaf_of(src), self.leaf_of(dst)
        if src_leaf == dst_leaf:
            return [self.path(src, dst)]
        return [self.path(src, dst, spine=s) for s in range(self.params.num_spines)]


def leaf_spine(params: Optional[SimulationParameters] = None) -> LeafSpineFluid:
    """Build the paper's leaf-spine fabric as a fluid network.

    Defaults to the evaluation topology: 128 servers, 8 leaves, 4 spines,
    10 Gbps edge links and 40 Gbps core links (full bisection bandwidth).
    """
    params = params or SimulationParameters()
    if params.num_servers % params.num_leaves != 0:
        raise ValueError("num_servers must be a multiple of num_leaves")
    capacities = {}
    for server in range(params.num_servers):
        capacities[("host-up", server)] = params.edge_link_rate
        capacities[("host-down", server)] = params.edge_link_rate
    for leaf in range(params.num_leaves):
        for spine in range(params.num_spines):
            capacities[("up", leaf, spine)] = params.core_link_rate
            capacities[("down", spine, leaf)] = params.core_link_rate
    return LeafSpineFluid(network=FluidNetwork(capacities), params=params)


@dataclass(frozen=True)
class FatTreeFluid:
    """A three-tier k-ary fat-tree expressed as a fluid network plus path helpers.

    The classic Clos construction: ``k`` pods, each with ``k/2`` edge and
    ``k/2`` aggregation switches, ``(k/2)^2`` core switches and ``k^3/4``
    hosts in total.  Aggregation switch ``a`` of every pod connects to the
    ``k/2`` core switches of core group ``a``.  Links are modelled in both
    directions independently:

    * ``("host-up", h)`` / ``("host-down", h)``          -- host NIC <-> its edge switch,
    * ``("edge-up", pod, edge, agg)``                     -- edge switch up to an agg switch,
    * ``("edge-down", pod, agg, edge)``                   -- aggregation switch to an edge switch,
    * ``("agg-up", pod, agg, core)``                      -- aggregation switch to core ``(agg, core)``,
    * ``("agg-down", agg, core, pod)``                    -- core ``(agg, core)`` down to a pod.
    """

    network: FluidNetwork
    k: int

    @property
    def hosts_per_edge(self) -> int:
        return self.k // 2

    @property
    def edges_per_pod(self) -> int:
        return self.k // 2

    @property
    def hosts_per_pod(self) -> int:
        return (self.k // 2) ** 2

    @property
    def num_servers(self) -> int:
        return self.k**3 // 4

    @property
    def num_core_paths(self) -> int:
        """Number of distinct core routes between hosts in different pods."""
        return (self.k // 2) ** 2

    def pod_of(self, host: int) -> int:
        self._check_host(host)
        return host // self.hosts_per_pod

    def edge_of(self, host: int) -> Tuple[int, int]:
        """The ``(pod, edge)`` switch a host hangs off."""
        self._check_host(host)
        return host // self.hosts_per_pod, (host % self.hosts_per_pod) // self.hosts_per_edge

    def _check_host(self, host: int) -> None:
        if not 0 <= host < self.num_servers:
            raise ValueError(f"host {host} out of range 0..{self.num_servers - 1}")

    def path(
        self,
        src: int,
        dst: int,
        agg: Optional[int] = None,
        core: Optional[int] = None,
    ) -> Tuple[LinkId, ...]:
        """Links traversed from ``src`` to ``dst``.

        Same-edge traffic crosses only the two host links (2 hops);
        same-pod traffic additionally bounces through one aggregation
        switch (4 hops, ``agg`` selects which); cross-pod traffic rises to
        one core switch (6 hops, ``(agg, core)`` selects which).  Unset
        choices are filled deterministically from ``(src, dst)`` so repeated
        calls -- and identical seeds -- always produce the same route.
        """
        self._check_host(src)
        self._check_host(dst)
        if src == dst:
            raise ValueError("source and destination must differ")
        src_pod, src_edge = self.edge_of(src)
        dst_pod, dst_edge = self.edge_of(dst)
        if (src_pod, src_edge) == (dst_pod, dst_edge):
            return (("host-up", src), ("host-down", dst))
        half = self.k // 2
        if agg is None:
            agg = (src * 31 + dst) % half
        if not 0 <= agg < half:
            raise ValueError(f"agg {agg} out of range 0..{half - 1}")
        if src_pod == dst_pod:
            return (
                ("host-up", src),
                ("edge-up", src_pod, src_edge, agg),
                ("edge-down", src_pod, agg, dst_edge),
                ("host-down", dst),
            )
        if core is None:
            core = (src * 17 + dst * 7) % half
        if not 0 <= core < half:
            raise ValueError(f"core {core} out of range 0..{half - 1}")
        return (
            ("host-up", src),
            ("edge-up", src_pod, src_edge, agg),
            ("agg-up", src_pod, agg, core),
            ("agg-down", agg, core, dst_pod),
            ("edge-down", dst_pod, agg, dst_edge),
            ("host-down", dst),
        )

    def all_paths(self, src: int, dst: int) -> List[Tuple[LinkId, ...]]:
        """Every equal-cost path between two hosts (for multipath studies).

        One path for same-edge pairs, ``k/2`` for same-pod pairs and
        ``(k/2)^2`` for cross-pod pairs, ordered by ``(agg, core)``.
        """
        src_pod, src_edge = self.edge_of(src)
        dst_pod, dst_edge = self.edge_of(dst)
        if (src_pod, src_edge) == (dst_pod, dst_edge):
            return [self.path(src, dst)]
        half = self.k // 2
        if src_pod == dst_pod:
            return [self.path(src, dst, agg=a) for a in range(half)]
        return [self.path(src, dst, agg=a, core=c) for a in range(half) for c in range(half)]


def fat_tree(
    k: int = 4,
    edge_link_rate: float = 10e9,
    aggregation_link_rate: float = 40e9,
    core_link_rate: float = 40e9,
) -> FatTreeFluid:
    """Build a k-ary fat-tree as a fluid network (``k`` even, >= 2).

    The default is the smallest interesting instance: k=4, 16 hosts,
    10 Gbps host links and 40 Gbps fabric links.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be an even integer >= 2")
    half = k // 2
    capacities = {}
    for host in range(k**3 // 4):
        capacities[("host-up", host)] = edge_link_rate
        capacities[("host-down", host)] = edge_link_rate
    for pod in range(k):
        for edge in range(half):
            for agg in range(half):
                capacities[("edge-up", pod, edge, agg)] = aggregation_link_rate
                capacities[("edge-down", pod, agg, edge)] = aggregation_link_rate
        for agg in range(half):
            for core in range(half):
                capacities[("agg-up", pod, agg, core)] = core_link_rate
                capacities[("agg-down", agg, core, pod)] = core_link_rate
    return FatTreeFluid(network=FluidNetwork(capacities), k=k)


def single_bottleneck(capacity: float = 10e9) -> FluidNetwork:
    """A network with a single shared link (used by Fig. 9 and unit studies)."""
    return FluidNetwork({"bottleneck": capacity})


def parking_lot(n_hops: int = 2, capacity: float = 10e9) -> FluidNetwork:
    """A classic parking-lot chain of ``n_hops`` links (used in unit studies)."""
    if n_hops < 1:
        raise ValueError("need at least one hop")
    return FluidNetwork({f"hop{i}": capacity for i in range(n_hops)})
