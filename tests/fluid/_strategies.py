"""Hypothesis strategies shared by the fluid parity suites."""

from hypothesis import strategies as st

from repro.core.utility import LogUtility
from repro.fluid.network import FluidFlow, FluidNetwork


@st.composite
def instances(draw, capacity_values=(0, 1, 2, 3, 4, 8), weight_values=(1, 1, 2, 3)):
    """Small tie-heavy networks with ragged (1-, 2- and 4-hop) paths.

    Integer capacities and weights force exact fair-share ties; capacity 0
    is a failed link; ``n_flows`` may be 0 and most draws leave some link
    without any flow.
    """
    n_links = draw(st.integers(min_value=1, max_value=8), label="links")
    links = [f"l{i}" for i in range(n_links)]
    capacities = {
        link: float(draw(st.sampled_from(capacity_values), label="capacity")) for link in links
    }
    n_flows = draw(st.integers(min_value=0, max_value=12), label="flows")
    paths, weights = {}, {}
    for flow_id in range(n_flows):
        length = min(draw(st.sampled_from([1, 2, 4]), label="hops"), n_links)
        start = draw(st.integers(min_value=0, max_value=n_links - 1), label="start")
        stride = draw(st.sampled_from([1, -1]), label="stride")
        paths[flow_id] = tuple(links[(start + stride * i) % n_links] for i in range(length))
        weights[flow_id] = float(draw(st.sampled_from(weight_values), label="weight"))
    return capacities, paths, weights


def build_network(capacities, paths):
    """A FluidNetwork at the given capacities (0 via ``set_capacity``)."""
    network = FluidNetwork({link: 1.0 for link in capacities})
    for flow_id, path in paths.items():
        network.add_flow(FluidFlow(flow_id, path, LogUtility()))
    for link, capacity in capacities.items():
        network.set_capacity(link, capacity)
    return network
