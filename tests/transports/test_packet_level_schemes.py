"""Integration-style tests of the packet-level transports on small topologies."""

import pytest

from repro.core.config import NumFabricParameters
from repro.core.utility import LogUtility
from repro.sim.flow import FlowDescriptor
from repro.sim.topology import dumbbell, leaf_spine_network, single_link_network
from repro.core.config import SimulationParameters
from repro.transports import (
    DctcpScheme,
    DgdScheme,
    NumFabricScheme,
    PfabricScheme,
    RcpStarScheme,
)

LINK_RATE = 1e9
# The scaled-down 1 Gbps topology has a serialization-dominated RTT; Swift's
# window sizing must use it (see Sec. 4.1's requirement that W > BDP).
NUMFABRIC_PARAMS = NumFabricParameters(baseline_rtt=60e-6, delay_slack=20e-6)


def add_long_lived_flows(network, count, weights=None):
    for i in range(count):
        weight = weights[i] if weights else 1.0
        network.add_flow(
            FlowDescriptor(
                flow_id=i,
                source=("sender", i),
                destination=("receiver", i),
                utility=LogUtility(weight=weight),
            )
        )


def measured_rates(network, count, start, end):
    return [network.rate_monitors[i].average_rate(start, end) for i in range(count)]


class TestNumFabricPacketLevel:
    def test_equal_weights_share_equally(self):
        scheme = NumFabricScheme(params=NUMFABRIC_PARAMS)
        network = single_link_network(scheme, num_flows=3, link_rate=LINK_RATE)
        add_long_lived_flows(network, 3)
        network.run(0.02)
        rates = measured_rates(network, 3, 0.012, 0.02)
        for rate in rates:
            assert rate == pytest.approx(LINK_RATE / 3, rel=0.12)

    def test_weighted_allocation(self):
        scheme = NumFabricScheme(params=NUMFABRIC_PARAMS)
        network = single_link_network(scheme, num_flows=3, link_rate=LINK_RATE)
        add_long_lived_flows(network, 3, weights=[1.0, 2.0, 4.0])
        network.run(0.03)
        rates = measured_rates(network, 3, 0.02, 0.03)
        total = sum(rates)
        assert total == pytest.approx(LINK_RATE, rel=0.1)
        assert rates[1] / rates[0] == pytest.approx(2.0, rel=0.25)
        assert rates[2] / rates[0] == pytest.approx(4.0, rel=0.25)

    def test_flow_arrival_reconverges(self):
        scheme = NumFabricScheme(params=NUMFABRIC_PARAMS)
        network = single_link_network(scheme, num_flows=2, link_rate=LINK_RATE)
        network.add_flow(
            FlowDescriptor(flow_id=0, source=("sender", 0), destination=("receiver", 0))
        )
        network.add_flow(
            FlowDescriptor(
                flow_id=1, source=("sender", 1), destination=("receiver", 1), start_time=0.015
            )
        )
        network.run(0.035)
        early = network.rate_monitors[0].average_rate(0.008, 0.014)
        late = network.rate_monitors[0].average_rate(0.028, 0.035)
        assert early == pytest.approx(LINK_RATE, rel=0.15)
        assert late == pytest.approx(LINK_RATE / 2, rel=0.2)

    def test_finite_flow_completes(self):
        scheme = NumFabricScheme(params=NUMFABRIC_PARAMS)
        network = single_link_network(scheme, num_flows=1, link_rate=LINK_RATE)
        network.add_flow(
            FlowDescriptor(
                flow_id=0, source=("sender", 0), destination=("receiver", 0), size_bytes=75_000
            )
        )
        network.run(0.05)
        assert network.fct_tracker.count == 1
        completion = network.fct_tracker.completions[0]
        assert completion.size_bytes == 75_000
        assert completion.completion_time > 0

    def test_leaf_spine_cross_rack_flow(self):
        params = SimulationParameters(
            num_servers=8, num_leaves=2, num_spines=2,
            edge_link_rate=LINK_RATE, core_link_rate=4 * LINK_RATE, baseline_rtt=60e-6,
        )
        scheme = NumFabricScheme(params=NUMFABRIC_PARAMS)
        network = leaf_spine_network(scheme, params=params)
        network.add_flow(
            FlowDescriptor(flow_id=0, source=("server", 0), destination=("server", 7),
                           size_bytes=50_000)
        )
        network.run(0.05)
        assert network.fct_tracker.count == 1


class TestBaselinesPacketLevel:
    @pytest.mark.parametrize("scheme_cls", [DgdScheme, RcpStarScheme, DctcpScheme])
    def test_fair_share_on_single_bottleneck(self, scheme_cls):
        scheme = scheme_cls()
        network = single_link_network(scheme, num_flows=2, link_rate=LINK_RATE)
        add_long_lived_flows(network, 2)
        network.run(0.04)
        rates = measured_rates(network, 2, 0.025, 0.04)
        total = sum(rates)
        # All baselines eventually use most of the link and split it roughly
        # evenly (they are slower and noisier than NUMFabric).
        assert total == pytest.approx(LINK_RATE, rel=0.35)
        assert rates[0] == pytest.approx(rates[1], rel=0.5)

    @pytest.mark.parametrize("scheme_cls", [DgdScheme, RcpStarScheme])
    def test_paced_finite_flow_ends_on_a_partial_packet(self, scheme_cls):
        """The pacing senders send whole MTUs, then the remainder, then stop."""
        network = single_link_network(scheme_cls(), num_flows=1, link_rate=LINK_RATE)
        sender = network.add_flow(
            FlowDescriptor(
                flow_id=0, source=("sender", 0), destination=("receiver", 0), size_bytes=10_700
            )
        )
        network.run(0.05)
        full, partial = divmod(10_700, sender.mtu_bytes)
        assert partial > 0
        assert sender.next_sequence == full + 1
        assert sender.bytes_sent == sender.bytes_acked == 10_700
        assert [c.size_bytes for c in network.fct_tracker.completions] == [10_700]

    def test_pfabric_srpt_ordering(self):
        """pFabric finishes short flows before long ones sharing a bottleneck."""
        scheme = PfabricScheme()
        network = dumbbell(scheme, num_pairs=1, bottleneck_rate=LINK_RATE,
                           access_rate=LINK_RATE)
        sizes = {0: 150_000, 1: 15_000}
        for flow_id, size in sizes.items():
            network.add_flow(
                FlowDescriptor(
                    flow_id=flow_id, source=("sender", 0), destination=("receiver", 0),
                    size_bytes=size,
                )
            )
        network.run(0.1)
        completions = {c.flow_id: c for c in network.fct_tracker.completions}
        assert set(completions) == {0, 1}
        assert completions[1].finish_time < completions[0].finish_time

    def test_dctcp_keeps_queues_bounded(self):
        scheme = DctcpScheme()
        network = single_link_network(scheme, num_flows=2, link_rate=LINK_RATE)
        add_long_lived_flows(network, 2)
        network.run(0.03)
        bottleneck = [p for p in network.ports if p.name == "left->right"][0]
        # The marking threshold is 65 packets; DCTCP should keep the standing
        # queue in that neighbourhood, far below the 1 MB buffer.
        assert bottleneck.queue_bytes < 300_000
