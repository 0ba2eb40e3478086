"""pFabric retransmission under real packet drops.

The fault scenarios drive pFabric queues into overflow; recovery then
depends entirely on ``_maybe_retransmit`` (the RTO path).  These tests
exercise it two ways: a deterministic unit-level poke of the timer
callback, and an end-to-end incast that overflows a small queue so actual
drops force actual retransmissions -- and every flow still completes.
At scenario level, the runner's RTO must follow the fabric it builds.
"""

import pytest

from repro.scenarios import run_scenario
from repro.scenarios.catalog import dumbbell_fct_spec
from repro.sim.flow import FlowDescriptor
from repro.sim.topology import dumbbell, single_link_network
from repro.transports.pfabric import PfabricParameters, PfabricScheme


def build_incast(num_flows=6, queue_packets=4, size_bytes=60_000):
    """Many synchronized senders into a tiny pFabric queue: guaranteed drops.

    Access links run 4x the bottleneck, each sender's initial window is
    ~5 MTU, and the shared queue holds only ``queue_packets`` packets, so
    the first RTT already overflows it.
    """
    params = PfabricParameters(queue_capacity_packets=queue_packets)
    network = single_link_network(
        PfabricScheme(params), num_flows=num_flows, link_rate=1e9
    )
    flows = [
        FlowDescriptor(
            flow_id=i,
            source=("sender", i),
            destination=("receiver", i),
            size_bytes=size_bytes,
            start_time=0.0,
        )
        for i in range(num_flows)
    ]
    for flow in flows:
        network.add_flow(flow)
    return network, flows


class TestRtoUnderDrops:
    def test_incast_drops_retransmits_and_completes(self):
        network, flows = build_incast()
        network.run(until=0.5)

        completions = {c.flow_id for c in network.fct_tracker.completions}
        assert completions == {flow.flow_id for flow in flows}

        dropped = sum(port.queue.packets_dropped for port in network.ports)
        assert dropped > 0, "incast was supposed to overflow the queue"

        retransmissions = sum(sender.retransmissions for sender in network.senders.values())
        assert retransmissions > 0, "drops must be repaired via the RTO path"

        # Every byte of every flow was actually delivered despite the drops.
        for flow in flows:
            receiver = network.receivers[flow.flow_id]
            assert receiver.bytes_received >= flow.size_bytes

    def test_completion_times_are_finite_and_ordered(self):
        network, flows = build_incast()
        network.run(until=0.5)
        for completion in network.fct_tracker.completions:
            assert completion.finish_time > completion.start_time >= 0.0

    def test_no_retransmissions_without_drops(self):
        """Sanity inverse: one unchallenged flow never hits the RTO path.

        Access = bottleneck = 10 Gbps, so there is no queue build-up and the
        window drains well inside the 45 us RTO; any retransmission here
        would be a regression in the timer logic.  (``single_link_network``
        runs access at 4x, which overflows the queue even for one flow --
        that is what the incast tests above rely on.)
        """
        params = PfabricParameters()
        network = dumbbell(PfabricScheme(params), num_pairs=1,
                           bottleneck_rate=10e9, access_rate=10e9)
        network.add_flow(FlowDescriptor(flow_id=0, source=("sender", 0),
                                destination=("receiver", 0), size_bytes=60_000))
        network.run(until=0.5)
        assert len(network.fct_tracker.completions) == 1
        assert sum(port.queue.packets_dropped for port in network.ports) == 0
        assert network.senders[0].retransmissions == 0


class TestMaybeRetransmitUnit:
    def make_sender(self):
        network = single_link_network(PfabricScheme(), num_flows=1, link_rate=1e9)
        network.add_flow(FlowDescriptor(flow_id=0, source=("sender", 0),
                                destination=("receiver", 0), size_bytes=600_000))
        # Prime the simulator just enough for the first window to go out.
        network.simulator.run(until=1e-6)
        return network, network.senders[0]

    def test_unacked_sequence_is_resent(self):
        network, sender = self.make_sender()
        assert sender._outstanding, "the initial window must be in flight"
        sequence, (size_bytes, _handle) = next(iter(sender._outstanding.items()))
        before = sender.retransmissions
        sender._maybe_retransmit(sequence, size_bytes)
        assert sender.retransmissions == before + 1
        # The retransmitted sequence is tracked again with a fresh timer.
        assert sequence in sender._outstanding

    def test_acked_sequence_is_not_resent(self):
        network, sender = self.make_sender()
        sequence, (size_bytes, _handle) = next(iter(sender._outstanding.items()))
        sender._outstanding.pop(sequence)
        sender._acked_sequences.add(sequence)
        before = sender.retransmissions
        sender._maybe_retransmit(sequence, size_bytes)
        assert sender.retransmissions == before
        assert sequence not in sender._outstanding

    def test_stopped_sender_never_retransmits(self):
        network, sender = self.make_sender()
        sequence, (size_bytes, _handle) = next(iter(sender._outstanding.items()))
        sender.stopped = True
        before = sender.retransmissions
        sender._maybe_retransmit(sequence, size_bytes)
        assert sender.retransmissions == before


class TestScenarioRto:
    """A scenario's pFabric RTO follows its fabric: 45 us (the paper's value
    for a 16 us RTT at 10 Gb/s) on fig7's 1 Gb/s, 50 us-RTT dumbbell fires
    before any ACK returns and strands flows (42 of 60, 135 of 200)."""

    def test_derived_rto_completes_the_200_flow_dumbbell(self):
        result = run_scenario(dumbbell_fct_spec(scheme_name="pFabric", seed=7, num_flows=200))
        assert len(result.artifacts["completions"]) == len(result.artifacts["arrivals"]) == 200
        # 3 x the 50 us baseline RTT + a full 24-packet queue drained at 1 Gb/s.
        params = result.artifacts["network"].scheme.params
        assert params.retransmission_timeout == 3 * 50e-6 + 24 * 1500 * 8.0 / 1e9

    def test_explicit_rto_below_the_baseline_rtt_is_refused(self):
        spec = dumbbell_fct_spec(
            scheme_name="pFabric",
            baseline_rtt=50e-6,
            params=PfabricParameters(retransmission_timeout=45e-6),
        )
        with pytest.raises(ValueError, match=r"retransmission_timeout 4\.5e-05 s.*5e-05 s"):
            run_scenario(spec)


def test_retransmission_total_is_deterministic():
    """The incast is fully deterministic: same drops, same RTO repairs."""
    totals = []
    for _ in range(2):
        network, _flows = build_incast()
        network.run(until=0.5)
        totals.append(
            (
                sum(port.queue.packets_dropped for port in network.ports),
                sum(sender.retransmissions for sender in network.senders.values()),
                tuple(sorted((c.flow_id, c.finish_time) for c in network.fct_tracker.completions)),
            )
        )
    assert totals[0] == totals[1]
