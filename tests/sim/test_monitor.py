"""The per-flow rate monitor keeps two typed arrays and reads them exactly
as the tuple-list monitor did (``_monitor_reference.TupleRateMonitor``)."""

import pytest

from _monitor_reference import TupleRateMonitor
from repro.core.config import NumFabricParameters
from repro.core.utility import LogUtility
from repro.sim.flow import FlowDescriptor
from repro.sim.monitor import FlowRateMonitor
from repro.sim.network import Network
from repro.sim.topology import dumbbell
from repro.transports import NumFabricScheme

DURATION = 0.012


@pytest.fixture(scope="module")
def recorded_dumbbell():
    """A 1 Gb/s NUMFabric dumbbell with one late and one finite flow; every
    delivery is also recorded into a reference monitor."""
    references = {}
    record_delivery = Network.record_delivery

    def tee(network, flow_id, time, size_bytes):
        references.setdefault(flow_id, TupleRateMonitor(flow_id)).record(time, size_bytes)
        record_delivery(network, flow_id, time, size_bytes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "record_delivery", tee)
        network = dumbbell(
            NumFabricScheme(params=NumFabricParameters(baseline_rtt=60e-6)),
            num_pairs=3, bottleneck_rate=1e9,
        )
        starts_and_sizes = [(0.0, None), (0.004, None), (0.001, 400_000)]
        for i, (start, size) in enumerate(starts_and_sizes):
            network.add_flow(FlowDescriptor(
                flow_id=i, source=("sender", i), destination=("receiver", i),
                size_bytes=size, start_time=start, utility=LogUtility(),
            ))
        network.run(DURATION)
    return network, references


def test_reads_match_the_tuple_list_reference_bit_for_bit(recorded_dumbbell):
    network, references = recorded_dumbbell
    assert set(references) == set(network.rate_monitors) == {0, 1, 2}
    for flow_id, monitor in network.rate_monitors.items():
        reference = references[flow_id]
        assert len(monitor) == len(reference.arrivals) > 100
        assert monitor.bytes_received == reference.bytes_received
        for interval in (DURATION / 200, 37e-6, DURATION):
            for end_time in (None, DURATION, 0.006, -1.0):
                assert monitor.rate_trace(interval, end_time=end_time) == reference.rate_trace(
                    interval, end_time=end_time)
                assert monitor.rate_trace(
                    interval, ewma_time_constant=80e-6, end_time=end_time
                ) == reference.rate_trace(interval, ewma_time_constant=80e-6, end_time=end_time)
        for start, end in ((0.0, DURATION), (0.004, 0.009), (0.0051, 0.0052), (1.0, 2.0)):
            assert monitor.average_rate(start, end) == reference.average_rate(start, end)


def test_an_empty_monitor_reads_nothing():
    monitor = FlowRateMonitor("idle")
    assert len(monitor) == 0 and monitor.bytes_received == 0
    assert monitor.rate_trace(1e-3) == []
    assert monitor.average_rate(0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        monitor.rate_trace(0.0)
    with pytest.raises(ValueError):
        monitor.average_rate(1.0, 1.0)
