"""Demand-driven control timers: parked runs equal always-on runs, exactly.

The production port controllers park their update timer on an idle port and
replay the skipped ticks on the next packet, read or rate change.  The
always-on timer they replace survives only here, as a test-side reference:
an *eager* subclass per controller whose tick never parks.  The differential
below runs the same small dumbbell under both and requires every observable
-- completions, every price a switch stamped into a packet, the controllers'
final prices -- to be equal bit for bit.  The NUMFabric capacity-fault
regression tests live here too, since they exercise the same tick.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import NumFabricParameters
from repro.scenarios.faults import FaultPlan, LinkDegrade, LinkFail, LinkFlap, LinkRestore
from repro.sim.flow import FlowDescriptor
from repro.sim.topology import dumbbell
from repro.transports import DgdScheme, NumFabricScheme, RcpStarScheme
from repro.transports.dgd import DgdPortController
from repro.transports.numfabric import NumFabricPortController
from repro.transports.rcp_star import RcpStarPortController

LINK_RATE = 1e9
BOTTLENECK = "left->right"
NUMFABRIC_PARAMS = NumFabricParameters(baseline_rtt=60e-6, delay_slack=20e-6)


class _NeverParks:
    """The always-on timer: every tick updates, none parks."""

    def _tick(self):
        self._update(self.port.queue_bytes)


class EagerNumFabricController(_NeverParks, NumFabricPortController):
    pass


class EagerDgdController(_NeverParks, DgdPortController):
    pass


class EagerRcpStarController(_NeverParks, RcpStarPortController):
    pass


def _with_controller(scheme, controller_cls):
    """``scheme``, building ``controller_cls`` at every switch port."""

    def make_port_controller(network, port):
        controller = controller_cls(network, port, scheme.params)
        scheme.controllers.append(controller)
        return controller

    scheme.make_port_controller = make_port_controller
    return scheme


SCHEMES = {
    "NUMFabric": (
        lambda: NumFabricScheme(params=NUMFABRIC_PARAMS),
        NumFabricPortController,
        EagerNumFabricController,
        lambda controller: controller.price,
    ),
    "DGD": (DgdScheme, DgdPortController, EagerDgdController, lambda c: c.price),
    "RCP*": (RcpStarScheme, RcpStarPortController, EagerRcpStarController,
             lambda c: c.fair_rate),
}


class StampRecorder:
    """A second port controller that logs what the scheme's one stamped."""

    def __init__(self, port, log):
        self.port = port
        self.log = log

    def on_enqueue(self, packet, now):
        pass

    def on_dequeue(self, packet, now):
        if packet.is_data:
            self.log.append(
                (now, self.port.name, packet.flow_id, packet.sequence,
                 packet.path_price, packet.rcp_price_sum, packet.path_length)
            )

    def settle(self):
        pass


def run_dumbbell(scheme_name, eager, pairs, flows, faults, until):
    """One run; returns every observable the two timer disciplines must share."""
    make_scheme, parked_cls, eager_cls, read = SCHEMES[scheme_name]
    scheme = _with_controller(make_scheme(), eager_cls if eager else parked_cls)
    network = dumbbell(scheme, num_pairs=pairs, bottleneck_rate=LINK_RATE,
                       access_rate=2 * LINK_RATE)
    stamps = []
    ports = {port.name: port for port in network.ports}
    for port in network.ports:
        if port.controllers:
            port.attach_controller(StampRecorder(port, stamps))
    if faults is not None:
        for change in faults.capacity_timeline({BOTTLENECK: LINK_RATE}, seed=0):
            network.simulator.schedule_at(
                change.time, ports[BOTTLENECK].set_rate, change.capacity
            )
    for flow_id, (pair, size_bytes, start) in enumerate(flows):
        network.add_flow(FlowDescriptor(
            flow_id=flow_id, source=("sender", pair), destination=("receiver", pair),
            size_bytes=size_bytes, start_time=start,
        ))
    network.run(until)
    parked = [c._timer.parked for c in scheme.controllers]  # before the reads re-arm
    completions = [
        (c.flow_id, c.size_bytes, c.start_time, c.finish_time)
        for c in network.fct_tracker.completions
    ]
    return {
        "completions": completions,
        "stamps": stamps,
        "prices": [read(controller) for controller in scheme.controllers],
        "delivered": {f: m.bytes_received for f, m in network.rate_monitors.items()},
        "events": network.simulator.events_processed,
        "parked": parked,
    }


def assert_same_observables(parked, eager):
    for key in ("completions", "stamps", "prices", "delivered"):
        assert parked[key] == eager[key], key


# Whole microseconds on purpose: with 1 us links, 6/12 us serialisations and
# 16/30 us ticks, packets, faults and ticks land on the same instant often,
# which is where a re-armed tick could fall on the wrong side of an event.
_fault_time = st.integers(min_value=1, max_value=5_000).map(lambda n: n * 1e-6)


@st.composite
def fault_plans(draw):
    kind = draw(st.sampled_from(["none", "degrade", "fail_restore", "flap"]))
    if kind == "none":
        return None
    at = draw(_fault_time)
    if kind == "degrade":
        factor = draw(st.sampled_from([0.25, 0.5, 0.8]))
        return FaultPlan([LinkDegrade(BOTTLENECK, at=at, factor=factor)])
    gap = draw(st.integers(min_value=20, max_value=3_000)) * 1e-6
    if kind == "fail_restore":
        return FaultPlan([LinkFail(BOTTLENECK, at=at), LinkRestore(BOTTLENECK, at=at + gap)])
    return FaultPlan([LinkFlap(BOTTLENECK, start=at, end=at + 4.5 * gap, period=gap)])


@st.composite
def dumbbell_cases(draw):
    pairs = draw(st.integers(min_value=1, max_value=3))
    flows = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=pairs - 1),
            st.integers(min_value=1, max_value=60_000),          # bytes
            st.integers(min_value=0, max_value=6_000).map(lambda n: n * 1e-6),
        ),
        min_size=0, max_size=5,
    ))
    return pairs, flows, draw(fault_plans())


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=dumbbell_cases())
def test_parked_run_equals_eager_run(scheme_name, case):
    pairs, flows, faults = case
    until = 0.012
    parked = run_dumbbell(scheme_name, False, pairs, flows, faults, until)
    eager = run_dumbbell(scheme_name, True, pairs, flows, faults, until)
    assert_same_observables(parked, eager)
    assert not any(eager["parked"])
    assert parked["events"] <= eager["events"]


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_gaps_between_flows_are_replayed_exactly(scheme_name):
    """Long idle gaps, a flow that starts the instant another ends its gap,
    and a capacity fault that lands while every controller is parked."""
    flows = [(0, 45_000, 0.0), (1, 3_000, 0.004), (0, 1, 0.0040001), (1, 90_000, 0.011)]
    faults = FaultPlan([
        LinkDegrade(BOTTLENECK, at=0.0023337, factor=0.5),   # parked: settled at the old rate
        LinkFail(BOTTLENECK, at=0.0071113),
        LinkRestore(BOTTLENECK, at=0.0093331),
    ])
    parked = run_dumbbell(scheme_name, False, 2, flows, faults, 0.02)
    eager = run_dumbbell(scheme_name, True, 2, flows, faults, 0.02)
    assert_same_observables(parked, eager)
    assert len(parked["completions"]) == len(flows)
    assert parked["events"] < 0.5 * eager["events"]
    assert all(parked["parked"])


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_rate_change_at_exactly_a_tick_instant(scheme_name):
    """A tick precedes the other events of its instant, armed or parked:
    a fault landing on the tick grid is seen by that tick at the old rate."""
    make_scheme = SCHEMES[scheme_name][0]
    params = make_scheme().params
    interval = getattr(params, "price_update_interval", None) or params.rate_update_interval
    grid, due = [], 0.0
    while due < 0.01:
        due += interval
        grid.append(due)
    flows = [(0, 30_000, 0.0), (0, 200_000, 0.003)]
    busy = next(t for t in grid if t > 0.0035)
    faults = FaultPlan([
        LinkDegrade(BOTTLENECK, at=grid[60], factor=0.25),    # every controller parked
        LinkFail(BOTTLENECK, at=busy),                         # mid-flow, timers armed
        LinkRestore(BOTTLENECK, at=next(t for t in grid if t > 0.006)),
    ])
    parked = run_dumbbell(scheme_name, False, 1, flows, faults, 0.02)
    eager = run_dumbbell(scheme_name, True, 1, flows, faults, 0.02)
    assert_same_observables(parked, eager)
    assert len(parked["completions"]) == len(flows)


class TestNumFabricCapacityFaults:
    """The xWI controller measures utilisation against the rate *now*.

    ``XwiLinkState.capacity`` used to be frozen at construction, so a
    saturated link degraded to half rate read utilisation 0.5 and the
    ``eta * (1 - u) * p`` term (eta = 5) collapsed its price.
    """

    def _network(self, flows=2):
        scheme = NumFabricScheme(params=NUMFABRIC_PARAMS)
        network = dumbbell(scheme, num_pairs=flows, bottleneck_rate=LINK_RATE,
                           access_rate=4 * LINK_RATE)
        ports = {port.name: port for port in network.ports}
        return scheme, network, ports[BOTTLENECK]

    def test_price_survives_a_halved_bottleneck(self):
        scheme, network, bottleneck = self._network()
        for i in range(2):
            network.add_flow(FlowDescriptor(
                flow_id=i, source=("sender", i), destination=("receiver", i)))
        controller = bottleneck.controllers[0]
        network.simulator.schedule_at(0.0150003, bottleneck.set_rate, LINK_RATE / 2)
        samples = []
        network.simulator.every(1e-4, lambda: samples.append(
            (network.simulator.now, controller.price)))
        network.run(0.04)

        before = [p for t, p in samples if 0.010 < t < 0.015]
        after = [p for t, p in samples if 0.025 < t < 0.04]
        assert min(before) > 0.0
        # Saturated at the new rate, the price stays positive (it collapsed
        # to ~0 when utilisation was read against the nominal rate) ...
        assert min(after) > 0.0
        # ... and rises, as halving every flow's rate under a log utility
        # must make it (it *fell* by ~30 % against the nominal rate).
        assert sum(after) / len(after) > 1.3 * sum(before) / len(before)
        # The delivered rate tracks the new capacity and is shared evenly.
        rates = [network.rate_monitors[i].average_rate(0.028, 0.04) for i in range(2)]
        assert sum(rates) == pytest.approx(LINK_RATE / 2, rel=0.1)
        assert rates[0] == pytest.approx(rates[1], rel=0.2)

    def test_link_down_and_restored_while_parked(self):
        scheme, network, bottleneck = self._network(flows=1)
        controller = bottleneck.controllers[0]
        network.add_flow(FlowDescriptor(
            flow_id=0, source=("sender", 0), destination=("receiver", 0),
            size_bytes=150_000))
        network.add_flow(FlowDescriptor(
            flow_id=1, source=("sender", 0), destination=("receiver", 0),
            size_bytes=150_000, start_time=0.02))
        network.run(0.0051)
        assert network.fct_tracker.count == 1
        assert controller._timer.parked
        held = controller.price  # settles, re-arms; the next idle tick parks again
        assert held > 0.0
        network.run(0.0052)
        assert controller._timer.parked

        network.simulator.schedule_at(0.0060001, bottleneck.set_rate, 0.0)
        network.simulator.schedule_at(0.0100001, bottleneck.set_rate, LINK_RATE)
        network.run(0.0061)
        at_failure = controller.price
        assert 0.0 < at_failure < held  # decayed over the idle ticks up to the failure
        network.run(0.01)
        assert controller.price == at_failure  # held while the link is down
        assert math.isinf(controller.state.min_residual)
        network.run(0.0102)
        assert controller.price < at_failure  # decaying again after the restore
        assert controller.state.capacity == LINK_RATE

        network.run(0.04)
        assert network.fct_tracker.count == 2
        assert controller._timer.parked
