"""The flow engine's parity reference: the original per-flow dict loop.

``FlowLevelSimulation`` keeps remaining bytes, start times and sizes in
slot arrays and updates them with one vector operation per step.
:func:`run_dict` drives the same simulation -- its network, rate policy,
admission, fault timeline and completion sinks -- through the loop it
replaced, one dict entry per flow, so the parity tests can hold the array
loop to it exactly.  :class:`EqualSharePolicy` is the constant-work
policy both the parity tests and the perf harness drive it with.
"""

import numpy as np

from repro.experiments.dynamic_fluid import CompletedFlow, RatePolicy
from repro.fluid.vectorized import IterationRecord


class EqualSharePolicy(RatePolicy):
    """Reference policy: an equal split of a single bottleneck's capacity.

    The simplest useful allocation, and a template for custom policies: it
    builds one record per flow set, so the flow loop rebuilds its
    permutation only when the flow set changes.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self._cached = None

    def on_flow_set_changed(self, network):
        self._cached = None

    def rates(self, network, dt):
        if self._cached is None:
            flow_ids = tuple(network.flow_ids)
            share = self.capacity / len(flow_ids)
            self._cached = IterationRecord(
                0, flow_ids, rate_vec=np.full(len(flow_ids), share)
            )
        return self._cached


def run_dict(simulation, arrivals, max_time=None):
    """Run ``arrivals`` on ``simulation`` flow by flow; return its completions.

    The dict state is local to the call: ``simulation.active_flow_count``
    stays at zero, while ``simulation.network`` keeps the flows still in
    flight at ``max_time``, as the array loop leaves it.
    """
    pending = sorted(arrivals, key=lambda a: a.time)
    policy, network = simulation.rate_policy, simulation.network
    remaining_bytes, start_times, sizes = {}, {}, {}
    time = 0.0
    index = 0
    horizon = max_time if max_time is not None else float("inf")
    while time < horizon and (index < len(pending) or remaining_bytes):
        simulation._inject_faults(time)
        changed = False
        while index < len(pending) and pending[index].time <= time:
            arrival = pending[index]
            simulation._admit(arrival)
            remaining_bytes[arrival.flow_id] = float(arrival.size_bytes)
            start_times[arrival.flow_id] = arrival.time
            sizes[arrival.flow_id] = arrival.size_bytes
            index += 1
            changed = True
        if changed:
            policy.on_flow_set_changed(network)
        if not remaining_bytes:
            if index < len(pending):
                time = pending[index].time  # jump to the next arrival
                continue
            break
        dt = simulation.step_interval
        record = policy.rates(network, dt)
        rates = dict(zip(record.flow_ids, record.rate_vec.tolist()))
        finished = []
        for flow_id, remaining in remaining_bytes.items():
            new_remaining = remaining - rates.get(flow_id, 0.0) * dt / 8.0
            if new_remaining <= 0.0:
                finished.append(flow_id)
            else:
                remaining_bytes[flow_id] = new_remaining
        time += dt
        if finished:
            for flow_id in finished:
                simulation._emit(
                    CompletedFlow(flow_id, sizes[flow_id], start_times[flow_id], time)
                )
                del remaining_bytes[flow_id]
                network.remove_flow(flow_id)
            policy.on_flow_set_changed(network)
    return simulation.completed
