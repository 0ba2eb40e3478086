"""A coarse fluid model of DCTCP, used only for the Figure 4(b) contrast.

The paper's point with DCTCP is qualitative: its per-flow rates oscillate at
100-microsecond timescales and never settle within 10% of a target
allocation, unlike NUMFabric.  We model the standard DCTCP window dynamics
per RTT -- additive increase, ECN-fraction-proportional decrease -- over the
shared fluid topology, which reproduces the characteristic sawtooth.

Windows, ECN fractions and queues are arrays over the compiled
``path_links`` of :mod:`repro.fluid.vectorized` (a flow is marked when a
gather of the marked-link mask over its hops hits one).  The per-flow state
vectors persist across iterations and are realigned with the flow set only
on churn (the ``_on_recompile`` hook); the ``windows``, ``ecn_fraction`` and
``queues`` dicts are views of that state built on read
(:class:`~repro.fluid.vectorized.ArrayState`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.fluid.network import FluidNetwork, FlowId
from repro.fluid.vectorized import (
    CompiledFluidNetwork,
    FluidStepper,
    IterationRecord,
    state_view,
)


@dataclass
class DctcpFluidParameters:
    rtt: float = 16e-6
    marking_threshold_fraction: float = 0.1
    gain: float = 1.0 / 16.0
    initial_window_fraction: float = 0.1
    mtu_bits: float = 1500 * 8


class DctcpFluidSimulator(FluidStepper):
    """Per-RTT DCTCP window dynamics on a :class:`FluidNetwork`.

    Records carry the delivered ``rates`` and the per-link ``queues``.
    """

    Parameters = DctcpFluidParameters
    interval = "rtt"

    #: Per-flow congestion windows and ECN EWMA state, per-link queues: live,
    #: writable dicts kept as vectors and brought up to date only when the
    #: attribute is read; a dict that was read or assigned is gathered back
    #: into its vector at the next step, so external writes take effect and
    #: unobserved steps pay nothing.
    windows = state_view()
    ecn_fraction = state_view()
    queues = state_view()

    def __init__(self, network: FluidNetwork, params: Optional[DctcpFluidParameters] = None):
        super().__init__(network, params)
        self.windows = {}
        self.ecn_fraction = {}
        self.queues = {link: 0.0 for link in network.links}

    def _initial_window(self, flow_id: FlowId) -> float:
        bdp_bits = self.network.path_capacity(flow_id) * self.params.rtt
        return max(bdp_bits * self.params.initial_window_fraction, self.params.mtu_bits)

    def _on_recompile(self, compiled: CompiledFluidNetwork) -> None:
        """Realign the window/ECN vectors with the compiled flow order.

        Surviving flows keep their state, newcomers start at the initial
        window with no ECN history, departed flows are dropped -- churn-time
        work, not per-iteration work.
        """
        flow_ids = compiled.flow_id_snapshot()
        windows, ecn = self.windows, self.ecn_fraction
        self._windows.store(
            flow_ids,
            np.array(
                [
                    windows[flow_id] if flow_id in windows else self._initial_window(flow_id)
                    for flow_id in flow_ids
                ],
                dtype=float,
            ),
        )
        self._ecn_fraction.store(
            flow_ids, np.array([ecn.get(flow_id, 0.0) for flow_id in flow_ids], dtype=float)
        )

    def step(self) -> IterationRecord:
        """Advance the model by one RTT."""
        compiled = self._ensure_compiled()
        if self._windows.handed_out or self._ecn_fraction.handed_out:
            # windows / ecn_fraction were read or assigned from outside since
            # the last step; gather the vectors again so a write is honored.
            self._on_recompile(compiled)
        params = self.params
        capacities = compiled.capacities_vector()
        windows = self._windows.vector
        rate_vec = windows / params.rtt

        # Queue in "bits": integrate over-subscription during the RTT, then
        # mark every link whose backlog exceeds the ECN threshold.
        load = compiled.link_load(rate_vec)
        queues = np.maximum(
            self._link_vector(self._queues) + (load - capacities) * params.rtt, 0.0
        )
        marked_links = queues > capacities * params.rtt * params.marking_threshold_fraction
        if marked_links.any():
            marked_flows = np.append(marked_links, False)[compiled.path_links].any(axis=1)
        else:
            marked_flows = np.zeros(len(compiled.flow_ids), dtype=bool)

        # Window update: EWMA the observed marking fraction first, then
        # multiplicative decrease on marked flows, additive increase on the
        # rest, floored at one MTU.
        flow_ids = self._windows.keys
        ecn = self._ecn_fraction.vector
        ecn += params.gain * (marked_flows.astype(float) - ecn)
        windows = np.where(
            marked_flows, windows * (1.0 - ecn / 2.0), windows + params.mtu_bits
        )
        np.maximum(windows, params.mtu_bits, out=windows)
        self._windows.store(flow_ids, windows)
        self._ecn_fraction.store(flow_ids, ecn)
        self._queues.store(compiled.link_ids, queues)

        # Report *delivered* rates: the offered load (window / RTT) drives
        # the queue/marking dynamics above, but a flow can never deliver
        # more than its narrowest link -- in particular a flow crossing a
        # failed (zero-capacity) link delivers nothing even though its
        # window is floored at one MTU.
        delivered = np.minimum(rate_vec, compiled.path_capacities())
        return self._record(flow_ids, rate_vec=delivered, queue_vec=queues)
