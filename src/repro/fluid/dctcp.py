"""A coarse fluid model of DCTCP, used only for the Figure 4(b) contrast.

The paper's point with DCTCP is qualitative: its per-flow rates oscillate at
100-microsecond timescales and never settle within 10% of a target
allocation, unlike NUMFabric.  We model the standard DCTCP window dynamics
per RTT -- additive increase, ECN-fraction-proportional decrease -- over the
shared fluid topology, which reproduces the characteristic sawtooth.

Two interchangeable backends drive the iteration:

* ``backend="scalar"`` (default) -- the reference implementation, plain
  Python over dicts;
* ``backend="vectorized"`` -- windows, ECN fractions and queues as arrays
  over the compiled ``path_links`` of :mod:`repro.fluid.vectorized` (a flow
  is marked when a gather of the marked-link mask over its hops hits one).
  The per-flow state vectors persist across iterations and are realigned
  with the flow set only on churn (the ``_on_recompile`` hook); the
  ``windows``, ``ecn_fraction`` and ``queues`` dicts are views of that
  state built on read (:class:`~repro.fluid.vectorized.ArrayState`, the
  holder every vectorized simulator uses).  Rates, windows and
  queues match the scalar backend to well within the 1e-9 enforced by
  ``tests/fluid/test_scheme_backend_parity.py``; see ``BENCH_fluid.json``
  for the measured speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from repro.fluid.network import FluidNetwork, FlowId, LinkId
from repro.fluid.vectorized import (
    CompiledFluidNetwork,
    IterationRecord,
    VectorizedBackendMixin,
    dict_of,
    state_view,
)


@dataclass
class DctcpFluidParameters:
    rtt: float = 16e-6
    marking_threshold_fraction: float = 0.1
    gain: float = 1.0 / 16.0
    initial_window_fraction: float = 0.1
    mtu_bits: float = 1500 * 8


class DctcpIterationRecord(IterationRecord):
    """Snapshot of one RTT: delivered ``rates`` and per-link ``queues``."""

    queue_vec: Optional[np.ndarray] = None

    @cached_property
    def queues(self) -> Dict[LinkId, float]:
        return dict_of(self.link_ids, self.queue_vec)


class DctcpFluidSimulator(VectorizedBackendMixin):
    """Per-RTT DCTCP window dynamics on a :class:`FluidNetwork`."""

    #: Per-flow congestion windows and ECN EWMA state, per-link queues: live,
    #: writable dicts on either backend.  The vectorized one keeps vectors
    #: (:class:`~repro.fluid.vectorized.ArrayState`) and brings a dict up to
    #: date only when the attribute is read; a dict that was read or
    #: assigned is gathered back into its vector at the next step, so
    #: external writes behave identically on both backends and unobserved
    #: steps pay nothing.
    windows = state_view()
    ecn_fraction = state_view()
    queues = state_view()

    def __init__(
        self,
        network: FluidNetwork,
        params: Optional[DctcpFluidParameters] = None,
        backend: str = "scalar",
    ):
        self.network = network
        self.params = params or DctcpFluidParameters()
        self.backend = self._check_backend(backend, "DCTCP")
        self.windows = {}
        self.ecn_fraction = {}
        self.queues = {link: 0.0 for link in network.links}
        self.iteration = 0
        self.history: List[DctcpIterationRecord] = []
        self._compiled: Optional[CompiledFluidNetwork] = None

    def _initial_window(self, flow_id: FlowId) -> float:
        bdp_bits = self.network.path_capacity(flow_id) * self.params.rtt
        return max(bdp_bits * self.params.initial_window_fraction, self.params.mtu_bits)

    def _ensure_flow_state(self) -> None:
        windows, ecn_fraction = self.windows, self.ecn_fraction
        for flow in self.network.flows:
            if flow.flow_id not in windows:
                windows[flow.flow_id] = self._initial_window(flow.flow_id)
                ecn_fraction[flow.flow_id] = 0.0
        active = {flow.flow_id for flow in self.network.flows}
        for flow_id in list(windows):
            if flow_id not in active:
                del windows[flow_id]
                del ecn_fraction[flow_id]

    def _on_recompile(self, compiled: CompiledFluidNetwork) -> None:
        """Realign the window/ECN vectors with the compiled flow order.

        Surviving flows keep their state, newcomers start at the initial
        window (same rule as :meth:`_ensure_flow_state`), departed flows are
        dropped -- churn-time work, not per-iteration work.
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

    def _step_vectorized(self) -> DctcpIterationRecord:
        """One RTT of the window dynamics as array operations."""
        compiled = self._ensure_compiled()
        if self._windows.handed_out or self._ecn_fraction.handed_out:
            # windows / ecn_fraction were read or assigned from outside since
            # the last step; gather the vectors again so a write is honored
            # now, exactly as the scalar backend would.
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

        # Window update: EWMA the observed marking fraction first (as the
        # scalar loop does), then multiplicative decrease on marked flows,
        # additive increase on the rest, floored at one MTU.
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
        record = DctcpIterationRecord(
            self.iteration, flow_ids, compiled.link_ids, rate_vec=delivered, queue_vec=queues
        )
        self.iteration += 1
        return record

    def step(self) -> DctcpIterationRecord:
        """Advance the model by one RTT."""
        if self.backend == "vectorized":
            return self._step_vectorized()
        self._ensure_flow_state()
        params = self.params
        capacities = self.network.capacities
        windows, ecn_fraction, queues = self.windows, self.ecn_fraction, self.queues
        rates = {flow.flow_id: windows[flow.flow_id] / params.rtt for flow in self.network.flows}
        load = self.network.link_load(rates)

        marked_links = set()
        for link, capacity in capacities.items():
            # Queue in "bits": integrate over-subscription during the RTT.
            queues[link] = max(queues[link] + (load[link] - capacity) * params.rtt, 0.0)
            marking_threshold = capacity * params.rtt * params.marking_threshold_fraction
            if queues[link] > marking_threshold:
                marked_links.add(link)

        for flow in self.network.flows:
            flow_id = flow.flow_id
            marked = any(link in marked_links for link in flow.path)
            observed_fraction = 1.0 if marked else 0.0
            ecn_fraction[flow_id] += params.gain * (observed_fraction - ecn_fraction[flow_id])
            if marked:
                windows[flow_id] *= 1.0 - ecn_fraction[flow_id] / 2.0
            else:
                windows[flow_id] += params.mtu_bits
            windows[flow_id] = max(windows[flow_id], params.mtu_bits)

        # Delivered rates (see the vectorized step): offered load drives the
        # queues, but no flow delivers past its narrowest link.
        delivered = {
            flow_id: min(rate, self.network.path_capacity(flow_id))
            for flow_id, rate in rates.items()
        }
        record = DctcpIterationRecord(self.iteration, rates=delivered, queues=dict(queues))
        self.iteration += 1
        return record

    def run(self, iterations: int, record_history: bool = True) -> List[DctcpIterationRecord]:
        """Run ``iterations`` steps; return (and optionally store) the records.

        ``record_history=False`` keeps memory O(1) for long runs; direct
        ``step()`` calls never touch the history (same contract as xWI).
        """
        records = [self.step() for _ in range(iterations)]
        if record_history:
            self.history.extend(records)
        return records

    @property
    def seconds_per_iteration(self) -> float:
        return self.params.rtt
