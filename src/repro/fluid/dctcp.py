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
  The per-flow state arrays persist across iterations and are realigned
  with the flow set only on churn (the ``_on_recompile`` hook); the
  ``windows`` and ``ecn_fraction`` dicts are lazily-materialized views of
  the array state, exact on every read.  Rates, windows and
  queues match the scalar backend to well within the 1e-9 enforced by
  ``tests/fluid/test_scheme_backend_parity.py``; see ``BENCH_fluid.json``
  for the measured speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.fluid.network import FluidNetwork, FlowId, LinkId
from repro.fluid.vectorized import CompiledFluidNetwork, VectorizedBackendMixin


@dataclass
class DctcpFluidParameters:
    rtt: float = 16e-6
    marking_threshold_fraction: float = 0.1
    gain: float = 1.0 / 16.0
    initial_window_fraction: float = 0.1
    mtu_bits: float = 1500 * 8


@dataclass
class DctcpIterationRecord:
    iteration: int
    rates: Dict[FlowId, float]
    queues: Dict[LinkId, float]


class DctcpFluidSimulator(VectorizedBackendMixin):
    """Per-RTT DCTCP window dynamics on a :class:`FluidNetwork`."""

    def __init__(
        self,
        network: FluidNetwork,
        params: Optional[DctcpFluidParameters] = None,
        backend: str = "scalar",
    ):
        self.network = network
        self.params = params or DctcpFluidParameters()
        self.backend = self._check_backend(backend, "DCTCP")
        self._windows_dict: Dict[FlowId, float] = {}
        self._windows_dirty = False
        self._ecn_dict: Dict[FlowId, float] = {}
        self._ecn_dirty = False
        # Set when the dict views are assigned from outside: the vectorized
        # step then rebuilds its arrays from the dicts, so external writes
        # take effect immediately on either backend.
        self._flow_state_stale = False
        self.queues: Dict[LinkId, float] = {link: 0.0 for link in network.links}
        self.iteration = 0
        self.history: List[DctcpIterationRecord] = []
        self._compiled: Optional[CompiledFluidNetwork] = None
        self._windows_vec: Optional[np.ndarray] = None
        self._ecn_vec: Optional[np.ndarray] = None
        self._state_flow_ids: List[FlowId] = []

    # The vectorized backend keeps windows and ECN fractions as arrays and
    # only marks the dict views stale each step; the dicts are rebuilt on
    # first read, so casual external reads stay exact without paying a
    # per-iteration O(flows) sync.  Every read (and every assignment) also
    # marks the *arrays* stale: the caller may mutate the dict it was
    # handed, so the next vectorized step re-reads the dicts -- external
    # writes behave identically on both backends, and steps that nobody
    # observed in between pay nothing.

    @property
    def windows(self) -> Dict[FlowId, float]:
        """Per-flow congestion windows (a live, writable view on any backend)."""
        if self._windows_dirty:
            self._windows_dict = dict(zip(self._state_flow_ids, self._windows_vec.tolist()))
            self._windows_dirty = False
        self._flow_state_stale = True
        return self._windows_dict

    @windows.setter
    def windows(self, value: Dict[FlowId, float]) -> None:
        self._windows_dict = value
        self._windows_dirty = False
        self._flow_state_stale = True

    @property
    def ecn_fraction(self) -> Dict[FlowId, float]:
        """Per-flow ECN EWMA state (a live, writable view on any backend)."""
        if self._ecn_dirty:
            self._ecn_dict = dict(zip(self._state_flow_ids, self._ecn_vec.tolist()))
            self._ecn_dirty = False
        self._flow_state_stale = True
        return self._ecn_dict

    @ecn_fraction.setter
    def ecn_fraction(self, value: Dict[FlowId, float]) -> None:
        self._ecn_dict = value
        self._ecn_dirty = False
        self._flow_state_stale = True

    def _initial_window(self, flow_id: FlowId) -> float:
        bdp_bits = self.network.path_capacity(flow_id) * self.params.rtt
        return max(bdp_bits * self.params.initial_window_fraction, self.params.mtu_bits)

    def _ensure_flow_state(self) -> None:
        for flow in self.network.flows:
            if flow.flow_id not in self.windows:
                self.windows[flow.flow_id] = self._initial_window(flow.flow_id)
                self.ecn_fraction[flow.flow_id] = 0.0
        active = {flow.flow_id for flow in self.network.flows}
        for flow_id in list(self.windows):
            if flow_id not in active:
                del self.windows[flow_id]
                del self.ecn_fraction[flow_id]

    def _on_recompile(self, compiled: CompiledFluidNetwork) -> None:
        """Realign the window/ECN arrays with the recompiled flow order.

        Surviving flows keep their state, newcomers start at the initial
        window (same rule as :meth:`_ensure_flow_state`), departed flows are
        dropped from the dicts -- churn-time work, not per-iteration work.
        """
        # Property reads flush any lazily-synced array state first.
        window_state = self.windows
        ecn_state = self.ecn_fraction
        windows = [window_state.get(flow_id, None) for flow_id in compiled.flow_ids]
        for j, window in enumerate(windows):
            if window is None:
                windows[j] = self._initial_window(compiled.flow_ids[j])
        ecn = [ecn_state.get(flow_id, 0.0) for flow_id in compiled.flow_ids]
        self._windows_vec = np.asarray(windows, dtype=float)
        self._ecn_vec = np.asarray(ecn, dtype=float)
        self._state_flow_ids = list(compiled.flow_ids)
        self.windows = dict(zip(compiled.flow_ids, windows))
        self.ecn_fraction = dict(zip(compiled.flow_ids, ecn))
        self._flow_state_stale = False  # arrays and dicts now agree

    def _step_vectorized(self) -> DctcpIterationRecord:
        """One RTT of the window dynamics as array operations."""
        compiled = self._ensure_compiled()
        if self._flow_state_stale:
            # windows / ecn_fraction were assigned from outside since the
            # last step; rebuild the arrays so the write is honored now,
            # exactly as the scalar backend would.
            self._on_recompile(compiled)
        params = self.params
        capacities = compiled.capacities_vector()
        windows = self._windows_vec
        rate_vec = windows / params.rtt

        # Queue in "bits": integrate over-subscription during the RTT, then
        # mark every link whose backlog exceeds the ECN threshold.
        load = compiled.link_load(rate_vec)
        queues = np.maximum(
            self._link_vector(self.queues) + (load - capacities) * params.rtt, 0.0
        )
        marked_links = queues > capacities * params.rtt * params.marking_threshold_fraction
        if marked_links.any():
            marked_flows = np.append(marked_links, False)[compiled.path_links].any(axis=1)
        else:
            marked_flows = np.zeros(len(compiled.flow_ids), dtype=bool)

        # Window update: EWMA the observed marking fraction first (as the
        # scalar loop does), then multiplicative decrease on marked flows,
        # additive increase on the rest, floored at one MTU.
        ecn = self._ecn_vec
        ecn += params.gain * (marked_flows.astype(float) - ecn)
        windows = np.where(
            marked_flows, windows * (1.0 - ecn / 2.0), windows + params.mtu_bits
        )
        np.maximum(windows, params.mtu_bits, out=windows)
        self._windows_vec = windows
        self._windows_dirty = True  # the dict properties rebuild on read
        self._ecn_dirty = True
        self._store_link_vector(self.queues, queues)

        # Report *delivered* rates: the offered load (window / RTT) drives
        # the queue/marking dynamics above, but a flow can never deliver
        # more than its narrowest link -- in particular a flow crossing a
        # failed (zero-capacity) link delivers nothing even though its
        # window is floored at one MTU.
        delivered = np.minimum(rate_vec, compiled.path_capacities(capacities))
        record = DctcpIterationRecord(
            iteration=self.iteration,
            rates=dict(zip(compiled.flow_ids, delivered.tolist())),
            queues=dict(self.queues),
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
        rates = {
            flow.flow_id: self.windows[flow.flow_id] / params.rtt for flow in self.network.flows
        }
        load = self.network.link_load(rates)

        marked_links = set()
        for link, capacity in capacities.items():
            # Queue in "bits": integrate over-subscription during the RTT.
            self.queues[link] = max(
                self.queues[link] + (load[link] - capacity) * params.rtt, 0.0
            )
            marking_threshold = capacity * params.rtt * params.marking_threshold_fraction
            if self.queues[link] > marking_threshold:
                marked_links.add(link)

        for flow in self.network.flows:
            flow_id = flow.flow_id
            marked = any(link in marked_links for link in flow.path)
            observed_fraction = 1.0 if marked else 0.0
            self.ecn_fraction[flow_id] += params.gain * (
                observed_fraction - self.ecn_fraction[flow_id]
            )
            if marked:
                self.windows[flow_id] *= 1.0 - self.ecn_fraction[flow_id] / 2.0
            else:
                self.windows[flow_id] += params.mtu_bits
            self.windows[flow_id] = max(self.windows[flow_id], params.mtu_bits)

        # Delivered rates (see the vectorized step): offered load drives the
        # queues, but no flow delivers past its narrowest link.
        delivered = {
            flow_id: min(rate, self.network.path_capacity(flow_id))
            for flow_id, rate in rates.items()
        }
        record = DctcpIterationRecord(
            iteration=self.iteration, rates=delivered, queues=dict(self.queues)
        )
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

    def rate_history(self) -> List[Dict[FlowId, float]]:
        return [record.rates for record in self.history]

    @property
    def seconds_per_iteration(self) -> float:
        return self.params.rtt
