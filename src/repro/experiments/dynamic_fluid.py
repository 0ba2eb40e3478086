"""Flow-level fluid simulation of dynamic workloads (used by Fig. 5/7).

Flows arrive (Poisson or semi-dynamic), carry a finite number of bytes and
depart when those bytes have been delivered.  Between flow-set changes,
rates evolve according to a *rate policy*:

* :class:`OracleRatePolicy` -- recompute the optimal NUM allocation whenever
  the flow set changes (the paper's "ideal" reference);
* :class:`SimulatorRatePolicy` -- advance a fluid control-loop simulator
  (xWI, DGD or RCP*) one update interval at a time, so flows experience the
  scheme's actual convergence behaviour.

The result is, per flow, its completion time and therefore its average rate
(size / FCT), which Fig. 5 compares across schemes and Fig. 7's flow-level
mode turns into normalized FCTs.

Time advances in fixed steps of ``step_interval`` (the price-update
interval): arrivals are admitted at the first step boundary at or after
their arrival time, mirroring how the real system only applies new rates
once per control-loop update.  Flow completion times are therefore
quantized to the step grid; completion-time accounting still uses the exact
arrival time, so a flow's FCT includes the sub-step admission latency.

Remaining bytes / start times / sizes live in NumPy arrays indexed by a
compact flow-slot map; each step is one vectorized delivered-bytes update
and completions are detected with a single comparison, with slots compacted
per completion batch (never per flow).  This is what lets Fig. 5 run the
paper's 10k-flow workloads.  :meth:`FlowLevelSimulation.run` (materialized
arrival list) and :meth:`~FlowLevelSimulation.run_stream` (lazy, resumable)
are the same loop.  The original per-flow dict loop lives with the tests
(``tests/experiments/_flow_reference.py``), which pin this one to it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.core.utility import LogUtility, Utility
from repro.fluid.dgd import DgdFluidSimulator
from repro.fluid.network import FluidFlow, FluidNetwork
from repro.fluid.oracle import PersistentDualSolver
from repro.fluid.oracle import solve_num  # noqa: F401 -- benchmarks/e2e's span table binds it
from repro.fluid.rcp import RcpStarFluidSimulator
from repro.fluid.vectorized import RateGather
from repro.fluid.xwi import XwiFluidSimulator
from repro.workloads.poisson import FlowArrival


@dataclass(slots=True)
class CompletedFlow:
    """Completion record of one finished flow."""

    flow_id: int
    size_bytes: int
    start_time: float
    finish_time: float

    @property
    def fct(self) -> float:
        return self.finish_time - self.start_time

    @property
    def average_rate(self) -> float:
        return 8.0 * self.size_bytes / self.fct if self.fct > 0 else float("inf")


class RatePolicy:
    """Produces the current rate allocation for the active flows."""

    def on_flow_set_changed(self, network: FluidNetwork) -> None:
        """Called after any arrival or departure batch."""

    def on_capacity_changed(self, network: FluidNetwork) -> None:
        """Called after fault injection changes link capacities mid-run.

        Defaults to :meth:`on_flow_set_changed`: for every built-in policy
        invalidating the cached allocation is exactly what is needed (the
        fluid simulators and the persistent dual solver additionally notice
        the network's ``capacity_version`` bump on their next step/solve).
        """
        self.on_flow_set_changed(network)

    def rates(self, network: FluidNetwork, dt: float) -> Mapping:
        """Return the rates to apply for the next ``dt`` seconds.

        Any flow-id -> rate mapping.  One that also carries ``flow_ids`` and
        a ``rate_vec`` in that order (:class:`RecordRates`) is read by the
        flow loop as a vector, never key by key.
        """
        raise NotImplementedError

    def rates_epoch(self) -> Optional[int]:
        """Monotonic counter identifying the current allocation, or ``None``.

        The flow loop gathers the policy's rate dict into a vector once per
        allocation *epoch* instead of once per step.  A policy that can
        tell when its allocation changed returns a counter it bumps on every
        change; the default ``None`` opts out of caching (always correct,
        one dict pass per step), so policies that mutate and re-return the
        same dict are never served a stale vector.
        """
        return None


class EqualSharePolicy(RatePolicy):
    """Reference policy: an equal split of a single bottleneck's capacity.

    The simplest useful allocation -- used by the perf harness and the
    parity tests as a constant-work baseline, and handy as a template for
    custom policies (note the epoch bump per allocation change).
    """

    def __init__(self, capacity: float):
        self.capacity = capacity
        self._cached: Optional[Dict[object, float]] = None
        self._epoch = 0

    def on_flow_set_changed(self, network: FluidNetwork) -> None:
        self._cached = None
        self._epoch += 1

    def rates(self, network: FluidNetwork, dt: float) -> Dict[object, float]:
        if self._cached is None:
            flows = network.flows
            share = self.capacity / len(flows) if flows else 0.0
            self._cached = {flow.flow_id: share for flow in flows}
        return self._cached

    def rates_epoch(self) -> Optional[int]:
        return self._epoch


class OracleRatePolicy(RatePolicy):
    """Instantaneously optimal rates, recomputed on every flow-set change.

    A thin owner of a :class:`~repro.fluid.oracle.PersistentDualSolver`,
    which keeps prices, curvature, conditioning *and* the compiled incidence
    alive across flow-set changes -- no cold restart per event, no per-event
    recompiles.  The arguments are the solver's:

    * the price-scale conditioning is refreshed only every
      ``scale_refresh_interval`` flow-set changes (it only conditions the
      solver, so staleness cannot change the optimum);
    * the max-min safeguard defaults to off -- it exists for very steep
      utility mixes, and for the well-conditioned log/moderate-alpha
      workloads of Fig. 5 it costs more than the solve itself.  Pass
      ``safeguard=True`` when using steep utilities (e.g. FCT with a small
      epsilon).
    """

    def __init__(
        self,
        scale_refresh_interval: int = 32,
        safeguard: bool = False,
        tolerance: float = 1e-9,
    ):
        self._solver = PersistentDualSolver(
            tolerance=tolerance,
            scale_refresh_interval=scale_refresh_interval,
            safeguard=safeguard,
        )
        self._cached: Optional[Mapping] = None
        self._epoch = 0

    def on_flow_set_changed(self, network: FluidNetwork) -> None:
        self._cached = None
        self._epoch += 1

    def rates(self, network: FluidNetwork, dt: float) -> Mapping:
        if self._cached is None:
            self._cached = RecordRates(self._solver.solve(network)) if network.flows else {}
        return self._cached

    def rates_epoch(self) -> Optional[int]:
        return self._epoch


class RecordRates(Mapping):
    """A simulator record's (or an :class:`~repro.fluid.oracle.OracleResult`'s)
    rates as the mapping :meth:`RatePolicy.rates` promises, without building
    it: ``flow_ids`` / ``rate_vec`` pass the record's own through, and the
    dict is built only if someone keys in."""

    __slots__ = ("_record",)

    def __init__(self, record):
        self._record = record

    @property
    def flow_ids(self):
        return self._record.flow_ids

    @property
    def rate_vec(self) -> Optional[np.ndarray]:
        return self._record.rate_vec

    def __getitem__(self, flow_id) -> float:
        return self._record.rates[flow_id]

    def __iter__(self):
        return iter(self._record.rates)

    def __len__(self) -> int:
        return len(self._record.rates)


class SimulatorRatePolicy(RatePolicy):
    """Rates taken from a fluid control-loop simulator advanced step by step.

    ``simulator_factory`` builds the simulator around the (shared) network;
    it is advanced one iteration per ``step_interval`` of simulated time, so
    schemes with slower convergence deliver fewer bytes to short flows --
    exactly the effect Fig. 5 measures.

    The simulator's compiled incidence structure is patched only on flow
    arrivals/departures, so the per-iteration cost between flow-set changes
    is pure array math.
    """

    def __init__(self, simulator_factory: Callable[[FluidNetwork], object]):
        self.simulator_factory = simulator_factory
        self._simulator = None
        self._epoch = 0

    def _ensure(self, network: FluidNetwork):
        if self._simulator is None:
            if self.simulator_factory is None:
                raise RuntimeError(
                    "SimulatorRatePolicy restored from a checkpoint before its "
                    "simulator was built; rebuild the policy from the spec "
                    "(no simulator state existed to lose)"
                )
            self._simulator = self.simulator_factory(network)
        return self._simulator

    def __getstate__(self) -> Dict[str, object]:
        # The factory is a closure (unpicklable); the live simulator --
        # which holds all the state the factory would have created -- is
        # picklable and rides along.  After restore the factory is only
        # needed if the simulator was never built (see ``_ensure``).
        state = self.__dict__.copy()
        state["simulator_factory"] = None
        return state

    def on_flow_set_changed(self, network: FluidNetwork) -> None:
        self._ensure(network)

    def rates(self, network: FluidNetwork, dt: float) -> RecordRates:
        rates = RecordRates(self._ensure(network).step())
        self._epoch += 1  # the control loop moves the allocation every step
        return rates

    def rates_epoch(self) -> Optional[int]:
        return self._epoch


#: Fluid control-loop simulators usable as dynamic rate policies, by the
#: scheme names the experiments use.
SCHEME_SIMULATORS: Dict[str, Callable] = {
    "NUMFabric": XwiFluidSimulator,
    "DGD": DgdFluidSimulator,
    "RCP*": RcpStarFluidSimulator,
}


def scheme_rate_policy(scheme: str, params=None) -> SimulatorRatePolicy:
    """A :class:`SimulatorRatePolicy` for a named scheme's fluid simulator."""
    try:
        simulator_cls = SCHEME_SIMULATORS[scheme]
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; expected one of {sorted(SCHEME_SIMULATORS)}"
        ) from None
    return SimulatorRatePolicy(lambda network: simulator_cls(network, params=params))


class ArrivalStream:
    """One-ahead cursor over a (time-sorted) arrival iterable.

    The streaming loop only ever needs the *next* arrival, so this wrapper
    buffers exactly one record -- a million-flow trace is never
    materialized.  ``consumed`` counts records handed out, which is all a
    checkpoint needs to reconstruct the cursor: rebuild the iterator from
    its deterministic source and pass ``skip=consumed``.

    The stream itself is deliberately *not* picklable (it wraps a live
    iterator); :mod:`repro.scenarios.runner` checkpoints ``consumed``
    instead.
    """

    __slots__ = ("_iterator", "_head", "_exhausted", "consumed")

    def __init__(self, arrivals: Iterable[FlowArrival], skip: int = 0):
        self._iterator: Iterator[FlowArrival] = iter(arrivals)
        self._head: Optional[FlowArrival] = None
        self._exhausted = False
        self.consumed = 0
        for _ in range(skip):
            if self.next() is None:
                raise ValueError(
                    f"arrival stream ended after {self.consumed} record(s); "
                    f"cannot skip {skip} (checkpoint does not match this trace)"
                )

    def peek(self) -> Optional[FlowArrival]:
        """The next arrival without consuming it, or ``None`` at the end."""
        if self._head is None and not self._exhausted:
            self._head = next(self._iterator, None)
            if self._head is None:
                self._exhausted = True
        return self._head

    def next(self) -> Optional[FlowArrival]:
        """Consume and return the next arrival, or ``None`` at the end."""
        head = self.peek()
        if head is not None:
            self._head = None
            self.consumed += 1
        return head


class FlowLevelSimulation:
    """Run a dynamic workload at flow level under a given rate policy."""

    def __init__(
        self,
        network: FluidNetwork,
        path_for_arrival: Callable[[FlowArrival], tuple],
        rate_policy: RatePolicy,
        step_interval: float = 30e-6,
        utility_for_arrival: Optional[Callable[[FlowArrival], Utility]] = None,
        fault_injector=None,
    ):
        self.network = network
        self.path_for_arrival = path_for_arrival
        self.rate_policy = rate_policy
        self.step_interval = step_interval
        #: Optional :class:`~repro.scenarios.faults.CapacityInjector` (or any
        #: object with ``apply_until(set_capacity, time) -> int``); capacity
        #: changes apply at step boundaries, then the policy is invalidated.
        self.fault_injector = fault_injector
        self._on_capacity_changed = getattr(
            rate_policy, "on_capacity_changed", rate_policy.on_flow_set_changed
        )
        self.utility_for_arrival = utility_for_arrival or (lambda arrival: LogUtility())
        #: Optional completion sink called once per finished flow (streaming
        #: telemetry).  With ``keep_completions=False`` the per-flow record
        #: is *not* appended to :attr:`completed` -- memory stays bounded.
        self.on_complete: Optional[Callable[[CompletedFlow], None]] = None
        self.keep_completions = True
        #: Simulated-time position of the step loop (:meth:`run_stream`
        #: resumes from here; checkpointed alongside the slot arrays).
        self._time = 0.0
        self.completed: List[CompletedFlow] = []
        # One compact slot per active flow, in admission order; the arrays
        # are over-allocated and compacted in batches.
        self._slots: List[int] = []
        self._count = 0
        self._remaining = np.empty(0, dtype=float)
        self._starts = np.empty(0, dtype=float)
        self._sizes_arr = np.empty(0, dtype=np.int64)
        # Rate-vector cache: valid while the policy reports the same
        # allocation epoch and the slot layout is unchanged.  Policies whose
        # ``rates_epoch`` returns None -- or duck-typed policies without the
        # method at all -- are gathered every step.
        self._rate_cache: Optional[np.ndarray] = None
        self._rate_cache_epoch: Optional[int] = None
        self._rates_epoch: Callable[[], Optional[int]] = getattr(
            rate_policy, "rates_epoch", lambda: None
        )
        # For policies that hand over a rate vector: permutes it into slot
        # order (reset whenever the slot layout changes).
        self._slot_rates = RateGather()

    @property
    def active_flow_count(self) -> int:
        """Number of admitted flows that have not yet completed."""
        return self._count

    def run(
        self, arrivals: List[FlowArrival], max_time: Optional[float] = None
    ) -> List[CompletedFlow]:
        """Process all arrivals and run until every admitted flow completes.

        ``max_time`` truncates the simulation: flows still in flight at the
        horizon never complete (and stay in the network).
        """
        pending = sorted(arrivals, key=lambda a: a.time)
        self._advance(ArrivalStream(pending), max_time, None)
        return self.completed

    # -- shared admission helper ------------------------------------------

    def _admit(self, arrival: FlowArrival) -> None:
        path = self.path_for_arrival(arrival)
        self.network.add_flow(
            FluidFlow(arrival.flow_id, path, self.utility_for_arrival(arrival))
        )

    def _inject_faults(self, time: float) -> None:
        """Apply every fault-timeline change due by ``time``."""
        if self.fault_injector is None:
            return
        if self.fault_injector.apply_until(self.network.set_capacity, time):
            self._on_capacity_changed(self.network)

    def _emit(self, flow: CompletedFlow) -> None:
        """Route one completion to the configured sinks."""
        if self.keep_completions:
            self.completed.append(flow)
        if self.on_complete is not None:
            self.on_complete(flow)

    # -- pickling (checkpoint support) -------------------------------------
    #
    # ``path_for_arrival`` / ``utility_for_arrival`` / ``on_complete`` are
    # closures over topology and telemetry objects -- unpicklable, and
    # cheaply reconstructible from the :class:`~repro.scenarios.spec
    # .ScenarioSpec` that built them.  Everything else (slot arrays, the
    # network, the rate policy with its warm solver state, the fault
    # cursor, ``_time``) pickles as one object graph, so shared references
    # (the policy's network is *this* network) survive the round trip.
    # After restore, call :meth:`rebind` before resuming.

    _UNPICKLABLE = ("path_for_arrival", "utility_for_arrival", "on_complete",
                    "_on_capacity_changed", "_rates_epoch")

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        for name in self._UNPICKLABLE:
            state[name] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._on_capacity_changed = getattr(
            self.rate_policy, "on_capacity_changed", self.rate_policy.on_flow_set_changed
        )
        self._rates_epoch = getattr(self.rate_policy, "rates_epoch", lambda: None)

    def rebind(
        self,
        path_for_arrival: Callable[[FlowArrival], tuple],
        utility_for_arrival: Optional[Callable[[FlowArrival], Utility]] = None,
        on_complete: Optional[Callable[[CompletedFlow], None]] = None,
        rate_policy: Optional[RatePolicy] = None,
    ) -> None:
        """Re-attach the closures dropped by :meth:`__getstate__`.

        ``rate_policy`` replaces the restored policy wholesale -- used when
        the checkpointed policy never built its simulator (so no state
        existed) and must be rebuilt fresh from the spec.
        """
        self.path_for_arrival = path_for_arrival
        self.utility_for_arrival = utility_for_arrival or (lambda arrival: LogUtility())
        self.on_complete = on_complete
        if rate_policy is not None:
            self.rate_policy = rate_policy
        self._on_capacity_changed = getattr(
            self.rate_policy, "on_capacity_changed", self.rate_policy.on_flow_set_changed
        )
        self._rates_epoch = getattr(self.rate_policy, "rates_epoch", lambda: None)

    # -- slot arrays -------------------------------------------------------

    def _grow(self, extra: int) -> None:
        needed = self._count + extra
        if needed <= len(self._remaining):
            return
        capacity = max(needed, 2 * len(self._remaining), 16)
        for name in ("_remaining", "_starts", "_sizes_arr"):
            old = getattr(self, name)
            fresh = np.empty(capacity, dtype=old.dtype)
            fresh[: self._count] = old[: self._count]
            setattr(self, name, fresh)

    def _append_flow(self, arrival: FlowArrival) -> None:
        self._grow(1)
        slot = self._count
        self._remaining[slot] = float(arrival.size_bytes)
        self._starts[slot] = arrival.time
        self._sizes_arr[slot] = arrival.size_bytes
        self._slots.append(arrival.flow_id)
        self._count += 1
        self._rate_cache = self._rate_cache_epoch = None
        self._slot_rates.reset()

    def _compact(self, keep: np.ndarray) -> None:
        """Drop finished slots in one batch, preserving admission order."""
        survivors = int(np.count_nonzero(keep))
        for name in ("_remaining", "_starts", "_sizes_arr"):
            array = getattr(self, name)
            array[:survivors] = array[: self._count][keep]
        self._slots = [fid for fid, alive in zip(self._slots, keep.tolist()) if alive]
        self._count = survivors
        self._rate_cache = self._rate_cache_epoch = None
        self._slot_rates.reset()

    def _gather_rates(self, rates: Mapping) -> np.ndarray:
        if getattr(rates, "rate_vec", None) is not None:
            # The policy computed a vector: permute it into slot order, the
            # permutation rebuilt only when the flow set or the slots change.
            return self._slot_rates(rates, self._slots)
        epoch = self._rates_epoch()
        if (
            epoch is not None
            and epoch == self._rate_cache_epoch
            and self._rate_cache is not None
        ):
            return self._rate_cache
        get = rates.get
        vector = np.fromiter(
            (get(fid, 0.0) for fid in self._slots), dtype=float, count=self._count
        )
        self._rate_cache = vector
        self._rate_cache_epoch = epoch
        return vector

    # -- streaming loop (bounded memory, resumable) -------------------------

    def run_stream(
        self,
        stream: ArrivalStream,
        max_time: Optional[float] = None,
        stop_at: Optional[float] = None,
    ) -> bool:
        """Advance the simulation over a lazy arrival stream.

        The bounded-memory counterpart of :meth:`run`: arrivals are pulled
        one at a time from ``stream`` (which must be time-sorted -- see
        :class:`ArrivalStream`), completions are routed through
        :attr:`on_complete`, and with ``keep_completions=False`` nothing is
        accumulated per flow.  :meth:`run` drives the same loop, so an
        all-list run and a streamed run of the same schedule produce
        bit-identical completion records.

        ``stop_at`` pauses the loop at the first step boundary at or after
        that simulated time and returns ``False`` (resume by calling again
        -- the time cursor persists in ``_time``, surviving checkpoint
        pickling).  Returns ``True`` when the run is finished: the horizon
        was reached or every admitted flow completed and the stream is
        exhausted.
        """
        return self._advance(stream, max_time, stop_at)

    def _advance(
        self, stream: ArrivalStream, max_time: Optional[float], stop_at: Optional[float]
    ) -> bool:
        """The step loop behind :meth:`run` and :meth:`run_stream`."""
        horizon = max_time if max_time is not None else float("inf")
        limit = stop_at if stop_at is not None else float("inf")
        dt = self.step_interval
        time = self._time

        while time < horizon and (stream.peek() is not None or self._count):
            if time >= limit:
                self._time = time
                return False
            self._inject_faults(time)
            changed = False
            while (head := stream.peek()) is not None and head.time <= time:
                arrival = stream.next()
                self._admit(arrival)
                self._append_flow(arrival)
                changed = True
            if changed:
                self.rate_policy.on_flow_set_changed(self.network)

            if not self._count:
                head = stream.peek()
                if head is not None:
                    time = head.time
                    continue
                break

            rates = self.rate_policy.rates(self.network, dt)
            rate_vec = self._gather_rates(rates)
            remaining = self._remaining[: self._count]
            # Identical per-element arithmetic to the dict reference:
            # ``remaining - rate * dt / 8.0`` with the same operation order.
            remaining -= rate_vec * dt / 8.0
            time += dt
            finished = remaining <= 0.0
            if finished.any():
                for slot in np.nonzero(finished)[0].tolist():
                    flow_id = self._slots[slot]
                    self._emit(
                        CompletedFlow(
                            flow_id=flow_id,
                            size_bytes=int(self._sizes_arr[slot]),
                            start_time=float(self._starts[slot]),
                            finish_time=time,
                        )
                    )
                    self.network.remove_flow(flow_id)
                self._compact(~finished)
                self.rate_policy.on_flow_set_changed(self.network)

        self._time = time
        return True
