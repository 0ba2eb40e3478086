"""The fluid engine's array core: compiled incidence structure + array math.

This module compiles a :class:`~repro.fluid.network.FluidNetwork` snapshot
into

* a padded per-flow **link-index array** (``path_links``) that every
  link <-> flow reduction runs on -- water-filling, the schemes' path sums
  and the Oracle's dual alike -- plus capacity / path-length vectors
  (:class:`CompiledFluidNetwork`), and
* per-flow utilities as power-law rows ``U'(x) = c * x^-a``
  (:class:`VectorizedUtilities`),

so that one control-loop iteration of *any* fluid scheme -- xWI's weight
computation (Eq. (7)), water-filling and price update of Eqs. (9)-(11), but
equally DGD's price dynamics (Eq. (14)), RCP*'s fair-rate dynamics
(Eqs. (15)-(16)) and DCTCP's per-RTT window dynamics -- runs as a handful
of array operations.  The shared building blocks are the path-price /
link-load incidence products, the per-flow narrowest-link capacities and
the row-wise utility evaluations; each scheme adds only its own
elementwise state update on top.  :class:`FluidStepper` is the base every
scheme's simulator shares: the compiled snapshot, compile-on-churn, the
history and the :class:`IterationRecord`.  The per-flow dict iterations
these steps replaced live with the tests (``tests/fluid/_fluid_reference.py``);
the parity suites hold every scheme to them at 1e-9.

Arrays are also the only *stored* form of a simulator's state and output.
Per-link and per-flow state (prices, queues, fair rates, DCTCP's windows)
lives in an :class:`ArrayState`; the dict each public attribute promises is
a view refilled when somebody reads it, and a dict that was read or
assigned is authoritative until the next step gathers it back -- so
external writes (fault noise, tests) reach the next step, and steps nobody
observed touch no dict.  A step returns an :class:`IterationRecord`:
immutable id snapshots plus the read-only vectors the step already
allocated, with ``.rates`` / ``.prices`` / ... as cached dict views.
Consumers that want numbers
(:func:`repro.fluid.convergence.convergence_iterations`, the flow-level
loop) read the vectors.

The compiled snapshot is invalidated by
:attr:`FluidNetwork.topology_version`, which moves only on flow/group
arrivals and departures: dynamic scenarios recompile per event, not per
iteration, and capacity changes (Fig. 10) are picked up without recompiling
because capacities are re-read each iteration.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import NumFabricParameters
from repro.core.utility import _EPSILON, Utility
from repro.fluid import network as _network
from repro.fluid.network import FluidFlow, FluidNetwork, FlowId, LinkId

def _clip(inverse: np.ndarray, prices: np.ndarray, max_rates: np.ndarray) -> np.ndarray:
    """``min(inverse, max_rates)``, and ``max_rates`` at non-positive prices
    (Eq. (7)'s clip, as the scalar method), written into ``inverse``."""
    np.minimum(inverse, max_rates, out=inverse)
    np.copyto(inverse, max_rates, where=prices <= 0.0)
    return inverse


class VectorizedUtilities:
    """Per-flow utilities as power-law rows, ``U_i'(x) = c_i * x^-a_i``.

    Each slot holds ``c``, ``a`` and ``1 - a`` (1 where ``math.isclose(a, 1)``,
    the scalar classes' log branch) from :meth:`Utility.power_law_params`,
    so each quantity is one expression over every slot: the marginal
    ``c / x**a``, the inverse ``(c / q)**(1/a)`` clipped as in Eq. (7), and
    the value ``c * x**(1-a) / (1-a)`` (``c * log x`` on log rows).  When
    every row has ``a == 1`` (Fig. 5's all-log flows) the ``**`` is skipped:
    the same bits, as ``x**1.0 == x``, at less cost.

    Utilities without a power law (bandwidth functions, ``LinearUtility``,
    ``alpha = 0``) are ``scalar`` slots, evaluated by calls to their own
    methods; ``exclude``d slots (multipath group members) are the caller's
    to overwrite.  Both are rows with ``c = 0`` and ``a = 1``, which never
    divide by zero.  Churn edits one row and the slot's entries in the
    scalar and ``a != 1`` sets, and drops the cached layout (:meth:`_bind`).
    """

    def __init__(self, utilities: Sequence[Utility], exclude: frozenset = frozenset()):
        self.utilities: List[Utility] = list(utilities)
        self.n = len(self.utilities)
        capacity = max(self.n, 8)
        self._rows = np.repeat([[0.0], [1.0], [1.0]], capacity, axis=1)  # c, a, 1 - a
        self._log = np.ones(capacity, dtype=bool)  # a ~ 1: the value's log branch
        self._scalar: Set[int] = set()  # slots without a power law
        self._power: Set[int] = set()  # slots with a != 1
        self._layout: Optional[tuple] = None
        for slot, utility in enumerate(self.utilities):
            if slot not in exclude:
                self._set(slot, utility)

    def __getstate__(self) -> dict:
        return {**vars(self), "_layout": None}  # the bound closures do not pickle

    def _set(self, slot: int, utility: Utility) -> None:
        power = utility.power_law_params()
        scalar = power is None or power[1] <= 0.0
        c, a = (0.0, 1.0) if scalar else power
        self._log[slot] = log = math.isclose(a, 1.0)
        self._rows[:, slot] = c, a, 1.0 if log else 1.0 - a
        self._mark(slot, scalar, a != 1.0)

    def _mark(self, slot: int, scalar: bool, power: bool) -> None:
        """File ``slot`` under the scalar and ``a != 1`` slots; drop the layout."""
        (self._scalar.add if scalar else self._scalar.discard)(slot)
        (self._power.add if power else self._power.discard)(slot)
        self._layout = None

    def append(self, utility: Utility) -> None:
        """Add one (non-excluded) flow's utility at the next slot."""
        if self.n == self._log.size:  # double the capacity
            self._rows, self._log = np.hstack((self._rows,) * 2), np.hstack((self._log,) * 2)
        self.utilities.append(utility)
        self._set(self.n, utility)
        self.n += 1

    def move(self, src: int, dst: int) -> None:
        """Overwrite slot ``dst`` with slot ``src`` (swap-remove helper)."""
        self.utilities[dst] = self.utilities[src]
        self._rows[:, dst] = self._rows[:, src]
        self._log[dst] = self._log[src]
        self._mark(dst, src in self._scalar, src in self._power)

    def pop(self) -> None:
        """Drop the last slot."""
        self.n -= 1
        self.utilities.pop()
        self._mark(self.n, False, False)

    def replace(self, slot: int, utility: Utility) -> None:
        """Rebind one slot to a different utility object (same flow)."""
        self.utilities[slot] = utility
        self._set(slot, utility)

    def curvature(self, rates: np.ndarray) -> np.ndarray:
        """Elementwise ``-U_i''(rates[i]) = a * U_i'(x) / x`` from the rows (the
        Oracle's Newton Hessian); meaningless on scalar slots."""
        return self._rows[1, : self.n] * self.marginal(rates) / np.maximum(rates, _EPSILON)

    @property
    def fully_vectorized(self) -> bool:
        """True when no flow needs per-flow scalar calls."""
        return not self._scalar

    def marginal(self, rates: np.ndarray) -> np.ndarray:
        """Elementwise ``U_i'(rates[..., i])``; leading axes are allowed (the
        Oracle's price-scale estimate passes a hops x flows matrix)."""
        return (self._layout or self._bind())[2](rates)

    def inverse_marginal_clipped(self, prices: np.ndarray, max_rates: np.ndarray) -> np.ndarray:
        """Elementwise ``min(U_i'^{-1}(prices[i]), max_rates[i])`` (Eq. (7)),
        ``max_rates`` at non-positive prices as the scalar method."""
        return (self._layout or self._bind())[3](prices, max_rates)

    def value(self, rates: np.ndarray) -> np.ndarray:
        """Elementwise ``U_i(rates[i])`` by the rows' formula; scalar slots call ``value``."""
        return (self._layout or self._bind())[4](rates)

    def kernels(self) -> Tuple[Callable, Callable]:
        """The methods' ``(inverse_marginal_clipped, value)``, valid until a churn edit."""
        return (self._layout or self._bind())[3:]

    def _bind(self) -> tuple:
        """The layout, ``(a == 1 everywhere, scalar slots)``, and the marginal,
        clipped inverse and value bound to it and to the current rows."""
        n, utilities, log = self.n, self.utilities, self._log[: self.n]
        c, a, one_minus_a = self._rows[0, :n], self._rows[1, :n], self._rows[2, :n]
        all_log, scalar = not self._power, sorted(self._scalar)
        exponent = None if all_log else 1.0 / a

        def marginal(rates):
            x = np.maximum(rates, _EPSILON)
            out = c / (x if all_log else x**a)
            for i in scalar:
                column = rates[..., i]
                marginals = [utilities[i].marginal(v) for v in column.ravel().tolist()]
                out[..., i] = np.reshape(marginals, column.shape)
            return out

        def inverse_clipped(prices, max_rates):
            ratio = c / np.maximum(prices, _EPSILON)
            out = _clip(ratio if all_log else ratio**exponent, prices, max_rates)
            for i in scalar:
                out[i] = utilities[i].inverse_marginal_clipped(
                    float(prices[i]), float(max_rates[i])
                )
            return out

        def value(rates):
            x = np.maximum(rates, _EPSILON)
            if all_log:
                out = c * np.log(x)
            else:
                out = c * np.where(log, np.log(x), x**one_minus_a / one_minus_a)
            for i in scalar:
                out[i] = utilities[i].value(float(rates[i]))
            return out

        self._layout = (all_log, scalar, marginal, inverse_clipped, value)
        return self._layout


class CompiledFluidNetwork:
    """Array view of a :class:`FluidNetwork` snapshot.

    Holds the per-flow link indices (:attr:`path_links`), path lengths and
    batched utility parameters for the *current* flow set; capacities are
    deliberately not frozen (they are re-read each iteration so
    ``set_capacity`` takes effect without recompiling).

    ``path_links`` is a flows x max-hops ``intp`` array, row ``j`` holding
    flow ``j``'s link indices in path order, padded with the **sentinel**
    index ``len(link_ids)``.  Consumers extend their per-link vector by one
    neutral entry for it (``+inf`` capacity / fair share, zero price / load),
    so water-filling (:func:`waterfill_arrays`) and the link <-> flow
    reductions (:meth:`path_prices`, :meth:`path_capacities`,
    :meth:`link_min`, :meth:`link_load`) cost O(flows x hops) instead of
    O(links x flows).  No dense link x flow matrix exists.

    The slot storage is over-allocated behind a flow-slot map (mirroring
    the flow-level simulation's slot map), so a single arrival or departure
    is an O(path-length) row edit applied by :meth:`refresh` from the
    network's churn journal -- dynamic scenarios do not pay a full
    recompile per event.  Departures swap the last slot into the vacated
    one, so after churn the slot order is an admission/swap order rather
    than the network's dict order; all consumers key their outputs by
    ``flow_ids``, which is maintained in the same slot order.
    """

    __slots__ = (
        "network",
        "version",
        "flows",
        "flow_ids",
        "link_ids",
        "grouped",
        "vec_utils",
        "_link_index",
        "_slot_of",
        "_count",
        "_path_links",
        "_link_getter",
        "_path_len",
        "_capacities_vec",
        "_capacities_version",
        "_path_caps",
        "_path_caps_version",
        "_link_ext",
        "_flow_id_snapshot",
        "_bindings_seen",
    )

    def __init__(self, network: FluidNetwork):
        self.network = network
        self.version = network.topology_version
        self.flows: List[FluidFlow] = network.flows
        self.flow_ids: List[FlowId] = [flow.flow_id for flow in self.flows]
        self.link_ids: List[LinkId] = network.links
        self._link_index = {link: i for i, link in enumerate(self.link_ids)}
        n_links, n_flows = len(self.link_ids), len(self.flows)
        columns = max(n_flows, 8)
        hops = max((len(flow.path) for flow in self.flows), default=1)
        path_links = np.full((columns, hops), n_links, dtype=np.intp)
        for j, flow in enumerate(self.flows):
            rows = [self._link_index[link] for link in flow.path]
            path_links[j, : len(rows)] = rows
        self._path_links = path_links
        self._link_getter = itemgetter(*self.link_ids)  # C-level read, see link_vector
        self._count = n_flows
        path_len = np.zeros(columns)
        path_len[:n_flows] = [len(flow.path) for flow in self.flows]
        self._path_len = path_len
        self._slot_of = {flow_id: j for j, flow_id in enumerate(self.flow_ids)}
        self.grouped: List[Tuple[int, FluidFlow]] = [
            (j, flow) for j, flow in enumerate(self.flows) if flow.group_id is not None
        ]
        self.vec_utils = VectorizedUtilities(
            [flow.utility for flow in self.flows],
            exclude=frozenset(j for j, _ in self.grouped),
        )
        self._capacities_vec: Optional[np.ndarray] = None
        self._capacities_version: int = -1
        self._path_caps = np.zeros(columns)
        self._path_caps_version: int = -1
        # A per-link vector plus the sentinel's zero, for path_prices' take.
        self._link_ext = np.zeros(n_links + 1)
        self._flow_id_snapshot = (self.version, tuple(self.flow_ids))
        # The utilities above were read just now, so every rebind counted so
        # far is already reflected in ``vec_utils`` (see ``_rebound_slots``).
        self._bindings_seen = _network._utility_bindings

    def __getstate__(self) -> Dict[str, object]:
        state = {name: getattr(self, name) for name in self.__slots__}
        # The binding counter is per process: rescan once after a restore.
        state["_bindings_seen"] = -1
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    @property
    def path_links(self) -> np.ndarray:
        """Per-flow link indices, sentinel-padded, in slot order (a view)."""
        return self._path_links[: self._count]

    @property
    def path_len(self) -> np.ndarray:
        """Per-flow path length in slot order (a view)."""
        return self._path_len[: self._count]

    def flow_id_snapshot(self) -> Tuple[FlowId, ...]:
        """The current flow ids in slot order, as an immutable tuple.

        :attr:`flow_ids` is edited in place by churn; records and other
        holders that outlive the next churn event keep this instead.  One
        tuple per topology version, so holders of the same flow set share
        it (and can compare it by identity).
        """
        if self._flow_id_snapshot[0] != self.version:
            self._flow_id_snapshot = (self.version, tuple(self.flow_ids))
        return self._flow_id_snapshot[1]

    def _rebound_slots(self) -> List[int]:
        """Slots whose flow now carries a different utility *object*.

        Detects ``flow.utility = NewUtility(...)`` (the SRPT-style pattern
        of refreshing an ``FctUtility`` as a flow drains): the compiled
        parameter arrays batch the utility objects seen at compile time.
        The identity check is safe because ``vec_utils`` keeps strong
        references (ids cannot be recycled).  Mutating a utility's
        parameters in place is NOT detected -- treat utility instances as
        immutable, as every in-tree caller does.

        The O(flows) scan runs only if some ``FluidFlow.utility`` was
        rebound since this snapshot last scanned clean
        (:data:`repro.fluid.network._utility_bindings`); steps on which no
        flow was rebound anywhere pay one integer compare (an arrival's
        utility is read when :meth:`refresh` appends it).
        """
        bindings = _network._utility_bindings
        if bindings == self._bindings_seen:
            return []
        utilities = self.vec_utils.utilities
        rebound = [j for j, flow in enumerate(self.flows) if flow.utility is not utilities[j]]
        if not rebound:
            self._bindings_seen = bindings
        return rebound

    def is_current(self) -> bool:
        """Whether the snapshot still matches the network's flow/group set
        and every flow's utility object (see :meth:`_rebound_slots`)."""
        return self.version == self.network.topology_version and not self._rebound_slots()

    def refresh(self) -> str:
        """Bring the snapshot up to date in place, if possible.

        Returns ``"current"`` (nothing changed), ``"updated"`` (incremental
        column edits and/or in-place utility rebinds were applied and the
        snapshot is now up to date) or ``"stale"`` (the changes cannot be
        replayed -- multipath groups are involved or the network's bounded
        churn journal no longer covers the gap -- and the caller must
        recompile from scratch).
        """
        network = self.network
        changed = False
        if self.version != network.topology_version:
            if self.grouped or network.groups:
                return "stale"
            events = network.churn_since(self.version)
            if events is None:
                return "stale"
            for _, op, payload in events:
                if op == "add" and payload.group_id is None:
                    self._append_flow(payload)
                elif op == "remove" and payload.flow_id in self._slot_of:
                    self._remove_flow(payload.flow_id)
                else:  # group churn, or a replay hole: rebuild from scratch
                    return "stale"
            self.version = network.topology_version
            changed = True
        rebound = self._rebound_slots()
        if rebound:
            if self.grouped:
                return "stale"  # excluded slots must not be re-classified
            for j in rebound:
                self.vec_utils.replace(j, self.flows[j].utility)
            changed = True
        return "updated" if changed else "current"

    def _grow_columns(self, extra: int) -> None:
        needed = self._count + extra
        if needed <= len(self._path_len):
            return
        columns = max(needed, 2 * len(self._path_len))
        n_links = len(self.link_ids)
        path_len = np.zeros(columns)
        path_len[: self._count] = self._path_len[: self._count]
        self._path_len = path_len
        path_caps = np.zeros(columns)
        path_caps[: self._count] = self._path_caps[: self._count]
        self._path_caps = path_caps
        path_links = np.full((columns, self._path_links.shape[1]), n_links, dtype=np.intp)
        path_links[: self._count] = self._path_links[: self._count]
        self._path_links = path_links

    def _append_flow(self, flow: FluidFlow) -> None:
        """O(path) row edit: one arrival into the next free slot."""
        self._grow_columns(1)
        slot = self._count
        rows = [self._link_index[link] for link in flow.path]
        if len(rows) > self._path_links.shape[1]:  # longest path so far: widen
            widened = np.full((len(self._path_links), len(rows)), len(self.link_ids), dtype=np.intp)
            widened[:, : self._path_links.shape[1]] = self._path_links
            self._path_links = widened
        self._path_links[slot, : len(rows)] = rows
        self._path_len[slot] = len(rows)
        if self._path_caps_version == self.network.capacity_version:
            # Extend the path-capacity memo in O(path) (the capacity vector
            # it was built from is the memoized one); after a capacity
            # change, path_capacities recomputes every row anyway.
            self._path_caps[slot] = self._capacities_vec[rows].min()
        self.flows.append(flow)
        self.flow_ids.append(flow.flow_id)
        self._slot_of[flow.flow_id] = slot
        self.vec_utils.append(flow.utility)
        self._count += 1

    def _remove_flow(self, flow_id: FlowId) -> None:
        """O(hops) row edit: swap the last slot into the vacated one."""
        slot = self._slot_of.pop(flow_id)
        last = self._count - 1
        if slot != last:
            self._path_links[slot] = self._path_links[last]
            self._path_len[slot] = self._path_len[last]
            self._path_caps[slot] = self._path_caps[last]
            moved = self.flows[last]
            self.flows[slot] = moved
            self.flow_ids[slot] = moved.flow_id
            self._slot_of[moved.flow_id] = slot
            self.vec_utils.move(last, slot)
        # Keep the invariant that rows beyond ``_count`` are all sentinel, so
        # the next append only writes its path.
        self._path_links[last] = len(self.link_ids)
        self.flows.pop()
        self.flow_ids.pop()
        self.vec_utils.pop()
        self._count = last

    def capacities_vector(self) -> np.ndarray:
        """Current link capacities in compiled link order.

        Memoized on :attr:`FluidNetwork.capacity_version`, so between
        ``set_capacity`` calls this is a cached-array return rather than a
        per-iteration dict walk.  Treat the result as read-only.
        """
        version = self.network.capacity_version
        if self._capacities_vec is None or self._capacities_version != version:
            capacities = self.network.capacities
            self._capacities_vec = np.fromiter(
                (capacities[link] for link in self.link_ids),
                dtype=float,
                count=len(self.link_ids),
            )
            self._capacities_version = version
        return self._capacities_vec

    def path_capacities(self) -> np.ndarray:
        """Per-flow narrowest-link capacity (the Eq. (7) weight clip).

        Memoized on :attr:`FluidNetwork.capacity_version`, like
        :meth:`capacities_vector`, and maintained *incrementally* across
        flow churn (O(path) per arrival, O(1) per departure): the gather +
        min over the hop axis is paid once per capacity change, not once
        per iteration or churn event.  Treat the result as read-only.
        """
        version = self.network.capacity_version
        if self._path_caps_version != version:
            hop_caps = np.concatenate((self.capacities_vector(), (np.inf,))).take(self.path_links)
            self._path_caps[: self._count] = np.minimum.reduce(hop_caps, axis=1)
            self._path_caps_version = version
        return self._path_caps[: self._count]

    def path_prices(self, prices: np.ndarray) -> np.ndarray:
        """Per-flow sum of link prices along the path.

        A flows x hops ``take`` from a sentinel-extended buffer that is
        refilled per call, not reallocated, summed along the contiguous hop
        axis.
        """
        extended = self._link_ext
        extended[:-1] = prices
        return np.add.reduce(extended.take(self.path_links), axis=1)

    def link_min(self, per_flow: np.ndarray) -> np.ndarray:
        """Per-link minimum of a per-flow quantity (``inf`` on empty links)."""
        n_links = len(self.link_ids)
        out = np.empty(n_links + 1)
        out.fill(np.inf)
        path_links = self.path_links
        np.minimum.at(out, path_links.ravel(), per_flow.repeat(path_links.shape[1]))
        return out[:n_links]

    def link_load(self, rates: np.ndarray) -> np.ndarray:
        """Per-link aggregate traffic for a per-flow rate vector."""
        n_links, path_links = len(self.link_ids), self.path_links
        per_hop = rates.repeat(path_links.shape[1])
        return np.bincount(path_links.ravel(), weights=per_hop, minlength=n_links + 1)[:n_links]

    def link_vector(self, values: Mapping[LinkId, float]) -> np.ndarray:
        """Per-link dict state -> array in compiled link order (absent: 0)."""
        try:
            picked = self._link_getter(values)  # a bare value on a one-link network
        except KeyError:
            picked = [values.get(link, 0.0) for link in self.link_ids]
        return np.array(picked, dtype=float, ndmin=1)


def compile_network(network: FluidNetwork) -> CompiledFluidNetwork:
    """Compile the network's current flow set into array form."""
    return CompiledFluidNetwork(network)


def dict_of(keys: Sequence, vector: Optional[np.ndarray]) -> Dict:
    """``vector`` as a dict keyed by ``keys`` (in order); empty for ``None``."""
    return {} if vector is None else dict(zip(keys, vector.tolist()))


class ArrayState:
    """Per-link (or per-flow) simulator state: a vector, read as a dict on demand.

    The steps compute in arrays, so the array *is* the state: :meth:`store`
    takes a step's output vector (in ``keys`` order) and leaves the dict
    stale.  The dict the public attribute promises (``simulator.prices``,
    ``.queues``, ``.windows`` ...) is one object for the holder's lifetime,
    refilled in place by the first :meth:`view` after a step.  Whoever reads
    it may write into it, and whoever assigns the attribute hands in a dict
    of their own, so in both cases the dict is **handed out**: it is
    authoritative until the next step, which gathers its vector back from
    it (:meth:`FluidStepper._link_vector`).  Steps nobody observed never
    touch the dict.

    A reference kept across a step is the same dict the attribute returns,
    but it is only brought up to date by reading the attribute: read
    ``simulator.prices`` after a step before reading or writing through it.

    >>> state = ArrayState({"a": 1.0, "b": 2.0})
    >>> held = state.view()
    >>> state.store(("a", "b"), np.array([3.0, 4.0]))   # a step
    >>> state.handed_out                                 # nobody looked
    False
    >>> state.view()["b"] = 9.0                          # an external write
    >>> state.handed_out, state.view(), state.view() is held
    (True, {'a': 3.0, 'b': 9.0}, True)
    """

    __slots__ = ("keys", "vector", "handed_out", "_dict")

    def __init__(self, initial: Dict):
        self.keys: Sequence = ()
        self.vector: Optional[np.ndarray] = None
        #: Whether the dict is current, so a caller may have written to it.
        self.handed_out = True
        self._dict = initial

    def view(self) -> Dict:
        """The state as a live, writable dict."""
        if not self.handed_out:
            self._dict.clear()
            self._dict.update(zip(self.keys, self.vector.tolist()))
            self.handed_out = True
        return self._dict

    def store(self, keys: Sequence, vector: np.ndarray) -> None:
        """Make a step's output the state; the dict is stale until next read."""
        self.keys = keys
        self.vector = vector
        self.handed_out = False


class state_view:
    """Simulator class attribute backed by an :class:`ArrayState`.

    ``prices = state_view()`` makes ``simulator.prices`` read as the state's
    dict view and ``simulator.prices = {...}`` start a fresh state from the
    caller's dict; the holder itself lives in ``simulator._prices`` for the
    step to read as a vector.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self._holder = "_" + name

    def __get__(self, simulator, owner=None):
        if simulator is None:
            return self
        return simulator.__dict__[self._holder].view()

    def __set__(self, simulator, values: Dict) -> None:
        simulator.__dict__[self._holder] = ArrayState(values)


class IterationRecord:
    """Immutable snapshot of one simulator iteration.

    A step passes the id snapshots (``flow_ids`` from
    :meth:`CompiledFluidNetwork.flow_id_snapshot`, ``link_ids``) and the
    vectors it already allocated -- ``rate_vec`` plus its scheme's state
    vectors, kept by reference and made read-only, never copied.  The dict
    fields are cached properties built on first read; a field the scheme
    does not keep reads as ``{}``.  A record built from dicts
    (``IterationRecord(0, rates={...})``) holds them where the cache would.
    """

    rate_vec = weight_vec = price_vec = queue_vec = fair_rate_vec = None

    def __init__(
        self,
        iteration: int,
        flow_ids: Sequence[FlowId] = (),
        link_ids: Sequence[LinkId] = (),
        **fields,
    ):
        self.iteration = iteration
        self.flow_ids = flow_ids
        self.link_ids = link_ids
        for value in fields.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self.__dict__.update(fields)

    @cached_property
    def rates(self) -> Dict[FlowId, float]:
        return dict_of(self.flow_ids, self.rate_vec)

    @cached_property
    def weights(self) -> Dict[FlowId, float]:
        return dict_of(self.flow_ids, self.weight_vec)

    @cached_property
    def prices(self) -> Dict[LinkId, float]:
        return dict_of(self.link_ids, self.price_vec)

    @cached_property
    def queues(self) -> Dict[LinkId, float]:
        return dict_of(self.link_ids, self.queue_vec)

    @cached_property
    def fair_rates(self) -> Dict[LinkId, float]:
        return dict_of(self.link_ids, self.fair_rate_vec)


class RateGather:
    """Reads array-backed records' rates in a caller's own flow order.

    ``gather(record, wanted)`` is ``[record.rates.get(f, 0.0) for f in
    wanted]`` as a vector, without the dict: a ``take`` from
    ``record.rate_vec`` -- or, when some wanted flow is absent, from the
    vector extended by a trailing 0 that the absent flows index.  The index
    is rebuilt only when the record's ``flow_ids`` tuple is a new one (one
    per flow set, see :meth:`CompiledFluidNetwork.flow_id_snapshot`); a
    caller whose ``wanted`` order changes calls :meth:`reset`.
    """

    __slots__ = ("_flow_ids", "_index", "_extended")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._flow_ids: Optional[Sequence[FlowId]] = None
        self._index: Optional[np.ndarray] = None
        #: The rates plus the absent flows' 0, when some wanted flow is absent.
        self._extended: Optional[np.ndarray] = None

    def __call__(self, record, wanted: Sequence[FlowId]) -> np.ndarray:
        flow_ids = record.flow_ids
        if self._flow_ids is not flow_ids:
            present = len(flow_ids)
            position = dict(zip(flow_ids, range(present)))
            self._index = np.fromiter(
                map(position.get, wanted, repeat(present)), dtype=np.intp, count=len(wanted)
            )
            some_absent = self._index.size and self._index.max() == present
            self._extended = np.zeros(present + 1) if some_absent else None
            self._flow_ids = flow_ids
        if self._extended is None:
            return record.rate_vec.take(self._index)
        self._extended[:-1] = record.rate_vec
        return self._extended.take(self._index)


class FluidStepper:
    """One fluid scheme's control loop over a :class:`FluidNetwork`.

    The paper models every scheme alike: a rate rule and a price (or
    window) rule, applied once per update interval.  This base owns the
    rest: the network, the parameters, the iteration counter and history,
    the compiled snapshot, :meth:`run` and the record.  A scheme subclass
    names its parameters class (``Parameters``) and the field that holds
    its update interval (``interval``), sets its initial state and defines
    ``step()``, which calls :meth:`_ensure_compiled` first and ends with
    :meth:`_record`.

    Flow churn (and utility rebinds) reach the compiled snapshot
    *incrementally* through :meth:`CompiledFluidNetwork.refresh` -- O(path)
    column edits per arrival or departure -- and a full recompile happens
    only when the journal cannot cover the gap (or multipath groups are
    involved).  :meth:`_on_recompile` lets a scheme realign per-flow state
    vectors (DCTCP's windows) with the new flow order; it fires on
    incremental updates too, since departures reorder slots.
    """

    Parameters: type
    interval: str

    def __init__(self, network: FluidNetwork, params=None):
        self.network = network
        self.params = params or self.Parameters()
        self.iteration = 0
        self.history: List[IterationRecord] = []
        self._compiled: Optional[CompiledFluidNetwork] = None

    def run(self, iterations: int, record_history: bool = True) -> List[IterationRecord]:
        """Run ``iterations`` steps; return (and optionally store) the records.

        ``record_history=False`` keeps memory O(1) for long runs; direct
        ``step()`` calls never touch the history.
        """
        records = [self.step() for _ in range(iterations)]
        if record_history:
            self.history.extend(records)
        return records

    @property
    def seconds_per_iteration(self) -> float:
        """Wall-clock duration of one iteration (the scheme's update interval)."""
        return getattr(self.params, self.interval)

    def _ensure_compiled(self) -> CompiledFluidNetwork:
        compiled = self._compiled
        if compiled is not None:
            status = compiled.refresh()
            if status == "current":
                return compiled
            if status == "updated":
                self._on_recompile(compiled)
                return compiled
        compiled = self._compiled = compile_network(self.network)
        self._on_recompile(compiled)
        return compiled

    def _on_recompile(self, compiled: CompiledFluidNetwork) -> None:
        """Called right after a recompile; default is no extra state."""

    def _link_vector(self, state: ArrayState) -> np.ndarray:
        """A per-link state as a vector in compiled link order (read-only).

        The last step's output as stored, unless the dict was handed out
        since: then it may have been written to, and is gathered again.
        """
        if state.handed_out:
            return self._compiled.link_vector(state.view())
        return state.vector

    def _record(self, flow_ids: Sequence[FlowId], **vectors: np.ndarray) -> IterationRecord:
        """This iteration's record over the compiled links; advances the count."""
        record = IterationRecord(self.iteration, flow_ids, self._compiled.link_ids, **vectors)
        self.iteration += 1
        return record


def waterfill_arrays(
    path_links: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    stats: Optional[Dict[str, int]] = None,
) -> np.ndarray:
    """Weighted max-min water-filling on the padded per-flow link indices.

    Vectorized progressive filling (Bertsekas & Gallager) with *batched
    multi-bottleneck rounds*.  Fair shares are non-decreasing as flows
    freeze (freezing a bottleneck removes load and weight from other links
    in proportion), so every link whose fair share is a **local minimum**
    -- no unfrozen flow on it sees a smaller share on another of its links
    -- is already at its final level and can freeze *in the same round*,
    each at its own share.  That covers exact tie groups (many
    same-capacity edge links at one level) and, beyond them, whole
    independent regions of the fabric at different levels at once: the
    Python round count scales with the depth of the bottleneck dependency
    chain, bounded by the number of distinct bottleneck levels, instead of
    the number of bottleneck links.

    ``path_links`` is the sentinel-padded flows x max-hops link-index array
    (:attr:`CompiledFluidNetwork.path_links`; repeat callers cache it).
    Per-link vectors carry one extra entry for the sentinel index (``+inf``
    remaining capacity, never carrying, never freezing).  The working set
    is the still-unfrozen flows, held hops x flows so the per-flow
    reductions run along the contiguous axis; frozen flows are compacted
    away every round, so a round costs O(live flows x hops).  The round
    that freezes every live flow returns at once: there is nothing left to
    charge to ``remaining`` or to compact.

    ``stats``, when given, receives ``"rounds"`` (freezing rounds executed)
    and ``"levels"`` (distinct fair-share levels frozen) for the
    round-count accounting.
    """
    n_flows, hops = path_links.shape
    n_links = capacities.size
    bins = n_links + 1
    rates = np.zeros(n_flows)
    remaining = np.concatenate((capacities, (np.inf,)))  # float64 copy, sentinel last
    live_links = np.ascontiguousarray(path_links.T)
    live_weights = np.asarray(weights, dtype=float)
    slots: Optional[np.ndarray] = None  # None = identity mapping
    fair_share = np.empty(bins)
    rounds = 0
    levels: set = set()
    while live_weights.size:
        flat = live_links.ravel()
        per_hop = np.concatenate((live_weights,) * hops)
        link_weight = np.bincount(flat, weights=per_hop, minlength=bins)
        link_weight[n_links] = 0.0
        carrying = link_weight > 0.0
        fair_share.fill(np.inf)
        np.divide(remaining, link_weight, out=fair_share, where=carrying)
        # Per-flow bottleneck share: the minimum over the flow's hops.
        hop_share = fair_share.take(live_links)
        flow_share = np.minimum.reduce(hop_share, axis=0)
        # A link freezes when every unfrozen flow on it bottlenecks *here*:
        # no live hop on it belongs to a flow with a smaller share elsewhere.
        elsewhere = np.bincount(flat, weights=(hop_share > flow_share).ravel(), minlength=bins)
        freezing = carrying & (elsewhere == 0.0)
        frozen = np.logical_or.reduce(freezing.take(live_links), axis=0)
        picked = frozen.nonzero()[0]
        if not picked.size:
            break  # leftover flows only cross capacity-exhausted links: rate 0
        frozen_rates = live_weights.take(picked) * flow_share.take(picked)
        rates[picked if slots is None else slots.take(picked)] = frozen_rates
        if stats is not None:
            levels.update(fair_share[freezing].tolist())
        rounds += 1
        if picked.size == live_weights.size:
            break  # the last round: every live flow froze
        remaining -= np.bincount(
            live_links.take(picked, axis=1).ravel(),
            weights=np.concatenate((frozen_rates,) * hops),
            minlength=bins,
        )
        np.maximum(remaining, 0.0, out=remaining)
        alive = (~frozen).nonzero()[0]
        live_links = live_links.take(alive, axis=1)  # take keeps C order, [:, alive] does not
        live_weights = live_weights.take(alive)
        slots = alive if slots is None else slots.take(alive)
    if stats is not None:
        stats["rounds"] = rounds
        stats["levels"] = len(levels)
    return rates


def price_update_arrays(
    prices: np.ndarray,
    min_residuals: np.ndarray,
    utilizations: np.ndarray,
    params: NumFabricParameters,
) -> np.ndarray:
    """Vectorized xWI price update (Eqs. (9)-(11)), all links at once.

    Mirrors :meth:`repro.core.xwi.XwiLinkState.update_price` elementwise:
    links whose minimum residual is infinite (no flows) contribute a
    residual of zero, exactly as the per-link rule.  Computes
    ``beta * p + (1 - beta) * max(p + r - eta * (1 - u) * p, 0)`` in two
    buffers, operation for operation (IEEE ``+`` and ``*`` commute
    exactly), so the inputs are never written.
    """
    new_prices = np.where(np.isfinite(min_residuals), min_residuals, 0.0)
    new_prices += prices
    damping = np.subtract(1.0, utilizations)
    damping *= params.eta
    damping *= prices
    new_prices -= damping
    np.maximum(new_prices, 0.0, out=new_prices)
    new_prices *= 1.0 - params.beta
    new_prices += np.multiply(prices, params.beta, out=damping)
    return new_prices
