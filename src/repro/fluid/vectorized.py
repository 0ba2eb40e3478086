"""The fluid engine's array core: compiled incidence structure + array math.

This module compiles a :class:`~repro.fluid.network.FluidNetwork` snapshot
into

* a padded per-flow **link-index array** (``path_links``) that every
  link <-> flow reduction runs on -- water-filling, the schemes' path sums
  and the Oracle's dual alike -- plus capacity / path-length vectors
  (:class:`CompiledFluidNetwork`), and
* per-flow utility parameters batched by family
  (:class:`VectorizedUtilities`),

so that one control-loop iteration of *any* fluid scheme -- xWI's weight
computation (Eq. (7)), water-filling and price update of Eqs. (9)-(11), but
equally DGD's price dynamics (Eq. (14)), RCP*'s fair-rate dynamics
(Eqs. (15)-(16)) and DCTCP's per-RTT window dynamics -- runs as a handful
of array operations.  The shared building blocks are the path-price /
link-load incidence products, the per-flow narrowest-link capacities and
the family-batched utility evaluations; each scheme adds only its own
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

For repeated weighted max-min solves on a static topology (many weight
vectors, one flow set), :class:`CompiledMaxMin` keeps the compiled
incidence across calls so each solve is pure water-filling, skipping the
dict-to-array rebuild that dominates one-shot
:func:`weighted_max_min_vectorized` calls.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import NumFabricParameters
from repro.core.utility import (
    _EPSILON,
    AlphaFairUtility,
    FctUtility,
    LogUtility,
    Utility,
    WeightedAlphaFairUtility,
)
from repro.fluid import network as _network
from repro.fluid.network import FluidFlow, FluidNetwork, FlowId, LinkId

#: Utility family codes stored per slot by :class:`VectorizedUtilities`.
_EXCLUDED, _FAM_LOG, _FAM_ALPHA, _FAM_WALPHA, _FAM_FCT, _FAM_POWER, _FAM_FALLBACK = range(7)


# Per-family closed forms, shared by the batched and the one-family
# evaluation: ``x`` is a batch of rates (or path prices) and ``p`` the batch's
# parameter rows as :meth:`VectorizedUtilities._classify_into` writes them.
# Each is the scalar method's arithmetic, operation for operation.
_MARGINAL = {
    _FAM_LOG: lambda x, p: p[0] / np.maximum(x, _EPSILON),
    _FAM_ALPHA: lambda x, p: np.maximum(x, _EPSILON) ** (-p[0]),
    _FAM_WALPHA: lambda x, p: p[1] * np.maximum(x, _EPSILON) ** (-p[2]),
    _FAM_FCT: lambda x, p: np.maximum(x, _EPSILON) ** (-p[1]) / p[0],
    _FAM_POWER: lambda x, p: p[0] * np.maximum(x, _EPSILON) ** (-p[1]),
}
_INVERSE = {
    _FAM_LOG: lambda q, p: p[0] / np.maximum(q, _EPSILON),
    _FAM_ALPHA: lambda q, p: np.maximum(q, _EPSILON) ** p[1],
    _FAM_WALPHA: lambda q, p: p[0] * np.maximum(q, _EPSILON) ** p[3],
    _FAM_FCT: lambda q, p: (p[0] * np.maximum(q, _EPSILON)) ** p[2],
    _FAM_POWER: lambda q, p: (np.maximum(q, _EPSILON) / p[0]) ** p[2],
}


def _alpha_fair_value(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    # Match math.isclose(alpha, 1.0) (rel_tol 1e-9, no abs_tol).
    log_branch = np.isclose(a, 1.0, rtol=1e-9, atol=0.0)
    one_minus_a = np.where(log_branch, 1.0, 1.0 - a)
    return np.where(log_branch, np.log(x), x**one_minus_a / one_minus_a)


#: The closed-form families: their value is closed-form too.  Generic power
#: laws evaluate ``value`` through per-flow scalar calls.
_VALUE = {
    _FAM_LOG: lambda x, p: p[0] * np.log(np.maximum(x, _EPSILON)),
    _FAM_ALPHA: lambda x, p: _alpha_fair_value(np.maximum(x, _EPSILON), p[0]),
    _FAM_WALPHA: lambda x, p: p[1] * _alpha_fair_value(np.maximum(x, _EPSILON), p[2]),
    _FAM_FCT: lambda x, p: np.maximum(x, _EPSILON) ** (1.0 - p[1]) / (p[0] * (1.0 - p[1])),
}

#: Parameter rows each batched family uses.
_ROWS = {_FAM_LOG: 1, _FAM_ALPHA: 2, _FAM_WALPHA: 4, _FAM_FCT: 3, _FAM_POWER: 3}


def _clip(inverse: np.ndarray, prices: np.ndarray, max_rates: np.ndarray) -> np.ndarray:
    """``min(inverse, max_rates)``, and ``max_rates`` at non-positive prices
    (Eq. (7)'s clip, as the scalar method), written into ``inverse``."""
    np.minimum(inverse, max_rates, out=inverse)
    np.copyto(inverse, max_rates, where=prices <= 0.0)
    return inverse


class VectorizedUtilities:
    """Per-flow utility parameters compiled into family-batched arrays.

    Flows whose marginal utility is a known closed form (the log /
    alpha-fair / weighted-alpha-fair / FCT families, or any utility exposing
    :meth:`~repro.core.utility.Utility.power_law_params`) are evaluated with
    the exact same arithmetic as their scalar methods, batched per family.
    Anything else (bandwidth-function utilities, custom subclasses) falls
    back to per-flow scalar calls, so correctness never depends on the
    utility being vectorizable.

    ``exclude`` marks indices (e.g. multipath group members, whose weight
    comes from the *group* utility) that are left at zero for the caller to
    overwrite.

    Storage is per-slot (a family code plus up to four parameters per flow)
    so incremental flow churn (:meth:`append`, :meth:`move`, :meth:`pop`,
    :meth:`replace`) is O(1) per event.  When one closed-form family covers
    every slot -- Fig. 5's all-log flows, an all-FCT population -- that is
    remembered (:meth:`single_family`): churn within the family keeps it,
    and the evaluation methods run the family's expression over the whole
    slot arrays.  Otherwise the per-family index/parameter batches are
    regathered lazily with one ``nonzero`` + fancy-index pass per churn
    batch; the first classify into another family drops the flag, and a
    regather that finds one family again restores it.  Both routes give the
    bits of a from-scratch compile, so this never affects parity.
    """

    def __init__(self, utilities: Sequence[Utility], exclude: frozenset = frozenset()):
        self.utilities: List[Utility] = list(utilities)
        n = len(self.utilities)
        self.n = n
        capacity = max(n, 8)
        self._code = np.zeros(capacity, dtype=np.int8)
        self._params = np.zeros((4, capacity))
        self._alpha_eff = np.ones(capacity)
        self._single: Optional[int] = None
        self._batches: Optional[list] = None
        self._fallback: List[int] = []
        for i, utility in enumerate(self.utilities):
            if i not in exclude:
                self._classify_into(i, utility)

    def _classify_into(self, slot: int, utility: Utility) -> None:
        """Write one utility's family code + parameters into its slot."""
        params = self._params
        kind = type(utility)
        alpha_eff = 1.0
        if kind is LogUtility:
            code = _FAM_LOG
            params[0, slot] = utility.weight
        elif kind is AlphaFairUtility and utility.alpha > 0.0:
            code = _FAM_ALPHA
            params[0, slot] = utility.alpha
            params[1, slot] = -1.0 / utility.alpha
            alpha_eff = utility.alpha
        elif kind is WeightedAlphaFairUtility:
            code = _FAM_WALPHA
            params[0, slot] = utility.weight
            params[1, slot] = utility.weight ** utility.alpha
            params[2, slot] = utility.alpha
            params[3, slot] = -1.0 / utility.alpha
            alpha_eff = utility.alpha
        elif kind is FctUtility:
            code = _FAM_FCT
            params[0, slot] = utility.flow_size
            params[1, slot] = utility.epsilon
            params[2, slot] = -1.0 / utility.epsilon
            alpha_eff = utility.epsilon
        else:
            power = utility.power_law_params()
            if power is not None and power[1] > 0.0:
                code = _FAM_POWER
                params[0, slot] = power[0]
                params[1, slot] = power[1]
                params[2, slot] = -1.0 / power[1]
                alpha_eff = power[1]
            else:
                code = _FAM_FALLBACK
        self._code[slot] = code
        self._alpha_eff[slot] = alpha_eff
        if code != self._single:
            self._single = None

    @property
    def curvature_alpha(self) -> np.ndarray:
        """Per-slot demand-curve exponent ``alpha_eff`` (a view).

        Every batched family's inverse marginal is a power law
        ``x ~ q^(-1/alpha_eff)``, so ``|dx/dq| = x / (alpha_eff * q)`` --
        the per-flow term of the dual's diagonal Hessian, used by the SPG
        Oracle to precondition cold solves.  Fallback and excluded slots
        report 1.0 (a neutral curvature guess).
        """
        return self._alpha_eff[: self.n]

    def single_family(self) -> Optional[int]:
        """The closed-form family code of every slot, or ``None``.

        ``None`` for a mixed population (or an empty one, or one holding
        excluded, power-law or fallback slots); the per-family batches are
        then gathered and current.
        """
        if self._single is None and self._batches is None:
            self._regather()
        return self._single

    def _regather(self) -> None:
        """Scan the slot codes: one family covering every slot sets the
        flag, anything else gathers the per-family ``(code, index,
        parameter rows)`` batches and the fallback slots."""
        n = self.n
        code = self._code[:n]
        batches = []
        for family, rows in _ROWS.items():
            index = np.nonzero(code == family)[0]
            if index.size == n and n and family in _VALUE:
                self._single = family
                return
            if index.size:
                params = tuple(self._params[row, index] for row in range(rows))
                batches.append((family, index, params))
        self._batches = batches
        self._fallback = np.nonzero(code == _FAM_FALLBACK)[0].tolist()

    # -- incremental churn (used by CompiledFluidNetwork.refresh) ----------

    def _grow(self, extra: int) -> None:
        needed = self.n + extra
        if needed <= len(self._code):
            return
        capacity = max(needed, 2 * len(self._code))
        code = np.zeros(capacity, dtype=np.int8)
        code[: self.n] = self._code[: self.n]
        params = np.zeros((4, capacity))
        params[:, : self.n] = self._params[:, : self.n]
        alpha_eff = np.ones(capacity)
        alpha_eff[: self.n] = self._alpha_eff[: self.n]
        self._code, self._params, self._alpha_eff = code, params, alpha_eff

    def append(self, utility: Utility) -> None:
        """Add one (non-excluded) flow's utility at the next slot."""
        self._grow(1)
        slot = self.n
        self.utilities.append(utility)
        self._params[:, slot] = 0.0
        self._classify_into(slot, utility)
        self.n += 1
        self._batches = None

    def move(self, src: int, dst: int) -> None:
        """Overwrite slot ``dst`` with slot ``src`` (swap-remove helper)."""
        self.utilities[dst] = self.utilities[src]
        self._code[dst] = self._code[src]
        self._params[:, dst] = self._params[:, src]
        self._alpha_eff[dst] = self._alpha_eff[src]
        self._batches = None

    def pop(self) -> None:
        """Drop the last slot."""
        self.n -= 1
        self.utilities.pop()
        self._batches = None

    def replace(self, slot: int, utility: Utility) -> None:
        """Rebind one slot to a different utility object (same flow)."""
        self.utilities[slot] = utility
        self._params[:, slot] = 0.0
        self._classify_into(slot, utility)
        self._batches = None

    @property
    def fully_vectorized(self) -> bool:
        """True when no flow needs the per-flow scalar fallback."""
        return self.single_family() is not None or not self._fallback

    def marginal(self, rates: np.ndarray) -> np.ndarray:
        """Elementwise ``U_i'(rates[..., i])``; excluded indices are left at 0.

        ``rates`` may carry leading axes (shape ``(..., n)``): the Oracle's
        price-scale estimate evaluates every flow's marginal at one
        equal-share rate per link, a ``links x flows`` matrix, in one call.
        """
        family = self.single_family()
        if family is not None:
            return _MARGINAL[family](rates, self._params[:, : self.n])
        out = np.zeros(rates.shape)
        for family, i, p in self._batches:
            out[..., i] = _MARGINAL[family](rates[..., i], p)
        for i in self._fallback:
            column = rates[..., i]
            if column.ndim == 0:
                out[..., i] = self.utilities[i].marginal(float(column))
            else:
                out[..., i] = np.reshape(
                    [self.utilities[i].marginal(float(v)) for v in column.ravel()],
                    column.shape,
                )
        return out

    def value(self, rates: np.ndarray) -> np.ndarray:
        """Elementwise ``U_i(rates[i])``; excluded indices are left at 0.

        The closed-form families evaluate the exact same arithmetic as their
        scalar ``value`` methods (including the ``alpha ~ 1`` log branch of
        the alpha-fair families); generic power-law and fallback utilities
        use per-flow scalar calls, so the Oracle's dual objective never
        depends on a utility being vectorizable.
        """
        family = self.single_family()
        if family is not None:
            return _VALUE[family](rates, self._params[:, : self.n])
        out = np.zeros(self.n)
        scalar = list(self._fallback)
        for family, i, p in self._batches:
            if family in _VALUE:
                out[i] = _VALUE[family](rates[i], p)
            else:
                scalar.extend(i.tolist())
        for i in scalar:
            out[i] = self.utilities[i].value(float(rates[i]))
        return out

    def inverse_marginal_clipped(self, prices: np.ndarray, max_rates: np.ndarray) -> np.ndarray:
        """Elementwise ``min(U_i'^{-1}(prices[i]), max_rates[i])`` (Eq. (7)).

        Non-positive prices map to ``max_rates`` exactly as in the scalar
        :meth:`Utility.inverse_marginal_clipped`; excluded indices stay 0.
        """
        family = self.single_family()
        if family is not None:
            inverse = _INVERSE[family](prices, self._params[:, : self.n])
            return _clip(inverse, prices, max_rates)
        out = np.zeros(self.n)
        for family, i, p in self._batches:
            q = prices[i]
            out[i] = _clip(_INVERSE[family](q, p), q, max_rates[i])
        for i in self._fallback:
            out[i] = self.utilities[i].inverse_marginal_clipped(
                float(prices[i]), float(max_rates[i])
            )
        return out


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
    O(links x flows).  The dense link x flow matrix is not stored:
    :attr:`incidence` / :attr:`incidence_f` derive it from ``path_links``
    per read, for the parity tests, the ``batch_ties=False`` reference
    schedule and the perf harness's reference rows.

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
    def incidence(self) -> np.ndarray:
        """Boolean link x flow incidence, built from :attr:`path_links` on
        every read: a reference view for tests, never a hot path."""
        dense = np.zeros((len(self.link_ids) + 1, self._count), dtype=bool)
        dense[self.path_links.T, np.arange(self._count)] = True
        return dense[:-1]  # the sentinel row collected the padding

    @property
    def incidence_f(self) -> np.ndarray:
        """Float twin of :attr:`incidence` (derived per read as well)."""
        return self.incidence.astype(float)

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


class CompiledMaxMin:
    """Weighted max-min solver compiled once for a fixed path/link set.

    One-shot :func:`weighted_max_min_vectorized` calls rebuild the link x
    flow incidence matrix from dicts on every invocation, which dominates
    the solve at large flow counts (the ROADMAP's ~2.5x-at-1000-flows
    ceiling).  When the topology is static and only the weights change --
    the xWI inner loop, parameter sweeps, repeated oracle probes -- compile
    the instance once and call :meth:`solve` per weight vector: each solve
    is then pure water-filling (plus an O(flows) weight gather), ~an order
    of magnitude faster than the scalar reference at 1000 flows (see
    ``BENCH_fluid.json``).

    Capacities are frozen at compile time by default; pass ``capacities=``
    to :meth:`solve` to override per call (same link set, e.g. Fig. 10's
    capacity steps) without recompiling.
    """

    __slots__ = ("flow_ids", "link_ids", "incidence", "incidence_f", "path_links",
                 "_flow_index", "_capacities", "_link_index")

    def __init__(
        self,
        paths: Mapping[FlowId, Sequence[LinkId]],
        capacities: Mapping[LinkId, float],
    ):
        # Reuse the scalar entry point's validation (empty/duplicate-link
        # paths, unknown links) so compiled and one-shot calls fail alike.
        from repro.fluid.maxmin import _validate_instance

        self.flow_ids: List[FlowId] = _validate_instance(
            {flow_id: 1.0 for flow_id in paths}, paths, capacities
        )
        self.link_ids: List[LinkId] = list(capacities)
        self._link_index = {link: i for i, link in enumerate(self.link_ids)}
        self._flow_index = {flow_id: j for j, flow_id in enumerate(self.flow_ids)}
        incidence = np.zeros((len(self.link_ids), len(self.flow_ids)), dtype=bool)
        for j, flow_id in enumerate(self.flow_ids):
            for link in paths[flow_id]:
                incidence[self._link_index[link], j] = True
        self.incidence = incidence
        self.incidence_f = incidence.astype(float)
        self.path_links = path_links_from_incidence(incidence)
        self._capacities = np.fromiter(
            (capacities[link] for link in self.link_ids),
            dtype=float,
            count=len(self.link_ids),
        )

    @classmethod
    def from_network(cls, network: FluidNetwork) -> "CompiledMaxMin":
        """Compile the current flow set of a :class:`FluidNetwork`."""
        return cls(
            {flow.flow_id: flow.path for flow in network.flows}, network.capacities
        )

    def capacities_vector(self) -> np.ndarray:
        """The compile-time capacities in compiled link order (a copy)."""
        return self._capacities.copy()

    def solve(
        self,
        weights: Mapping[FlowId, float],
        capacities: Optional[Mapping[LinkId, float]] = None,
    ) -> Dict[FlowId, float]:
        """Weighted max-min rates for one weight vector on the compiled paths.

        Validates the weights exactly like :func:`weighted_max_min` (same
        flow-id cover, positive weights); ``capacities`` optionally
        overrides the compile-time capacities for this call only.
        """
        if len(weights) != len(self.flow_ids) or any(
            flow_id not in self._flow_index for flow_id in weights
        ):
            raise ValueError("weights and paths must cover the same flow ids")
        weight_vec = np.fromiter(
            (weights[flow_id] for flow_id in self.flow_ids),
            dtype=float,
            count=len(self.flow_ids),
        )
        if weight_vec.size and weight_vec.min() <= 0.0:
            bad = self.flow_ids[int(np.argmin(weight_vec))]
            raise ValueError(f"flow {bad!r} must have a positive weight")
        rates = self.solve_array(weight_vec, self._capacity_vector(capacities))
        return dict(zip(self.flow_ids, rates.tolist()))

    def solve_array(
        self,
        weight_vec: np.ndarray,
        capacity_vec: Optional[np.ndarray] = None,
        stats: Optional[Dict[str, int]] = None,
    ) -> np.ndarray:
        """Zero-overhead solve: weights in, rates out, both in compiled order.

        ``stats`` is forwarded to :func:`waterfill_arrays` (freezing-round /
        distinct-level counters).
        """
        return waterfill_arrays(
            self.incidence,
            self.incidence_f,
            weight_vec,
            self._capacities if capacity_vec is None else capacity_vec,
            stats=stats,
            path_links=self.path_links,
        )

    def _capacity_vector(
        self, capacities: Optional[Mapping[LinkId, float]]
    ) -> Optional[np.ndarray]:
        if capacities is None:
            return None
        return np.fromiter(
            (capacities[link] for link in self.link_ids),
            dtype=float,
            count=len(self.link_ids),
        )


def compile_max_min(
    paths: Mapping[FlowId, Sequence[LinkId]], capacities: Mapping[LinkId, float]
) -> CompiledMaxMin:
    """Compile a path/link set for repeated weighted max-min solves."""
    return CompiledMaxMin(paths, capacities)


def path_links_from_incidence(incidence: np.ndarray) -> np.ndarray:
    """Sentinel-padded flows x max-hops link-index array of a dense incidence.

    O(nnz) after one ``nonzero`` scan of the transpose; row ``j`` lists flow
    ``j``'s links in ascending index order, padded with ``n_links`` (see
    :class:`CompiledFluidNetwork` for the sentinel convention).
    """
    n_links, n_flows = incidence.shape
    flows, links = np.nonzero(incidence.T)
    hops = np.bincount(flows, minlength=n_flows)
    path_links = np.full((n_flows, int(hops.max(initial=1))), n_links, dtype=np.intp)
    first_hop = np.cumsum(hops) - hops
    path_links[flows, np.arange(flows.size) - first_hop[flows]] = links
    return path_links


def _waterfill_paths(
    path_links: np.ndarray,
    weights: np.ndarray,
    capacities: np.ndarray,
    stats: Optional[Dict[str, int]],
) -> np.ndarray:
    """Batched-wave water-filling on the padded per-flow link indices.

    Per-link vectors carry one extra entry for the sentinel index (``+inf``
    remaining capacity, never carrying, never freezing).  The working set
    is the still-unfrozen flows, held hops x flows so the per-flow
    reductions run along the contiguous axis; frozen flows are compacted
    away every round, so a round costs O(live flows x hops).  The round
    that freezes every live flow returns at once: there is nothing left to
    charge to ``remaining`` or to compact.
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


def waterfill_arrays(
    incidence: Optional[np.ndarray],
    incidence_f: Optional[np.ndarray],
    weights: np.ndarray,
    capacities: np.ndarray,
    batch_ties: bool = True,
    stats: Optional[Dict[str, int]] = None,
    path_links: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Weighted max-min water-filling on the compiled incidence structure.

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
    the number of bottleneck links.  The rounds run on the padded per-flow
    link indices (:func:`_waterfill_paths`), so each is O(live flows x
    hops) array work at every fabric size; the allocation matches the
    scalar reference in :func:`repro.fluid.maxmin.weighted_max_min` (the
    same unique fixed point, to floating-point reassociation -- 1e-9 gates
    in the tests and the perf harness).

    ``path_links``, when given, must be the sentinel-padded link-index
    array of ``incidence`` (:attr:`CompiledFluidNetwork.path_links`; repeat
    callers cache it); otherwise it is derived from ``incidence`` per call.
    With it, ``incidence`` / ``incidence_f`` may be ``None``: only the
    ``batch_ties=False`` schedule reads the dense pair.

    ``batch_ties=False`` keeps the dense one-bottleneck-per-round schedule
    (the before/after reference for the perf harness).  ``stats``, when
    given, receives ``"rounds"`` (freezing rounds executed) and ``"levels"``
    (distinct fair-share levels frozen) for the round-count accounting.
    """
    if batch_ties:
        if path_links is None:
            path_links = path_links_from_incidence(incidence)
        return _waterfill_paths(path_links, weights, capacities, stats)
    n_links, n_flows = incidence.shape
    rates = np.zeros(n_flows)
    rounds = 0
    levels: set = set()
    if n_flows:
        # One-bottleneck-per-round reference schedule (perf-harness before/
        # after baseline); same allocation, one Python round per bottleneck.
        remaining = capacities.astype(float).copy()
        unfrozen = np.ones(n_flows, dtype=bool)
        unfrozen_weights = weights.astype(float).copy()  # zeroed as flows freeze
        fair_share = np.empty(n_links)
        flows_left = n_flows
        while flows_left:
            link_weight = incidence_f @ unfrozen_weights
            fair_share.fill(np.inf)
            np.divide(remaining, link_weight, out=fair_share, where=link_weight > 0.0)
            bottleneck = int(np.argmin(fair_share))
            share = fair_share[bottleneck]
            if not np.isfinite(share):
                break
            frozen = np.nonzero(incidence[bottleneck] & unfrozen)[0]
            frozen_rates = weights[frozen] * share
            if stats is not None:
                levels.add(float(share))
            rates[frozen] = frozen_rates
            remaining -= incidence_f[:, frozen] @ frozen_rates
            np.maximum(remaining, 0.0, out=remaining)
            unfrozen[frozen] = False
            unfrozen_weights[frozen] = 0.0
            flows_left -= frozen.size
            rounds += 1
    if stats is not None:
        stats["rounds"] = rounds
        stats["levels"] = len(levels)
    return rates


def weighted_max_min_vectorized(
    weights: Mapping[FlowId, float],
    paths: Mapping[FlowId, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
) -> Dict[FlowId, float]:
    """One-shot dict-in / dict-out vectorized weighted max-min.

    A compile-and-solve over :class:`CompiledMaxMin`, so validation (same
    errors as the scalar reference for empty/duplicate-link paths,
    non-positive weights, unknown links, flow-id mismatches) and the
    incidence build live in exactly one place.  For repeated solves on the
    same paths, compile once and reuse the :class:`CompiledMaxMin` instead.
    """
    return CompiledMaxMin(paths, capacities).solve(weights)


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
