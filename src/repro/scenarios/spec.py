"""Declarative scenario specifications: one spec, three engines.

A :class:`ScenarioSpec` is the cartesian product the paper's architecture
promises -- a topology, a workload, a scheme/policy, an allocation
objective and an execution engine -- expressed as data, so every
experiment (and every new scenario) is a spec plus post-processing instead
of a bespoke harness.

The three engines (:data:`ENGINES`):

* ``"fluid"``  -- iteration-level step simulation (``repro.fluid``): static
  or churned flow populations, convergence against the Oracle;
* ``"flow"``   -- flow-level churn (``repro.experiments.dynamic_fluid``):
  sized arrivals, completion times, average rates;
* ``"packet"`` -- the discrete-event packet simulator (``repro.sim`` +
  ``repro.transports``): real queues, windows and retransmissions.

Specs are frozen; use :meth:`ScenarioSpec.using` to derive variants
(different engine, scheme, seed or sizing) without mutating the original:

>>> spec = ScenarioSpec(name="docs/example", topology="single_link",
...                     workload="poisson", engine="flow", seed=1)
>>> spec.using(seed=7).seed
7
>>> spec.seed                       # the original is untouched
1
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Tuple

from repro.scenarios.faults import FaultPlan

ENGINE_FLUID = "fluid"
ENGINE_FLOW = "flow"
ENGINE_PACKET = "packet"

#: All execution engines a scenario can dispatch to.
ENGINES: Tuple[str, ...] = (ENGINE_FLUID, ENGINE_FLOW, ENGINE_PACKET)


@dataclass(frozen=True)
class TopologySpec:
    """Which network to build: a builder kind plus its parameters.

    Kinds understood by the runner: ``leaf_spine``, ``fat_tree``,
    ``single_link``, ``two_path``, ``parking_lot``, ``star``, ``dumbbell``.
    Fluid and packet realizations are built on demand; kinds without a
    packet equivalent simply do not support the packet engine.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)


@dataclass(frozen=True)
class WorkloadSpec:
    """Which traffic to offer.

    Arrival kinds (sized flows; flow/packet engines, or a static population
    on the fluid engine): ``poisson``, ``incast``, ``hotspot``, ``trace``.
    Static/churn kinds (fluid engine): ``semidynamic``, ``permutation``,
    ``fanout`` (persistent equal flows, optional departure schedule),
    ``star_spread``, ``explicit`` (literal flow/group lists).
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)


@dataclass(frozen=True)
class SchemeSpec:
    """Which allocation scheme computes rates.

    ``name`` is one of the evaluation's schemes (``NUMFabric``, ``DGD``,
    ``RCP*``, ``DCTCP``, ``pFabric``) or ``Oracle`` (solve the NUM problem
    directly).  ``params`` is the scheme's parameter dataclass (or None for
    Table 2 defaults); ``options`` are forwarded to the flow engine's rate
    policy (e.g. ``kernel="numba"``) and validated by the runner.
    """

    name: str = "NUMFabric"
    params: Optional[Any] = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.options.get(key, default)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which utility family expresses the allocation objective.

    Kinds: ``log`` (proportional fairness), ``alpha`` (alpha-fairness, with
    ``alpha=1`` collapsing to ``log``), ``weighted_alpha``, ``fct``
    (``x^(1-eps)/s``, sized per flow) and ``per_flow`` (utilities supplied
    by an explicit workload).
    """

    kind: str = "log"
    params: Mapping[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: topology x workload x scheme x objective.

    ``engine`` is the default execution engine; ``engines`` lists every
    engine the scenario supports (the smoke suite runs all of them).
    ``seed`` feeds every stochastic component -- workload generators, ECMP
    tie-breaks -- so two runs of the same spec are bit-identical.
    ``sizing`` holds engine-facing knobs (iterations, duration,
    step_interval, record_timeseries, capacity_schedule, ...), kept loose on
    purpose: they size a run, they do not define the scenario.
    ``faults`` is an optional :class:`~repro.scenarios.faults.FaultPlan`
    the runner compiles and injects into whichever engine executes the
    scenario (link failures, degradation, fluctuating capacity,
    control-plane loss); fault times are seconds from run start.
    """

    name: str
    topology: TopologySpec
    workload: WorkloadSpec
    scheme: SchemeSpec = field(default_factory=SchemeSpec)
    objective: ObjectiveSpec = field(default_factory=ObjectiveSpec)
    engine: str = ENGINE_FLUID
    engines: Tuple[str, ...] = ()
    seed: Optional[int] = None
    sizing: Mapping[str, Any] = field(default_factory=dict)
    faults: Optional[FaultPlan] = None
    description: str = ""
    paper_reference: str = ""

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        engines = tuple(self.engines) if self.engines else (self.engine,)
        for engine in engines:
            if engine not in ENGINES:
                raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        if self.engine not in engines:
            engines = (self.engine,) + engines
        object.__setattr__(self, "engines", engines)
        object.__setattr__(self, "topology", _as_spec(self.topology, TopologySpec))
        object.__setattr__(self, "workload", _as_spec(self.workload, WorkloadSpec))
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan, got {type(self.faults).__name__}"
            )

    def using(
        self,
        *,
        engine: Optional[str] = None,
        seed: Optional[int] = None,
        scheme: Optional[SchemeSpec] = None,
        objective: Optional[ObjectiveSpec] = None,
        faults: Optional[FaultPlan] = None,
        **sizing: Any,
    ) -> "ScenarioSpec":
        """Derive a variant spec; ``sizing`` keys merge over the originals.

        >>> spec = ScenarioSpec(name="docs/example", topology="single_link",
        ...                     workload="poisson", engine="flow")
        >>> spec.using(max_time=0.5).size("max_time")
        0.5
        >>> spec.using(engine="packet")
        Traceback (most recent call last):
            ...
        ValueError: scenario 'docs/example' does not support engine 'packet' (supported: ('flow',))

        Unknown keyword arguments land in ``sizing``, **not** in the
        workload -- workload parameters are part of the scenario's
        identity and need :func:`dataclasses.replace`:

        >>> spec.using(num_flows=50).workload.get("num_flows") is None
        True
        >>> from dataclasses import replace
        >>> wider = replace(spec, workload=replace(spec.workload,
        ...                                        params={"num_flows": 50}))
        >>> wider.workload.get("num_flows")
        50
        """
        changes: dict = {}
        if faults is not None:
            changes["faults"] = faults
        if engine is not None:
            if engine not in self.engines:
                raise ValueError(
                    f"scenario {self.name!r} does not support engine {engine!r} "
                    f"(supported: {self.engines})"
                )
            changes["engine"] = engine
        if seed is not None:
            changes["seed"] = seed
        if scheme is not None:
            changes["scheme"] = scheme
        if objective is not None:
            changes["objective"] = objective
        if sizing:
            merged = dict(self.sizing)
            merged.update(sizing)
            changes["sizing"] = merged
        return replace(self, **changes)

    def size(self, key: str, default: Any = None) -> Any:
        """Look up a sizing knob.

        >>> ScenarioSpec(name="s", topology="single_link", workload="poisson",
        ...              sizing={"max_time": 0.1}).size("max_time")
        0.1
        >>> ScenarioSpec(name="s", topology="single_link",
        ...              workload="poisson").size("missing", 42)
        42
        """
        return self.sizing.get(key, default)


def _as_spec(value: Any, cls: type) -> Any:
    if isinstance(value, cls):
        return value
    if isinstance(value, str):
        return cls(kind=value)
    raise TypeError(f"expected {cls.__name__} or kind string, got {type(value).__name__}")
