"""``run_scenario``: one entry point, three execution engines.

Every experiment harness -- and the ``python -m repro`` CLI -- funnels
through this runner.  Given a :class:`~repro.scenarios.spec.ScenarioSpec`
it builds the topology, realizes the workload, instantiates the scheme and
executes on the requested engine, returning an
:class:`~repro.results.ExperimentResult` whose rows are the
engine's natural output (rates, convergence times or completions) and
whose ``artifacts`` carry the raw objects harnesses post-process.

Artifacts by engine:

* ``fluid`` (static): ``final_rates`` (flow -> bits/s), ``network``,
  optionally ``timeseries`` (list of per-step rate dicts),
  ``oracle_rates`` and ``convergence`` (when measuring convergence);
  with a fault plan additionally ``resilience`` (the
  :func:`~repro.analysis.resilience.resilience_report` dict),
  ``post_fault_oracle`` and -- for control-plane faults -- ``control_drops``;
* ``fluid`` (semidynamic): ``convergence_seconds`` (one per event),
  ``events`` (the event records);
* ``flow``: ``completions`` (:class:`CompletedFlow` list), ``arrivals``;
* ``flow`` with ``streaming=True`` (or :func:`run_scenario_streaming`):
  ``streaming`` (the live :class:`~repro.results.StreamingResult`),
  ``utilization_windows``, ``arrivals_consumed`` -- and **no** per-flow
  dump, so memory stays bounded on long-horizon replays;
* ``packet``: ``completions`` (:class:`FlowCompletion` list),
  ``arrivals`` and the live ``network`` (monitors, ports, queues).

A spec's :class:`~repro.scenarios.faults.FaultPlan` is compiled once per
run and injected into whichever engine executes: the fluid engine merges it
onto the same step grid as the legacy sizing-level ``capacity_schedule``,
the flow engine applies it at step boundaries through a
:class:`~repro.scenarios.faults.CapacityInjector`, and the packet engine
schedules ``OutputPort.set_rate`` events on the ports realizing the
faulted fluid links.
"""

from __future__ import annotations

import gc
import os
import pickle
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.results import ExperimentResult, StreamingResult
from repro.fluid.convergence import ConvergenceCriterion, ConvergenceJudge
from repro.fluid.dctcp import DctcpFluidSimulator
from repro.fluid.dgd import DgdFluidSimulator
from repro.fluid.network import FluidFlow, FluidNetwork
from repro.fluid.oracle import solve_num
from repro.fluid.rcp import RcpStarFluidSimulator
from repro.fluid.xwi import XwiFluidSimulator
from repro.scenarios.faults import CapacityInjector, compile_step_schedule
from repro.scenarios.materialize import (
    ARRIVAL_WORKLOADS,
    FluidTopology,
    build_fluid_topology,
    build_semidynamic,
    materialize_arrivals,
    populate_static_flows,
    stream_arrivals,
    utility_for_arrival_factory,
)
from repro.scenarios.spec import (
    ENGINE_FLOW,
    ENGINE_FLUID,
    ENGINE_PACKET,
    ScenarioSpec,
)

#: Fluid control-loop simulators by scheme name.
FLUID_SIMULATORS = {
    "NUMFabric": XwiFluidSimulator,
    "DGD": DgdFluidSimulator,
    "RCP*": RcpStarFluidSimulator,
    "DCTCP": DctcpFluidSimulator,
}


def run_scenario(
    spec: ScenarioSpec,
    *,
    engine: Optional[str] = None,
    seed: Optional[int] = None,
    scheme=None,
    objective=None,
    **sizing,
) -> ExperimentResult:
    """Execute a scenario spec on one of the three engines.

    ``engine``/``seed``/``scheme``/``objective``/``sizing`` override the
    spec without mutating it; the engine must be one the spec declares
    support for.

    >>> from repro.scenarios import get_scenario
    >>> result = run_scenario(get_scenario("unit/dumbbell-websearch"),
    ...                       engine="flow", seed=1)
    >>> len(result.rows)
    24
    >>> sorted(result.rows[0])
    ['average_rate_bps', 'fct', 'finish_time', 'flow', 'size_bytes', 'start_time']
    """
    overrides = engine is not None or seed is not None or scheme is not None
    if overrides or objective is not None or sizing:
        spec = spec.using(
            engine=engine, seed=seed, scheme=scheme, objective=objective, **sizing
        )
    result = ExperimentResult(
        experiment_id=spec.name,
        title=spec.description or spec.name,
        paper_reference=spec.paper_reference,
    )
    result.artifacts["spec"] = spec
    result.artifacts["engine"] = spec.engine
    if spec.engine == ENGINE_FLUID:
        _run_fluid(spec, result)
    elif spec.engine == ENGINE_FLOW:
        _run_flow(spec, result)
    elif spec.engine == ENGINE_PACKET:
        _run_packet(spec, result)
    else:  # pragma: no cover - ScenarioSpec already validates
        raise ValueError(f"unknown engine {spec.engine!r}")
    return result


# -- fluid engine -----------------------------------------------------------


def _make_fluid_simulator(spec: ScenarioSpec, network: FluidNetwork):
    try:
        simulator_cls = FLUID_SIMULATORS[spec.scheme.name]
    except KeyError:
        raise ValueError(
            f"scheme {spec.scheme.name!r} has no fluid simulator; "
            f"expected one of {sorted(FLUID_SIMULATORS)} or 'Oracle'"
        ) from None
    return simulator_cls(network, params=spec.scheme.params)


def _run_fluid(spec: ScenarioSpec, result: ExperimentResult) -> None:
    topo = build_fluid_topology(spec)
    if spec.workload.kind == "semidynamic":
        _run_fluid_semidynamic(spec, topo, result)
        return
    populate_static_flows(spec, topo)
    network = topo.network
    result.artifacts["network"] = network

    if spec.scheme.name == "Oracle":
        solution = solve_num(network)
        result.artifacts["final_rates"] = solution.rates
        for flow in network.flows:
            result.add_row(flow=flow.flow_id, rate_bps=solution.rates.get(flow.flow_id, 0.0))
        return

    measure = spec.size("measure", "rates")
    optimal: Optional[Dict] = None
    if measure == "convergence" or spec.size("compare_oracle", False):
        optimal = solve_num(network).rates
        result.artifacts["oracle_rates"] = optimal

    simulator = _make_fluid_simulator(spec, network)
    iterations = spec.size("iterations", 200)

    if measure == "convergence":
        # Convergence against the Oracle on a fixed flow set (Fig. 6's inner
        # measurement); churn/capacity schedules do not apply here.  Each
        # record is judged as it arrives; only the last one is kept.
        criterion = spec.size("criterion") or ConvergenceCriterion(hold_iterations=3)
        judge = ConvergenceJudge(optimal, criterion)
        record = None
        for _ in range(iterations):
            record = simulator.step()
            judge.observe(record)
        result.artifacts["final_rates"] = record.rates if record is not None else {}
        its = judge.verdict
        seconds = None if its is None else its * simulator.seconds_per_iteration
        result.artifacts["convergence"] = {"iterations": its, "seconds": seconds}
        result.add_row(
            scheme=spec.scheme.name,
            converged=its is not None,
            iterations=its,
            seconds=seconds,
        )
        return

    departures: Dict[int, List] = {}
    for at_step, flow_ids in spec.workload.get("departures", ()):
        departures.setdefault(at_step, []).extend(flow_ids)
    capacity_schedule: Dict[int, List] = {}
    for at_step, link, capacity in spec.size("capacity_schedule", ()):
        capacity_schedule.setdefault(at_step, []).append((link, capacity))

    # Compile the fault plan (if any) onto the same step grid as the legacy
    # sizing-level capacity_schedule -- one injection mechanism for both.
    plan = spec.faults
    dt = simulator.seconds_per_iteration
    noise = None
    fault_steps: List[int] = []
    if plan is not None:
        fault_seed = spec.seed if spec.seed is not None else 0
        timeline = plan.capacity_timeline(dict(network.capacities), fault_seed)
        for at_step, changes in compile_step_schedule(timeline, dt).items():
            capacity_schedule.setdefault(at_step, []).extend(changes)
            fault_steps.append(at_step)
        noise = plan.control_noise(fault_seed)

    record_timeseries = spec.size("record_timeseries", False)
    keep_timeseries = record_timeseries or plan is not None
    timeseries: List[Dict] = []
    record = None

    for step in range(iterations):
        for flow_id in departures.get(step, ()):
            network.remove_flow(flow_id)
        for link, capacity in capacity_schedule.get(step, ()):
            network.set_capacity(link, capacity)
        snapshot = None
        if noise is not None:
            prices = getattr(simulator, "prices", None)
            if prices is not None:
                snapshot = noise.snapshot(step * dt, prices)
        record = simulator.step()
        if snapshot is not None:
            noise.apply(step * dt, simulator.prices, snapshot)
        if keep_timeseries:
            timeseries.append(record.rates)

    last_rates: Dict = record.rates if record is not None else {}
    result.artifacts["final_rates"] = last_rates
    if keep_timeseries:
        result.artifacts["timeseries"] = timeseries
        result.artifacts["seconds_per_iteration"] = dt
    if noise is not None:
        result.artifacts["control_drops"] = noise.drops

    if plan is not None and fault_steps and timeseries:
        from repro.analysis.resilience import resilience_report

        post_oracle = solve_num(network).rates
        result.artifacts["post_fault_oracle"] = post_oracle
        faulted = set(plan.affected_links)
        affected = [
            flow.flow_id for flow in network.flows if faulted.intersection(flow.path)
        ]
        result.artifacts["resilience"] = resilience_report(
            timeseries,
            fault_steps,
            post_oracle,
            dt,
            affected,
            criterion=spec.size("criterion"),
        ).as_dict()

    for flow in network.flows:
        result.add_row(flow=flow.flow_id, rate_bps=last_rates.get(flow.flow_id, 0.0))


def _sync_flows(network: FluidNetwork, topo: FluidTopology, scenario, active_ids,
                utility_for) -> None:
    """Make the network's flow set equal to the scenario's active path set."""
    active = set(active_ids)
    existing = set(network.flow_ids)
    for flow_id in existing - active:
        network.remove_flow(flow_id)
    for path_id in active - existing:
        candidate = scenario.path(path_id)
        path = topo.path_for(candidate.source, candidate.destination, candidate.spine)
        network.add_flow(FluidFlow(path_id, path, utility_for(path_id)))


def _run_fluid_semidynamic(
    spec: ScenarioSpec, topo: FluidTopology, result: ExperimentResult
) -> None:
    """Per-event convergence measurement (Fig. 4(a)'s inner loop)."""
    from repro.scenarios.materialize import utility_factory

    if spec.scheme.name == "Oracle":
        raise ValueError("the semidynamic fluid scenario measures schemes against the Oracle")
    scenario = build_semidynamic(spec, topo)
    scenario.initialize()
    network = topo.network
    simulator = _make_fluid_simulator(spec, network)
    criterion = spec.size("criterion") or ConvergenceCriterion(hold_iterations=3)
    max_iterations = spec.size("max_iterations", 300)
    make_utility = utility_factory(spec.objective)

    def utility_for(path_id):
        return make_utility()

    # Several schemes run the *same* seeded scenario (identical event
    # sequences, identical flow sets), so the per-event Oracle solves can be
    # shared across runs: pass one dict as ``oracle_cache`` in the sizing
    # and the runner keys solves by the event's exact active path set.
    oracle_cache = spec.size("oracle_cache")

    events = scenario.events(spec.workload.get("num_events", 5))
    convergence_seconds: List[float] = []
    for event in events:
        _sync_flows(network, topo, scenario, event.active_after, utility_for)
        if oracle_cache is None:
            oracle_rates = solve_num(network).rates
        else:
            cache_key = event.active_after
            oracle_rates = oracle_cache.get(cache_key)
            if oracle_rates is None:
                oracle_rates = solve_num(network).rates
                oracle_cache[cache_key] = oracle_rates
        # Every event runs its full iteration budget (the next event starts
        # from this state); the judge stops looking once it has a verdict.
        judge = ConvergenceJudge(oracle_rates, criterion)
        for _ in range(max_iterations):
            judge.observe(simulator.step())
        its = judge.verdict
        if its is None:
            its = max_iterations
        seconds = its * simulator.seconds_per_iteration
        convergence_seconds.append(seconds)
        result.add_row(
            scheme=spec.scheme.name,
            event=event.event_id,
            kind=event.kind,
            flows_active=len(event.active_after),
            iterations=its,
            seconds=seconds,
        )
    result.artifacts["convergence_seconds"] = convergence_seconds
    result.artifacts["events"] = events
    result.artifacts["network"] = network


# -- flow engine ------------------------------------------------------------


def _check_flow_workload(spec: ScenarioSpec) -> None:
    if spec.workload.kind not in ARRIVAL_WORKLOADS + ("semidynamic",):
        raise ValueError(
            f"workload kind {spec.workload.kind!r} does not produce sized arrivals "
            "for the flow engine"
        )


def _flow_policy(spec: ScenarioSpec):
    """The spec's rate policy: the Oracle, or the scheme's fluid simulator."""
    from repro.experiments.dynamic_fluid import OracleRatePolicy, scheme_rate_policy

    if spec.scheme.name == "Oracle":
        return OracleRatePolicy()
    return scheme_rate_policy(spec.scheme.name, spec.scheme.params)


def _build_flow_simulation(spec: ScenarioSpec, topo: FluidTopology):
    from repro.experiments.dynamic_fluid import FlowLevelSimulation

    fault_injector = None
    if spec.faults is not None:
        fault_seed = spec.seed if spec.seed is not None else 0
        fault_injector = CapacityInjector(
            spec.faults.capacity_timeline(dict(topo.network.capacities), fault_seed)
        )
    return FlowLevelSimulation(
        topo.network,
        lambda arrival: topo.path_for(arrival.source, arrival.destination, arrival.flow_id),
        _flow_policy(spec),
        step_interval=spec.size("step_interval", 30e-6),
        utility_for_arrival=utility_for_arrival_factory(spec.objective),
        fault_injector=fault_injector,
    )


def _run_flow(spec: ScenarioSpec, result: ExperimentResult) -> None:
    if spec.size("streaming", False):
        _run_flow_streaming(spec, result)
        return
    _check_flow_workload(spec)
    topo = build_fluid_topology(spec)
    arrivals = materialize_arrivals(spec, topo)
    simulation = _build_flow_simulation(spec, topo)
    completed = simulation.run(arrivals, max_time=spec.size("max_time"))
    result.artifacts["completions"] = completed
    result.artifacts["arrivals"] = arrivals
    result.artifacts["network"] = topo.network
    for flow in completed:
        result.add_row(
            flow=flow.flow_id,
            size_bytes=flow.size_bytes,
            start_time=flow.start_time,
            finish_time=flow.finish_time,
            fct=flow.fct,
            average_rate_bps=flow.average_rate,
        )


# -- flow engine, streaming (bounded memory + checkpoint/resume) ------------

#: Bumped whenever the checkpoint payload layout changes; mismatched
#: checkpoints are rejected rather than misinterpreted.  Version 2: the
#: pickled ``OracleRatePolicy`` / ``PersistentDualSolver`` lost their
#: solver-selection attributes.  Version 3: the fluid simulators pickle
#: their state as vectors (``ArrayState``) and ``GKQuantiles`` gained the
#: key list parallel to its entries.  Version 4: compiled fluid snapshots
#: key their path-capacity memo on the capacity version, utility batches
#: remember a single family, and ``RateGather`` keeps its extended buffer.
#: Version 5: compiled fluid snapshots lost their CSR cache slots, and the
#: xWI simulator and the persistent dual solver their ``kernel`` attribute.
#: Version 6: the fluid simulators share one base and one record class and
#: lost their ``backend`` and ``record_detail`` attributes.  Version 7: the
#: flow-level simulation lost its ``backend`` attribute and its three
#: per-flow dicts.  Version 8: utility batches pickle as power-law rows
#: instead of family codes and per-family parameters.  Version 9: the
#: simulator rate policy pickles its simulator class and parameters (no
#: factory closure), and the flow-level simulation lost its rate cache.
CHECKPOINT_VERSION = 9


def _checkpoint_fingerprint(spec: ScenarioSpec) -> str:
    # Function-level import: ``repro.sweep`` imports ``repro.scenarios`` at
    # package-init time, so a module-level import here would be circular.
    from repro.sweep.cache import spec_fingerprint

    return spec_fingerprint(spec)


def write_checkpoint(path: Union[str, Path], payload: Dict) -> Path:
    """Atomically pickle a checkpoint payload (mkstemp + ``os.replace``).

    Same crash-only contract as the sweep cache: a ``kill -9`` at any
    instant leaves either the previous complete checkpoint or the new one,
    never a torn file.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "run.ckpt")
    >>> _ = write_checkpoint(path, {"version": CHECKPOINT_VERSION,
    ...                             "spec_fingerprint": "demo", "consumed": 0})
    >>> import pickle
    >>> pickle.load(open(path, "rb"))["consumed"]
    0
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_checkpoint(path: Union[str, Path], spec: ScenarioSpec) -> Dict:
    """Read and validate a checkpoint written for exactly this spec.

    Raises :class:`ValueError` if the file was written by a different
    checkpoint format or for a different (spec, engine, seed) -- resuming
    someone else's state would silently corrupt the run.

    >>> import tempfile, os
    >>> from repro.scenarios import get_scenario
    >>> spec = get_scenario("fig5/websearch")
    >>> path = os.path.join(tempfile.mkdtemp(), "run.ckpt")
    >>> _ = write_checkpoint(path, {"version": CHECKPOINT_VERSION,
    ...     "spec_fingerprint": _checkpoint_fingerprint(spec), "consumed": 5})
    >>> load_checkpoint(path, spec)["consumed"]
    5
    >>> load_checkpoint(path, spec.using(seed=99))
    Traceback (most recent call last):
        ...
    ValueError: checkpoint ... was written for a different scenario (spec fingerprint mismatch); refusing to resume
    """
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path} has format version {version!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    fingerprint = _checkpoint_fingerprint(spec)
    if payload.get("spec_fingerprint") != fingerprint:
        raise ValueError(
            f"checkpoint {path} was written for a different scenario "
            f"(spec fingerprint mismatch); refusing to resume"
        )
    return payload


def _streaming_telemetry(spec: ScenarioSpec) -> StreamingResult:
    return StreamingResult(
        experiment_id=spec.name,
        title=spec.description or spec.name,
        epsilon=spec.size("telemetry_epsilon", 2.5e-4),
        utilization_window=spec.size("utilization_window", 1e-3),
        capacity_bps=spec.size("utilization_capacity_bps"),
    )


def _run_flow_streaming(
    spec: ScenarioSpec,
    result: ExperimentResult,
    *,
    checkpoint_path: Optional[Union[str, Path]] = None,
    checkpoint_every: float = 5e-3,
    resume: bool = True,
    should_stop: Optional[Callable[[], bool]] = None,
) -> None:
    """The streaming flow-engine executor.

    Arrivals are pulled lazily (:func:`stream_arrivals`), completions are
    folded into a :class:`~repro.results.StreamingResult` and dropped, and
    the result carries one summary row instead of a per-flow dump --
    memory is bounded by the active-flow population, not the trace length.

    With ``checkpoint_path``, the whole mutable state (simulation arrays,
    network, rate-policy solver state, fault cursor, telemetry sketches,
    arrivals-consumed count) is pickled atomically every
    ``checkpoint_every`` simulated seconds; an existing checkpoint is
    resumed from (validated against the spec fingerprint) and the resumed
    run is bit-identical to an uninterrupted one.  ``should_stop`` is
    polled at checkpoint boundaries -- returning ``True`` stops the run
    after the checkpoint is written (the CLI wires SIGINT to this).
    """
    from repro.analysis.fct import ideal_fct
    from repro.experiments.dynamic_fluid import ArrivalStream

    _check_flow_workload(spec)
    topo = build_fluid_topology(spec)
    telemetry = _streaming_telemetry(spec)
    sim = None
    consumed = 0

    if checkpoint_path is not None and resume and Path(checkpoint_path).exists():
        payload = load_checkpoint(checkpoint_path, spec)
        sim = payload["sim"]
        telemetry = payload["telemetry"]
        consumed = payload["consumed"]
        result.artifacts["resumed_from"] = str(checkpoint_path)
    if sim is None:
        sim = _build_flow_simulation(spec, topo)

    link_rate = topo.edge_link_rate
    baseline_rtt = spec.size("baseline_rtt", 16e-6)

    def on_complete(flow) -> None:
        slowdown = flow.fct / ideal_fct(flow.size_bytes, link_rate, baseline_rtt)
        telemetry.observe(flow.fct, flow.size_bytes, flow.finish_time, slowdown)

    sim.rebind(
        lambda arrival: topo.path_for(arrival.source, arrival.destination, arrival.flow_id),
        utility_for_arrival_factory(spec.objective),
        on_complete=on_complete,
    )
    sim.keep_completions = False

    stream = ArrivalStream(stream_arrivals(spec, topo), skip=consumed)
    max_time = spec.size("max_time")
    interrupted = False
    if checkpoint_path is None:
        sim.run_stream(stream, max_time=max_time)
    else:
        if checkpoint_every <= 0.0:
            raise ValueError(f"checkpoint_every must be positive, got {checkpoint_every}")
        fingerprint = _checkpoint_fingerprint(spec)
        while True:
            done = sim.run_stream(
                stream, max_time=max_time, stop_at=sim._time + checkpoint_every
            )
            write_checkpoint(
                checkpoint_path,
                {
                    "version": CHECKPOINT_VERSION,
                    "spec_fingerprint": fingerprint,
                    "consumed": stream.consumed,
                    "sim": sim,
                    "telemetry": telemetry,
                    "done": done,
                },
            )
            if done:
                break
            if should_stop is not None and should_stop():
                interrupted = True
                break

    result.artifacts["streaming"] = telemetry
    result.artifacts["network"] = sim.network
    result.artifacts["arrivals_consumed"] = stream.consumed
    result.artifacts["active_flows"] = sim.active_flow_count
    if checkpoint_path is not None:
        result.artifacts["checkpoint"] = str(checkpoint_path)
    if interrupted:
        result.artifacts["interrupted"] = True
        result.notes = (
            f"interrupted at t={sim._time:.6g}s with {stream.consumed} arrival(s) "
            f"consumed; resume from {checkpoint_path}"
        )
        if telemetry.flows_completed:
            result.add_row(**telemetry.summary())
        return
    result.artifacts["utilization_windows"] = telemetry.utilization.finish()
    if telemetry.flows_completed:
        result.add_row(**telemetry.summary())


def run_scenario_streaming(
    spec: ScenarioSpec,
    *,
    engine: Optional[str] = None,
    seed: Optional[int] = None,
    scheme=None,
    objective=None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    checkpoint_every: float = 5e-3,
    resume: bool = True,
    should_stop: Optional[Callable[[], bool]] = None,
    **sizing,
) -> ExperimentResult:
    """Streaming, checkpointable counterpart of :func:`run_scenario`.

    Flow-engine only.  Returns an :class:`~repro.results.ExperimentResult`
    whose single row is the online-telemetry summary (streaming FCT and
    slowdown quantiles, delivered bytes) and whose artifacts carry the
    live :class:`~repro.results.StreamingResult` plus the windowed
    utilization table; per-flow completion records are never accumulated.

    ``checkpoint_path`` enables periodic atomic checkpoints every
    ``checkpoint_every`` *simulated* seconds and resume-on-restart
    (``resume=False`` ignores an existing file).  A resumed run is
    bit-identical to an uninterrupted one; checkpoints written for a
    different spec/engine/seed are rejected.  ``should_stop`` is polled at
    checkpoint boundaries for cooperative interruption.

    >>> from repro.scenarios import get_scenario
    >>> result = run_scenario_streaming(get_scenario("unit/dumbbell-websearch"),
    ...                                 engine="flow", seed=1)
    >>> result.rows[0]["flows_completed"]
    24
    >>> "completions" in result.artifacts     # never materialized
    False
    >>> run_scenario_streaming(get_scenario("fig5/websearch"), engine="fluid")
    Traceback (most recent call last):
        ...
    ValueError: run_scenario_streaming supports the flow engine only, got 'fluid' (the fluid/packet engines have no streaming result path yet)
    """
    overrides = engine is not None or seed is not None or scheme is not None
    if overrides or objective is not None or sizing:
        spec = spec.using(
            engine=engine, seed=seed, scheme=scheme, objective=objective, **sizing
        )
    if spec.engine != ENGINE_FLOW:
        raise ValueError(
            f"run_scenario_streaming supports the flow engine only, got {spec.engine!r} "
            "(the fluid/packet engines have no streaming result path yet)"
        )
    result = ExperimentResult(
        experiment_id=spec.name,
        title=spec.description or spec.name,
        paper_reference=spec.paper_reference,
    )
    result.artifacts["spec"] = spec
    result.artifacts["engine"] = spec.engine
    _run_flow_streaming(
        spec,
        result,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        resume=resume,
        should_stop=should_stop,
    )
    return result


# -- packet engine ----------------------------------------------------------


def _packet_scheme(spec: ScenarioSpec, baseline_rtt: float, slowest_link_rate: float):
    """The spec's transport scheme, with pFabric's RTO fitted to the fabric.

    pFabric recovers every drop by timeout, so an RTO that expires before an
    ACK can return re-sends every packet forever.  Without explicit
    ``PfabricParameters`` the RTO is 3 x ``baseline_rtt`` plus the time the
    slowest link takes to drain a full pFabric queue; an explicit RTO below
    ``baseline_rtt`` is refused.
    """
    from repro.core.config import PfabricParameters
    from repro.transports.dctcp import DctcpScheme
    from repro.transports.dgd import DgdScheme
    from repro.transports.numfabric import NumFabricScheme
    from repro.transports.pfabric import PfabricScheme
    from repro.transports.rcp_star import RcpStarScheme

    schemes = {
        "NUMFabric": NumFabricScheme,
        "DGD": DgdScheme,
        "RCP*": RcpStarScheme,
        "DCTCP": DctcpScheme,
        "pFabric": PfabricScheme,
    }
    try:
        scheme_cls = schemes[spec.scheme.name]
    except KeyError:
        raise ValueError(
            f"scheme {spec.scheme.name!r} has no packet-level transport; "
            f"expected one of {sorted(schemes)}"
        ) from None
    params = spec.scheme.params
    if scheme_cls is PfabricScheme:
        if params is None:
            params = PfabricParameters()
            drain = params.queue_capacity_packets * params.mtu_bytes * 8.0 / slowest_link_rate
            params = replace(params, retransmission_timeout=3.0 * baseline_rtt + drain)
        elif params.retransmission_timeout < baseline_rtt:
            raise ValueError(
                f"pFabric retransmission_timeout {params.retransmission_timeout:g} s is "
                f"below the scenario's baseline_rtt {baseline_rtt:g} s: every packet "
                "would time out before its ACK can return"
            )
    return scheme_cls(params=params)


def _schedule_packet_faults(spec: ScenarioSpec, network, resolve) -> None:
    """Compile the spec's fault plan into timed ``OutputPort.set_rate`` events.

    ``resolve`` maps a fluid link id to the packet port names realizing it
    (fault plans are written against the fluid topology, the engines' shared
    vocabulary).  Control-plane faults have no packet realization and are
    ignored here.
    """
    plan = spec.faults
    if plan is None:
        return
    fault_seed = spec.seed if spec.seed is not None else 0
    ports = {port.name: port for port in network.ports}
    nominal = {}
    for link in plan.affected_links:
        names = resolve(link)
        if not names:
            raise ValueError(f"fault plan link {link!r} has no packet-level port")
        for name in names:
            if name not in ports:
                raise ValueError(
                    f"fault plan link {link!r} resolved to unknown port {name!r}"
                )
        nominal[link] = ports[names[0]].rate_bps
    for change in plan.capacity_timeline(nominal, fault_seed):
        for name in resolve(change.link):
            network.simulator.schedule_at(
                change.time, ports[name].set_rate, change.capacity
            )


def _run_packet(spec: ScenarioSpec, result: ExperimentResult) -> None:
    # A packet network is one big reference cycle by design (ports keep
    # bound methods of themselves and of their peers, hosts and endpoints
    # point at each other, endpoints at the network), so a finished run
    # its caller dropped waits for CPython's rare generation-2 pass.
    # Collect it now, before this run allocates its own graph: a process
    # that makes many packet runs then peaks at one graph, not several.
    gc.collect()
    from repro.core.config import SimulationParameters
    from repro.sim.flow import FlowDescriptor
    from repro.sim.topology import dumbbell, leaf_spine_network, single_link_network

    topo_spec = spec.topology
    workload = spec.workload
    baseline_rtt = spec.size("baseline_rtt", 16e-6)

    def run_sized_arrivals(network, arrivals, endpoints_for):
        """Place sized arrivals as flows, run until drained (shared by all
        packet topologies; only the endpoint mapping differs)."""
        utility_for = utility_for_arrival_factory(spec.objective)
        latest_arrival = 0.0
        for arrival in arrivals:
            source, destination = endpoints_for(arrival)
            network.add_flow(
                FlowDescriptor(
                    flow_id=arrival.flow_id,
                    source=source,
                    destination=destination,
                    size_bytes=arrival.size_bytes,
                    start_time=arrival.time,
                    utility=utility_for(arrival),
                )
            )
            latest_arrival = max(latest_arrival, arrival.time)
        network.run(latest_arrival + spec.size("drain", 0.5))

    if topo_spec.kind in ("single_link", "dumbbell"):
        if topo_spec.kind == "single_link":
            link_rate = topo_spec.get("capacity", 10e9)
            # One dumbbell pair per server endpoint (num_flows is only a
            # pair count for the fanout workload, handled below).
            num_pairs = workload.get("num_servers") or topo_spec.get("num_servers") or 2
        else:
            link_rate = topo_spec.get("bottleneck_rate", 10e9)
            num_pairs = topo_spec.get("num_pairs", 6)
        access_rate = topo_spec.get("access_rate") or link_rate
        scheme = _packet_scheme(spec, baseline_rtt, min(link_rate, access_rate))

        if workload.kind == "fanout":
            # Persistent flows: fig6(a)'s convergence/queueing setup.  The
            # access links are over-provisioned so the shared link is the
            # one bottleneck.
            num_flows = workload.get("num_flows", 2)
            network = single_link_network(scheme, num_flows=num_flows, link_rate=link_rate)
            # Every single-link/dumbbell fluid link realizes as the shared
            # bottleneck port (access links are over-provisioned by design).
            _schedule_packet_faults(spec, network, lambda link: ["left->right"])
            for i in range(num_flows):
                network.add_flow(
                    FlowDescriptor(
                        flow_id=i, source=("sender", i), destination=("receiver", i)
                    )
                )
            network.run(spec.size("duration", 0.02))
            result.artifacts["network"] = network
            for i in range(num_flows):
                result.add_row(flow=i, delivered_persistent=True)
            return

        # Sized arrivals on a dumbbell (fig7's setup): pair i carries every
        # arrival whose source hashes to i.
        arrivals = materialize_arrivals(spec, build_fluid_topology(spec))
        sim_params = SimulationParameters(
            num_servers=2 * num_pairs,
            edge_link_rate=link_rate,
            core_link_rate=link_rate,
            baseline_rtt=baseline_rtt,
        )
        network = dumbbell(
            scheme,
            num_pairs=num_pairs,
            bottleneck_rate=link_rate,
            access_rate=access_rate,
            params=sim_params,
        )

        def pair_endpoints(arrival):
            pair = arrival.source % num_pairs
            return ("sender", pair), ("receiver", pair)

        _schedule_packet_faults(spec, network, lambda link: ["left->right"])
        run_sized_arrivals(network, arrivals, pair_endpoints)
    elif topo_spec.kind == "leaf_spine":
        params = SimulationParameters(
            num_servers=topo_spec.get("num_servers", 128),
            num_leaves=topo_spec.get("num_leaves", 8),
            num_spines=topo_spec.get("num_spines", 4),
            edge_link_rate=topo_spec.get("edge_link_rate", 10e9),
            core_link_rate=topo_spec.get("core_link_rate", 40e9),
            baseline_rtt=baseline_rtt,
        )
        scheme = _packet_scheme(
            spec, baseline_rtt, min(params.edge_link_rate, params.core_link_rate)
        )
        arrivals = materialize_arrivals(spec, build_fluid_topology(spec))
        network = leaf_spine_network(scheme, params=params)
        servers_per_leaf = params.num_servers // params.num_leaves

        def leaf_spine_ports(link):
            # Fluid leaf-spine link ids -> the packet ports built by
            # ``leaf_spine_network`` (node names are ("server", i) etc.).
            kind = link[0]
            if kind == "host-up":
                server = link[1]
                return [f"{('server', server)}->({('leaf', server // servers_per_leaf)})"]
            if kind == "host-down":
                server = link[1]
                return [f"({('leaf', server // servers_per_leaf)})->{('server', server)}"]
            if kind == "up":
                return [f"({('leaf', link[1])})->({('spine', link[2])})"]
            if kind == "down":
                return [f"({('spine', link[1])})->({('leaf', link[2])})"]
            return []

        _schedule_packet_faults(spec, network, leaf_spine_ports)
        run_sized_arrivals(
            network,
            arrivals,
            lambda arrival: (("server", arrival.source), ("server", arrival.destination)),
        )
    else:
        raise ValueError(
            f"topology kind {topo_spec.kind!r} has no packet-level realization"
        )

    completions = list(network.fct_tracker.completions)
    result.artifacts["completions"] = completions
    result.artifacts["arrivals"] = arrivals
    result.artifacts["network"] = network
    for completion in completions:
        result.add_row(
            flow=completion.flow_id,
            size_bytes=completion.size_bytes,
            start_time=completion.start_time,
            finish_time=completion.finish_time,
            fct=completion.completion_time,
        )
