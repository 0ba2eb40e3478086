"""Span tracer for the per-layer metrics, applied to ``src/repro`` from outside.

Nothing under ``src/`` knows about tracing.  In the traced child only, every
boundary in :data:`SPAN_TABLE` is replaced by a timing wrapper -- a class
attribute for a method; for a function imported by name, the binding in each
module that calls it (``from m import f`` copies the reference, so patching
``m.f`` alone would miss the callers).  :meth:`Tracer.uninstall` puts the
originals back, which lets one process alternate traced and untraced
iterations and report the overhead of tracing itself.

A span has a name, start, end, the span that caused it and the run's id.
Spans are kept in memory and written by :meth:`Tracer.write` when the run
ends.  A boundary hit more than :data:`AGGREGATE_AFTER` times in a run keeps
only its aggregate: hit count, total and self time, and a fixed-bucket
latency histogram.  Self time is a span's duration minus the part of it its
child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from e2e.metrics import PER_LAYER_NAMES

AGGREGATE_AFTER = 10_000
#: Histogram resolution: eight buckets per doubling of the latency, from
#: 1 us up; a percentile read off it is within ~4.5 % of the exact one.
BUCKETS_PER_OCTAVE = 8
BUCKETS = 32 * BUCKETS_PER_OCTAVE

FLOW_ENGINE = ("fig5_websearch", "fig5_stream")
XWI = ("fig5_websearch", "fig5_stream", "fig4_semidynamic")
POISSON = ("fig5_websearch", "fig5_stream", "fig7_packet_fct", "sweep_grid")
PACKET = ("fig7_packet_fct",)
SWEEP = ("sweep_grid",)


def null_span(name: str):
    """The ``span`` a workload gets when tracing is off."""
    return nullcontext()


@dataclass(frozen=True)
class SpanEntry:
    """One traced boundary: where it lives and which workloads must hit it."""

    name: str
    targets: Tuple[str, ...]
    expect: Tuple[str, ...]
    kind: str = "call"  # "generator": time every next() of the returned iterator
    #: Called with the tracer and the boundary's return value after each hit.
    hook: Optional[Callable[["Tracer", Any], None]] = None


def _hook_oracle_solve(tracer: "Tracer", result: Any) -> None:
    tracer.samples["fluid.oracle_iters"].append(result.iterations)
    if not result.converged:
        tracer.counters["fluid.oracle_unconverged"] += 1


def _hook_oracle_cold(tracer: "Tracer", result: Any) -> None:
    tracer.samples["fluid.oracle_cold_iters"].append(result.iterations)


def _hook_checkpoint(tracer: "Tracer", result: Any) -> None:
    tracer.counters["scenarios.checkpoint_bytes"] += os.path.getsize(result)


def _hook_cache_put(tracer: "Tracer", result: Any) -> None:
    tracer.counters["sweep.cache_bytes"] += os.path.getsize(result)


_FLOW = "repro.experiments.dynamic_fluid"

#: ``flow`` is the flow engine (today ``repro.experiments.dynamic_fluid``),
#: named after its ``engine="flow"`` so that moving it does not rename metrics.
SPAN_TABLE: Tuple[SpanEntry, ...] = (
    SpanEntry(
        "workloads.generate",
        ("repro.workloads.poisson:PoissonTrafficGenerator.generate",),
        ("fig5_websearch", "fig7_packet_fct", "sweep_grid"),
    ),
    SpanEntry(
        "workloads.arrivals_next",
        ("repro.workloads.poisson:PoissonTrafficGenerator.arrivals",),
        POISSON,
        kind="generator",
    ),
    SpanEntry(
        "workloads.events",
        ("repro.workloads.semidynamic:SemiDynamicScenario.events",),
        ("fig4_semidynamic",),
    ),
    SpanEntry(
        "scenarios.run",
        (
            "repro.scenarios.runner:run_scenario",
            "repro.scenarios.runner:run_scenario_streaming",
        ),
        FLOW_ENGINE + ("fig4_semidynamic", "fig7_packet_fct", "sweep_grid"),
    ),
    SpanEntry(
        "scenarios.build_topology",
        (
            "repro.scenarios.runner:build_fluid_topology",
            "repro.scenarios.materialize:build_fluid_topology",
        ),
        FLOW_ENGINE + ("fig4_semidynamic", "fig7_packet_fct", "sweep_grid"),
    ),
    SpanEntry(
        "scenarios.materialize",
        (
            "repro.scenarios.runner:materialize_arrivals",
            "repro.scenarios.runner:stream_arrivals",
            "repro.scenarios.materialize:materialize_arrivals",
            "repro.scenarios.materialize:stream_arrivals",
        ),
        POISSON,
    ),
    SpanEntry(
        "scenarios.checkpoint",
        ("repro.scenarios.runner:write_checkpoint",),
        ("fig5_stream",),
        hook=_hook_checkpoint,
    ),
    SpanEntry(
        "flow.run",
        (f"{_FLOW}:FlowLevelSimulation.run", f"{_FLOW}:FlowLevelSimulation.run_stream"),
        FLOW_ENGINE + ("sweep_grid",),
    ),
    SpanEntry(
        "flow.rates",
        (f"{_FLOW}:OracleRatePolicy.rates", f"{_FLOW}:SimulatorRatePolicy.rates"),
        FLOW_ENGINE + ("sweep_grid",),
    ),
    SpanEntry(
        "flow.flow_set_changed",
        (
            f"{_FLOW}:OracleRatePolicy.on_flow_set_changed",
            f"{_FLOW}:SimulatorRatePolicy.on_flow_set_changed",
        ),
        FLOW_ENGINE + ("sweep_grid",),
    ),
    SpanEntry("flow.emit", (f"{_FLOW}:FlowLevelSimulation._emit",), FLOW_ENGINE + ("sweep_grid",)),
    SpanEntry(
        "fluid.oracle_solve",
        ("repro.fluid.oracle:PersistentDualSolver.solve",),
        ("fig5_websearch",),
        hook=_hook_oracle_solve,
    ),
    SpanEntry(
        "fluid.oracle_cold",
        (
            "repro.scenarios.runner:solve_num",
            f"{_FLOW}:solve_num",
            "repro.fluid.oracle:solve_num",
        ),
        ("fig4_semidynamic",),
        hook=_hook_oracle_cold,
    ),
    SpanEntry("fluid.xwi_step", ("repro.fluid.xwi:XwiFluidSimulator.step",), XWI + ("sweep_grid",)),
    SpanEntry(
        "fluid.waterfill",
        (
            "repro.fluid.xwi:waterfill_arrays",
            "repro.fluid.oracle:waterfill_arrays",
            "repro.fluid.vectorized:waterfill_arrays",
        ),
        XWI + ("sweep_grid",),
    ),
    SpanEntry(
        "fluid.refresh",
        ("repro.fluid.vectorized:CompiledFluidNetwork.refresh",),
        XWI + ("sweep_grid",),
    ),
    SpanEntry(
        "fluid.compile",
        ("repro.fluid.vectorized:compile_network", "repro.fluid.oracle:compile_network"),
        XWI + ("sweep_grid",),
    ),
    SpanEntry("analysis.telemetry", ("repro.results:StreamingResult.observe",), ("fig5_stream",)),
    SpanEntry(
        "analysis.deviation",
        (
            "repro.experiments.fig5_dynamic:normalized_deviation",
            "repro.experiments.fig5_dynamic:bin_by_bdp",
        ),
        ("fig5_websearch",),
    ),
    SpanEntry("sim.build", ("repro.sim.topology:dumbbell",), PACKET),
    SpanEntry("sim.add_flow", ("repro.sim.network:Network.add_flow",), PACKET),
    SpanEntry("sim.run", ("repro.sim.network:Network.run",), PACKET),
    SpanEntry("transports.sender_start", ("repro.transports.base:SenderBase.start",), PACKET),
    SpanEntry("transports.on_ack", ("repro.transports.base:SenderBase.on_ack",), PACKET),
    SpanEntry("transports.on_data", ("repro.transports.base:ReceiverBase.on_data",), PACKET),
    SpanEntry(
        "transports.controller",
        (
            "repro.transports.numfabric:NumFabricPortController.on_enqueue",
            "repro.transports.numfabric:NumFabricPortController.on_dequeue",
        ),
        PACKET,
    ),
    SpanEntry("sweep.expand", ("repro.sweep:parse_sweep", "repro.sweep:expand_grid"), SWEEP),
    SpanEntry(
        "sweep.key",
        (
            "repro.sweep.driver:code_fingerprint",
            "repro.sweep.driver:task_key",
            "repro.sweep.cache:code_fingerprint",
        ),
        SWEEP,
    ),
    SpanEntry(
        "sweep.cache_put",
        ("repro.sweep.cache:ResultCache.put",),
        SWEEP,
        hook=_hook_cache_put,
    ),
    SpanEntry("sweep.cache_get", ("repro.sweep.cache:ResultCache.get",), SWEEP),
    SpanEntry("sweep.encode", ("repro.sweep.driver:encode_result",), SWEEP),
    SpanEntry("sweep.decode", ("repro.sweep.driver:decode_result",), SWEEP),
    SpanEntry("sweep.agent_spawn", ("repro.sweep:spawn_local_agents",), SWEEP),
)

#: Spans the workloads open themselves (``with span(name):``), with the
#: workloads that must do so.
WORKLOAD_SPANS: Dict[str, Tuple[str, ...]] = {
    "sweep.run.serial": SWEEP,
    "sweep.run.sharded": SWEEP,
    "sweep.run.remote": SWEEP,
    "sweep.run.warm": SWEEP,
}

ROOT = "root"


def resolve(target: str) -> Tuple[Any, str, Callable]:
    """``"pkg.mod:Class.attr"`` -> (owner, attribute name, current callable)."""
    module_name, _, dotted = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = dotted.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    original = vars(owner)[attr]
    if not inspect.isfunction(original):
        raise TypeError(f"span target {target} is not a plain function: {original!r}")
    return owner, attr, original


class SpanStats:
    """Aggregate of one span name over a run."""

    __slots__ = ("count", "total", "self_total", "hist")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.hist = [0] * BUCKETS

    def add(self, duration: float, self_duration: float) -> None:
        self.count += 1
        self.total += duration
        self.self_total += self_duration
        micros = duration * 1e6
        bucket = int(math.log2(micros) * BUCKETS_PER_OCTAVE) + 1 if micros > 1.0 else 0
        self.hist[bucket if bucket < BUCKETS else BUCKETS - 1] += 1

    def percentile_us(self, q: float) -> float:
        """Latency percentile in microseconds, read off the histogram.

        ``q`` is lowered until at least ten samples lie beyond it, the most
        a sample of this size supports; with fewer than twenty samples the
        median is all that is reported.
        """
        if not self.count:
            return 0.0
        q = min(q, 1.0 - 10.0 / self.count) if self.count >= 20 else 0.5
        rank = q * self.count
        seen = 0
        for bucket, hits in enumerate(self.hist):
            seen += hits
            if hits and seen >= rank:
                if bucket == 0:
                    return 0.5
                return 2.0 ** ((bucket - 0.5) / BUCKETS_PER_OCTAVE)
        return 0.0


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of a small sample (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(int(q * len(ordered)), len(ordered) - 1)])


class Tracer:
    """Records spans for one run; see the module docstring."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.stats: Dict[str, SpanStats] = defaultdict(SpanStats)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self._stack: List[List[Any]] = []
        self._ids = itertools.count(1)
        self._patched: List[Tuple[Any, str, Callable]] = []

    # -- recording ---------------------------------------------------------

    def _begin(self) -> List[Any]:
        frame = [0.0, next(self._ids), self._stack[-1] if self._stack else None]
        self._stack.append(frame)
        return frame

    def _end(self, name: str, stats: SpanStats, frame: List[Any], start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        parent = frame[2]
        if parent is not None:
            parent[0] += duration
        stats.add(duration, duration - frame[0])
        if stats.count <= AGGREGATE_AFTER:
            self.spans.append((frame[1], name, start, end, parent[1] if parent else 0))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a span from benchmark code (the root and the sweep phases)."""
        stats = self.stats[name]
        frame = self._begin()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._end(name, stats, frame, start)

    def _wrap_call(self, entry: SpanEntry, original: Callable) -> Callable:
        name, stats = entry.name, self.stats[entry.name]
        hook = entry.hook
        begin, end, clock = self._begin, self._end, time.perf_counter

        @wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = begin()
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end(name, stats, frame, start)
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def _wrap_generator(self, entry: SpanEntry, original: Callable) -> Callable:
        name, stats = entry.name, self.stats[entry.name]
        begin, end, clock = self._begin, self._end, time.perf_counter
        counters, yielded = self.counters, f"{entry.name}.items"

        @wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = iter(original(*args, **kwargs))
            while True:
                # The frame covers one next() only, never the yield below:
                # the consumer's time between items is not the producer's.
                frame = begin()
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end(name, stats, frame, start)
                counters[yielded] += 1
                yield item

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Replace every boundary in :data:`SPAN_TABLE` by its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for entry in SPAN_TABLE:
            wrap = self._wrap_generator if entry.kind == "generator" else self._wrap_call
            for target in entry.targets:
                owner, attr, original = resolve(target)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrap(entry, original))

    def uninstall(self) -> None:
        """Put the original callables back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def missing(self, workload: str) -> List[str]:
        """Boundaries ``workload`` is declared to exercise that were never hit."""
        expected = [entry.name for entry in SPAN_TABLE if workload in entry.expect]
        expected += [name for name, names in WORKLOAD_SPANS.items() if workload in names]
        return [name for name in expected if not self.stats[name].count]

    def write(self, path: Path, **header: Any) -> None:
        """Write the kept spans and every aggregate as one JSON document."""
        aggregated = {n for n, s in self.stats.items() if s.count > AGGREGATE_AFTER}
        parent_of = {span[0]: span[4] for span in self.spans}
        kept = {span[0] for span in self.spans if span[1] not in aggregated}

        def kept_ancestor(span_id: int) -> int:
            while span_id and span_id not in kept:
                span_id = parent_of.get(span_id, 0)
            return span_id

        document = {
            **header,
            "run_id": self.run_id,
            "aggregate_after": AGGREGATE_AFTER,
            "buckets_per_octave": BUCKETS_PER_OCTAVE,
            "aggregates": {
                name: {
                    "count": stats.count,
                    "total_s": stats.total,
                    "self_s": stats.self_total,
                    "aggregated_only": name in aggregated,
                    "histogram": {str(b): n for b, n in enumerate(stats.hist) if n},
                }
                for name, stats in self.stats.items()
                if stats.count
            },
            "samples": {key: len(values) for key, values in self.samples.items()},
            "counters": self.counters,
            "spans": [
                {
                    "id": span_id,
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "parent": kept_ancestor(parent),
                    "run": self.run_id,
                }
                for span_id, name, start, end, parent in self.spans
                if name not in aggregated
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))


def layer_metrics(tracer: Tracer, iterations: int, extras: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric except ``trace.*`` / ``stream.*``, per iteration.

    ``extras`` are the values a workload reads off its own outputs (event
    counters of the packet engine, convergence iterations, cell latencies).
    """
    n = max(iterations, 1)
    stats = tracer.stats

    def total(*names: str) -> float:
        return sum(stats[name].total for name in names) / n

    def self_time(*names: str) -> float:
        return sum(stats[name].self_total for name in names) / n

    def count(*names: str) -> float:
        return sum(stats[name].count for name in names) / n

    def per_second(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    cells = float(extras.get("sweep.cells", 0))
    phase = {p: total(f"sweep.run.{p}") for p in ("serial", "sharded", "remote", "warm")}
    events = float(extras.get("sim.events", 0))
    latencies = extras.get("sweep.cell_latencies_ms", [])
    converge = extras.get("fluid.converge_iters", [])
    metrics = {
        # generate() drains arrivals(), so the sum of self times is the time
        # spent producing arrivals on either path, counted once.
        "workloads.generate_s": self_time(
            "workloads.generate", "workloads.arrivals_next", "workloads.events"
        ),
        "workloads.arrivals": tracer.counters["workloads.arrivals_next.items"] / n,
        "scenarios.build_topology_s": total("scenarios.build_topology"),
        "scenarios.materialize_s": total("scenarios.materialize"),
        "scenarios.runner_self_s": self_time("scenarios.run"),
        "scenarios.checkpoint_s": total("scenarios.checkpoint"),
        "scenarios.checkpoints": count("scenarios.checkpoint"),
        "scenarios.checkpoint_bytes": tracer.counters["scenarios.checkpoint_bytes"] / n,
        "flow.run_self_s": self_time("flow.run", "flow.emit", "flow.flow_set_changed"),
        "flow.steps": count("flow.rates"),
        "flow.flow_set_changes": count("flow.flow_set_changed"),
        "flow.completed": count("flow.emit"),
        "flow.rates_s": total("flow.rates"),
        "flow.rates_p50_us": stats["flow.rates"].percentile_us(0.5),
        "flow.rates_p99_us": stats["flow.rates"].percentile_us(0.99),
        "fluid.oracle_solve_s": total("fluid.oracle_solve"),
        "fluid.oracle_solves": count("fluid.oracle_solve"),
        "fluid.oracle_iters_p50": quantile(tracer.samples["fluid.oracle_iters"], 0.5),
        "fluid.oracle_iters_p99": quantile(tracer.samples["fluid.oracle_iters"], 0.99),
        "fluid.oracle_unconverged": tracer.counters["fluid.oracle_unconverged"] / n,
        "fluid.oracle_solve_p50_us": stats["fluid.oracle_solve"].percentile_us(0.5),
        "fluid.oracle_solve_p99_us": stats["fluid.oracle_solve"].percentile_us(0.99),
        "fluid.oracle_cold_s": total("fluid.oracle_cold"),
        "fluid.oracle_cold_solves": count("fluid.oracle_cold"),
        "fluid.oracle_cold_iters_p50": quantile(tracer.samples["fluid.oracle_cold_iters"], 0.5),
        "fluid.xwi_step_s": total("fluid.xwi_step"),
        "fluid.xwi_steps": count("fluid.xwi_step"),
        "fluid.xwi_step_p50_us": stats["fluid.xwi_step"].percentile_us(0.5),
        "fluid.xwi_step_p99_us": stats["fluid.xwi_step"].percentile_us(0.99),
        "fluid.waterfill_s": total("fluid.waterfill"),
        "fluid.waterfill_calls": count("fluid.waterfill"),
        "fluid.refresh_s": total("fluid.refresh"),
        "fluid.refresh_calls": count("fluid.refresh"),
        "fluid.full_recompiles": count("fluid.compile"),
        "fluid.converge_iters_p50": quantile(converge, 0.5),
        "fluid.converge_iters_max": float(max(converge, default=0)),
        "analysis.telemetry_s": total("analysis.telemetry"),
        "analysis.observations": count("analysis.telemetry"),
        "analysis.deviation_s": total("analysis.deviation"),
        "sim.build_s": total("sim.build"),
        "sim.add_flow_s": total("sim.add_flow"),
        "sim.flows": count("sim.add_flow"),
        "sim.run_s": total("sim.run"),
        "sim.events": events,
        "sim.events_per_s": per_second(events, total("sim.run")),
        "sim.ns_per_event": per_second(1e9 * total("sim.run"), events),
        "sim.packets_dropped": float(extras.get("sim.packets_dropped", 0)),
        "sim.run_self_s": self_time("sim.run"),
        "transports.endpoint_s": self_time(
            "transports.sender_start", "transports.on_ack", "transports.on_data"
        ),
        "transports.acks": count("transports.on_ack"),
        "transports.data_packets": count("transports.on_data"),
        "transports.controller_s": self_time("transports.controller"),
        "sweep.expand_s": total("sweep.expand"),
        "sweep.key_s": self_time("sweep.key"),
        "sweep.serial_cells_per_s": per_second(cells, phase["serial"]),
        "sweep.sharded_cells_per_s": per_second(cells, phase["sharded"]),
        "sweep.remote_cells_per_s": per_second(cells, phase["remote"]),
        # The warm phase re-reads all three caches.
        "sweep.warm_cells_per_s": per_second(3 * cells, phase["warm"]),
        "sweep.sharded_speedup": per_second(phase["serial"], phase["sharded"]),
        "sweep.remote_speedup": per_second(phase["serial"], phase["remote"]),
        "sweep.cache_put_s": total("sweep.cache_put"),
        "sweep.cache_get_s": total("sweep.cache_get"),
        "sweep.cache_bytes": tracer.counters["sweep.cache_bytes"] / n,
        "sweep.encode_s": total("sweep.encode"),
        "sweep.decode_s": total("sweep.decode"),
        "sweep.agent_spawn_s": total("sweep.agent_spawn"),
        "sweep.cell_p50_ms": quantile(latencies, 0.5),
        "sweep.cell_p95_ms": quantile(latencies, 0.95),
        "sweep.retries": float(extras.get("sweep.retries", 0)),
        "sweep.cells_failed": float(extras.get("sweep.cells_failed", 0)),
    }
    unknown = set(metrics) - set(PER_LAYER_NAMES)
    if unknown:
        raise AssertionError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return metrics
