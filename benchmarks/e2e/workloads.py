"""The five benchmark workloads: inputs, the timed call, and the output check.

Each workload builds its specs from the seed when it is constructed (part
of set-up), runs one fixed-size *iteration* in :meth:`Workload.run` (the
timed section; the child repeats it for the length of the run and reports
medians) and reduces the result to an :class:`Outcome` in
:meth:`Workload.inspect` (not timed): the work done in the workload's own
unit, operations attempted and failed, a small digest of the simulated
statistics, and the invariants that broke.

``repro`` is imported inside the methods: this package is also imported by
the parent process and by pytest, neither of which needs the simulator.
Boundaries the tracer wraps are reached through module attributes
(``runner.run_scenario(...)``), never through names bound at import time.

Sizes are constants.  ``SIZES`` is what the benchmark times; one iteration
costs 1.5-4.5 host seconds on the 2-core reference box so that several fit
in a run.  ``TOY_SIZES`` is the warm-up and the smoke test.
"""

from __future__ import annotations

import math
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from e2e.trace import null_span

PAPER_FABRIC = {"num_servers": 128, "num_leaves": 8, "num_spines": 4}
TOY_FABRIC = {"num_servers": 16, "num_leaves": 4, "num_spines": 2}

SIZES: Dict[str, Dict[str, Any]] = {
    "fig5_websearch": {**PAPER_FABRIC, "load": 0.6, "num_flows": 1500},
    "fig5_stream": {**PAPER_FABRIC, "load": 0.6, "num_flows": 1500},
    "fig4_semidynamic": {
        **PAPER_FABRIC,
        "num_paths": 1000,
        "flows_per_event": 100,
        # 399 flows start active; with this band the next event can only be a
        # start (to 499) and the one after only a stop (back to 399), so the
        # work per iteration does not depend on the seed's coin flips.
        "min_active": 300,
        "max_active": 499,
        "num_events": 2,
        "max_iterations": 300,
    },
    "fig7_packet_fct": {"num_flows": 200},
    "sweep_grid": {
        "loads": "0.3,0.5,0.7",
        "schemes": "numfabric,dgd",
        "seeds": 4,
        "modes": ("serial", "sharded", "remote"),
    },
}

TOY_SIZES: Dict[str, Dict[str, Any]] = {
    "fig5_websearch": {**TOY_FABRIC, "load": 0.4, "num_flows": 40},
    "fig5_stream": {**TOY_FABRIC, "load": 0.4, "num_flows": 40},
    "fig4_semidynamic": {
        **TOY_FABRIC,
        "num_paths": 60,
        "flows_per_event": 6,
        "min_active": 18,
        "max_active": 30,
        "num_events": 1,
        "max_iterations": 120,
    },
    "fig7_packet_fct": {"num_flows": 12},
    "sweep_grid": {"loads": "0.3", "schemes": "numfabric", "seeds": 2, "modes": ("serial",)},
}

#: Simulated seconds between checkpoints of ``fig5_stream``.
CHECKPOINT_EVERY = 5e-3
#: Streamed quantiles must sit this close to the exact (materialised) ones.
STREAM_QUANTILE_TOLERANCE = 0.01
SWEEP_WORKERS = 2
#: Flow sizes in ``sweep_grid``'s cells are capped: an uncapped 30-flow toy
#: costs 20-160 ms depending on whether it drew an elephant, and the workload
#: is there to time the fabric around the cells, not the cells.
SWEEP_CELL_SIZE_CAP = 1_000_000


@dataclass
class Outcome:
    """What one iteration produced, read off its outputs."""

    units: float
    attempted: int
    failed: int
    digest: Dict[str, Any]
    problems: List[str] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)


def _fct_stats(fcts: Sequence[float]) -> Dict[str, float]:
    import numpy as np

    values = np.asarray(fcts, dtype=float)
    return {
        "fct_p50": float(np.percentile(values, 50)),
        "fct_p99": float(np.percentile(values, 99)),
        "fct_mean": float(values.mean()),
    }


def _check_completions(label, completions, arrivals, problems, fct_of) -> None:
    """Every arrival completes once with its own size and a positive FCT."""
    sizes = {a.flow_id: a.size_bytes for a in arrivals}
    seen = {c.flow_id for c in completions}
    if len(seen) != len(completions):
        problems.append(f"{label}: a flow completed more than once")
    missing = len(sizes) - len(seen & set(sizes))
    if missing:
        problems.append(f"{label}: {missing} of {len(sizes)} flows did not complete")
    delivered = sum(c.size_bytes for c in completions)
    offered = sum(sizes.values())
    if delivered != offered:
        problems.append(f"{label}: delivered {delivered} bytes of {offered} offered")
    if any(not fct_of(c) > 0.0 for c in completions):
        problems.append(f"{label}: a completion has a non-positive FCT")


class Workload:
    """Base class; see the module docstring for the three phases."""

    name = ""
    unit = ""

    def __init__(self, seed: int, sizes: Dict[str, Any]):
        self.sizes = sizes

    def run(self, tmp: Path, span: Callable = null_span) -> Any:
        raise NotImplementedError

    def inspect(self, raw: Any) -> Outcome:
        raise NotImplementedError

    def companion(self) -> Optional[float]:
        """Host seconds of an untraced reference run this workload is compared with."""
        return None

    def finalize(self) -> List[str]:
        """Checks made once per run, after the timed iterations."""
        return []


class Fig5Websearch(Workload):
    """The paper's headline experiment: Oracle cell is solver-bound
    (PersistentDualSolver.solve), NUMFabric cell is stepper-bound
    (XwiFluidSimulator.step).
    """

    name = "fig5_websearch"
    unit = "flows completed"

    def __init__(self, seed: int, sizes: Dict[str, Any]):
        super().__init__(seed, sizes)
        from repro.experiments.fig5_dynamic import DeviationSettings

        self.settings = DeviationSettings(seed=seed, **sizes)

    def run(self, tmp: Path, span: Callable = null_span) -> Any:
        from repro.experiments import fig5_dynamic

        # The harness returns only the binned deviations; the check below
        # needs the per-flow completions, so keep the sweep report it built.
        reports = []
        run_sweep = fig5_dynamic.run_sweep

        def keep_report(*args: Any, **kwargs: Any) -> Any:
            reports.append(run_sweep(*args, **kwargs))
            return reports[-1]

        fig5_dynamic.run_sweep = keep_report
        try:
            result = fig5_dynamic.run_deviation_experiment(
                "websearch", settings=self.settings, schemes=["NUMFabric"]
            )
        finally:
            fig5_dynamic.run_sweep = run_sweep
        return result, reports[0]

    def inspect(self, raw: Any) -> Outcome:
        from repro.core.config import SimulationParameters

        result, report = raw
        flows = self.sizes["num_flows"]
        edge_rate = SimulationParameters().edge_link_rate
        problems: List[str] = []
        digest: Dict[str, Any] = {}
        completed = 0
        arrivals = report.results[0].artifacts["arrivals"]
        for label, cell in zip(("oracle", "numfabric"), report.results):
            completions = cell.artifacts["completions"]
            _check_completions(label, completions, arrivals, problems, lambda c: c.fct)
            completed += len(completions)
            # A flow crosses its sender's access link, so its average rate
            # over its lifetime cannot exceed that link's capacity.
            fastest = max(c.average_rate for c in completions)
            if fastest > edge_rate * (1.0 + 1e-9):
                problems.append(f"{label}: a flow averaged {fastest:.4g} b/s over a 10G link")
            digest[f"{label}_completed"] = len(completions)
            for key, value in _fct_stats([c.fct for c in completions]).items():
                digest[f"{label}_{key}"] = value
        binned = sum(row["flows"] for row in result.rows)
        if binned != flows:
            problems.append(f"{binned} of {flows} flows were binned by size")
        medians = [row["median"] for row in result.rows if row["median"] is not None]
        if not all(math.isfinite(m) for m in medians):
            problems.append("a size bin has a non-finite median deviation")
        digest["bins"] = len(result.rows)
        for row in result.rows:
            for key in ("flows", "median", "q1", "q3"):
                if row[key] is not None:
                    digest[f"bin{row['size_bin_bdp']}_{key}"] = row[key]
        digest["worst_abs_median_deviation"] = max(abs(m) for m in medians)
        return Outcome(
            units=completed,
            attempted=2 * flows,
            failed=2 * flows - completed,
            digest=digest,
            problems=problems,
        )


class Fig5Stream(Workload):
    """The same NUMFabric spec through the streaming path: online telemetry and
    checkpoint writes, against fig5_websearch's materialising reads.
    """

    name = "fig5_stream"
    unit = "flows completed"

    def __init__(self, seed: int, sizes: Dict[str, Any]):
        super().__init__(seed, sizes)
        from repro.scenarios.catalog import deviation_spec
        from repro.scenarios.materialize import build_fluid_topology, materialize_arrivals

        self.spec = deviation_spec(
            scheme_name="NUMFabric", workload="websearch", seed=seed, **sizes
        )
        arrivals = materialize_arrivals(self.spec, build_fluid_topology(self.spec))
        self.offered_bytes = sum(a.size_bytes for a in arrivals)
        self.exact: Optional[Dict[str, float]] = None
        self.streamed: Optional[Dict[str, float]] = None

    def run(self, tmp: Path, span: Callable = null_span) -> Any:
        from repro.scenarios import runner

        return runner.run_scenario_streaming(
            self.spec, checkpoint_path=tmp / "run.ckpt", checkpoint_every=CHECKPOINT_EVERY
        )

    def inspect(self, raw: Any) -> Outcome:
        flows = self.sizes["num_flows"]
        problems: List[str] = []
        row = raw.rows[0] if raw.rows else {"flows_completed": 0, "bytes_delivered": 0}
        completed = int(row["flows_completed"])
        if completed != flows:
            problems.append(f"{flows - completed} of {flows} flows did not complete")
        if row["bytes_delivered"] != self.offered_bytes:
            problems.append(
                f"delivered {row['bytes_delivered']} bytes of {self.offered_bytes} offered"
            )
        if raw.artifacts.get("arrivals_consumed") != flows:
            problems.append("the arrival stream was not consumed to its end")
        if raw.artifacts.get("active_flows"):
            problems.append("flows were still active when the run ended")
        digest = {
            key: row[key]
            for key in ("flows_completed", "bytes_delivered", "fct_mean", "fct_p50", "fct_p99")
            if key in row
        }
        self.streamed = digest
        return Outcome(
            units=completed,
            attempted=flows,
            failed=flows - completed,
            digest=digest,
            problems=problems,
        )

    def companion(self) -> Optional[float]:
        """The materialised run of the same spec: base of ``stream.vs_posthoc_ratio``."""
        from repro.scenarios import runner

        start = time.perf_counter()
        result = runner.run_scenario(self.spec)
        elapsed = time.perf_counter() - start
        # Nearest rank, the definition the streaming sketch answers with.
        fcts = sorted(c.fct for c in result.artifacts["completions"])
        self.exact = {
            f"fct_p{round(100 * q)}": fcts[max(math.ceil(q * len(fcts)), 1) - 1]
            for q in (0.5, 0.99)
        }
        return elapsed

    def finalize(self) -> List[str]:
        if self.exact is None:
            self.companion()
        problems = []
        for key in ("fct_p50", "fct_p99"):
            exact, streamed = self.exact[key], (self.streamed or {}).get(key, float("nan"))
            if not abs(streamed - exact) <= STREAM_QUANTILE_TOLERANCE * exact:
                problems.append(f"streamed {key} {streamed:.6g} vs exact {exact:.6g}: off by > 1 %")
        return problems


class Fig4Semidynamic(Workload):
    """The only workload on the fluid engine: 300 xWI steps per churn event plus one
    cold solve_num per event, the scipy Oracle path the fig5 runs never touch.
    """

    name = "fig4_semidynamic"
    unit = "xWI iterations"

    def __init__(self, seed: int, sizes: Dict[str, Any]):
        super().__init__(seed, sizes)
        from repro.scenarios.catalog import semidynamic_convergence_spec

        self.spec = semidynamic_convergence_spec(scheme_name="NUMFabric", seed=seed, **sizes)

    def run(self, tmp: Path, span: Callable = null_span) -> Any:
        from repro.scenarios import runner

        return runner.run_scenario(self.spec)

    def inspect(self, raw: Any) -> Outcome:
        events = self.sizes["num_events"]
        budget = self.sizes["max_iterations"]
        problems: List[str] = []
        iterations = [row["iterations"] for row in raw.rows]
        if len(iterations) != events:
            problems.append(f"{len(iterations)} of {events} events were measured")
        # The runner reports the full budget for an event that never settled.
        unconverged = sum(1 for its in iterations if its >= budget)
        for row in raw.rows:
            low, high = self.sizes["min_active"], self.sizes["max_active"]
            if not low <= row["flows_active"] <= high:
                problems.append(f"event {row['event']} left {row['flows_active']} flows active")
        digest = {
            "events": len(iterations),
            "iterations": iterations,
            "flows_active": [row["flows_active"] for row in raw.rows],
            "kinds": [row["kind"] for row in raw.rows],
            "convergence_seconds": float(sum(row["seconds"] for row in raw.rows)),
        }
        return Outcome(
            units=len(iterations) * budget,
            attempted=events,
            failed=unconverged + (events - len(iterations)),
            digest=digest,
            problems=problems,
            extras={"fluid.converge_iters": iterations},
        )


class Fig7PacketFct(Workload):
    """The only workload on sim + transports: DCTCP's half is event-loop-bound,
    NUMFabric's half (WFQ + per-port prices) is transport-bound.
    """

    name = "fig7_packet_fct"
    unit = "data packets delivered"

    def __init__(self, seed: int, sizes: Dict[str, Any]):
        super().__init__(seed, sizes)
        from repro.core.config import NumFabricParameters
        from repro.scenarios.catalog import dumbbell_fct_spec

        rtt = 50e-6
        slowed = NumFabricParameters(baseline_rtt=rtt).slowed_down(2.0)
        self.specs = {
            scheme: dumbbell_fct_spec(
                scheme_name=scheme, seed=seed, baseline_rtt=rtt, params=params, **sizes
            )
            for scheme, params in (("NUMFabric", slowed), ("DCTCP", None))
        }

    def run(self, tmp: Path, span: Callable = null_span) -> Any:
        from repro.scenarios import runner

        return {scheme: runner.run_scenario(spec) for scheme, spec in self.specs.items()}

    def inspect(self, raw: Any) -> Outcome:
        from repro.transports.base import MTU_BYTES

        flows = self.sizes["num_flows"]
        problems: List[str] = []
        digest: Dict[str, Any] = {}
        packets = completed = events = dropped = 0
        for scheme, result in raw.items():
            completions = result.artifacts["completions"]
            arrivals = result.artifacts["arrivals"]
            _check_completions(
                scheme, completions, arrivals, problems, lambda c: c.completion_time
            )
            completed += len(completions)
            packets += sum(math.ceil(c.size_bytes / MTU_BYTES) for c in completions)
            network = result.artifacts["network"]
            events += network.simulator.events_processed
            dropped += sum(port.queue.packets_dropped for port in network.ports)
            key = scheme.lower()
            digest[f"{key}_completed"] = len(completions)
            digest[f"{key}_bytes"] = sum(c.size_bytes for c in completions)
            for name, value in _fct_stats([c.completion_time for c in completions]).items():
                digest[f"{key}_{name}"] = value
        return Outcome(
            units=packets,
            attempted=2 * flows,
            failed=2 * flows - completed,
            digest=digest,
            problems=problems,
            extras={"sim.events": events, "sim.packets_dropped": dropped},
        )


class SweepGrid(Workload):
    """Toy cells, so the engines idle and the sweep fabric is the cost: key hashing,
    cache put/get, worker and agent spawn, IPC over the host loopback.
    """

    name = "sweep_grid"
    unit = "cells"

    def __init__(self, seed: int, sizes: Dict[str, Any]):
        super().__init__(seed, sizes)
        # Cell seeds start at 100 * seed so that the iterations of a run
        # (seeds s, 1000 s + 1, 1000 s + 2, ...) never share a cell.
        first = 100 * seed
        self.expression = (
            f"fig5/websearch load={sizes['loads']} size_cap_bytes={SWEEP_CELL_SIZE_CAP} "
            f"scheme={sizes['schemes']} seed={first}..{first + sizes['seeds'] - 1}"
        )
        self.modes = tuple(sizes["modes"])

    def _sweep(self, span, tasks, tmp: Path, mode: str, **options: Any) -> Dict[str, Any]:
        """One cold sweep into a fresh cache, with the time of each completion."""
        from repro import sweep

        stamps = [time.perf_counter()]

        def on_progress(message: str) -> None:
            if ": ok" in message:
                stamps.append(time.perf_counter())

        with span(f"sweep.run.{mode}"):
            report = sweep.run_sweep(
                tasks, mode=mode, cache=tmp / mode, progress=on_progress, **options
            )
        return {"report": report, "stamps": stamps}

    def run(self, tmp: Path, span: Callable = null_span) -> Any:
        from repro import sweep

        tasks = sweep.expand_grid(sweep.parse_sweep(self.expression))
        phases: Dict[str, Dict[str, Any]] = {}
        if "serial" in self.modes:
            phases["serial"] = self._sweep(span, tasks, tmp, "serial")
        if "sharded" in self.modes:
            phases["sharded"] = self._sweep(span, tasks, tmp, "sharded", workers=SWEEP_WORKERS)
        if "remote" in self.modes:
            # Agents are subprocesses on 127.0.0.1: the traffic crosses the
            # host loopback, never a real link.
            procs, hosts = sweep.spawn_local_agents(
                SWEEP_WORKERS,
                workers=1,
                cache_dirs=[tmp / f"agent{i}" for i in range(SWEEP_WORKERS)],
                env=os.environ,
            )
            try:
                phases["remote"] = self._sweep(span, tasks, tmp, "remote", hosts=hosts)
            finally:
                for proc in procs:
                    proc.terminate()
                for proc in procs:
                    try:
                        proc.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
                    proc.stdout.close()
        with span("sweep.run.warm"):
            warm = {
                mode: sweep.run_sweep(tasks, mode="serial", cache=tmp / mode) for mode in phases
            }
        return {"tasks": tasks, "phases": phases, "warm": warm}

    def inspect(self, raw: Any) -> Outcome:
        cells = len(raw["tasks"])
        problems: List[str] = []
        computed = cached = failures = retries = 0
        latencies: List[float] = []
        tables = {}
        for mode, phase in raw["phases"].items():
            report = phase["report"]
            computed += report.stats.get("computed", 0)
            failures += len(report.failures)
            retries += sum(count - 1 for count in report.attempts.values())
            stamps = phase["stamps"]
            latencies += [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
            tables[mode] = report.aggregate().rows
        for mode, report in raw["warm"].items():
            cached += report.stats.get("cached", 0)
            if report.stats.get("computed", 0):
                problems.append(f"warm re-read of the {mode} cache recomputed cells")
            if report.aggregate().rows != tables[mode]:
                problems.append(f"warm re-read of the {mode} cache returned different rows")
        reference = tables[self.modes[0]]
        for mode, rows in tables.items():
            if rows != reference:
                problems.append(f"{mode} aggregate differs from the {self.modes[0]} aggregate")
        attempted = 2 * cells * len(self.modes)
        fcts = [row["fct"] for row in reference if "fct" in row]
        digest = {
            "cells": cells,
            "rows": len(reference),
            "bytes": sum(row.get("size_bytes", 0) for row in reference),
            **(_fct_stats(fcts) if fcts else {}),
        }
        return Outcome(
            units=computed + cached,
            attempted=attempted,
            failed=attempted - computed - cached,
            digest=digest,
            problems=problems,
            extras={
                "sweep.cells": cells,
                "sweep.cell_latencies_ms": latencies,
                "sweep.retries": retries,
                "sweep.cells_failed": failures,
            },
        )


WORKLOADS = {
    cls.name: cls for cls in (Fig5Websearch, Fig5Stream, Fig4Semidynamic, Fig7PacketFct, SweepGrid)
}


def build(name: str, seed: int, toy: bool = False) -> Workload:
    """Construct a workload at benchmark size, or at toy size."""
    sizes = (TOY_SIZES if toy else SIZES)[name]
    return WORKLOADS[name](seed, sizes)
