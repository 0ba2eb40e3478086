"""Performance harness: fluid engine vs its scalar references + sim engine.

Times (stdlib ``time.perf_counter`` only, no external dependencies):

* one control-loop iteration of every fluid scheme -- xWI, DGD, RCP* and
  DCTCP -- at 50 / 200 / 1000 flows on a leaf-spine-like multi-bottleneck
  topology, the scalar reference (the per-flow dict loops of
  ``tests/fluid/_fluid_reference.py``) vs the production simulator,
  including a parity check of the final allocations;
* weighted max-min water-filling alone: the scalar reference
  (``tests/fluid/_maxmin_reference.py``), the dict entry point
  (:func:`repro.fluid.maxmin.weighted_max_min`), and
  :func:`repro.fluid.vectorized.waterfill_arrays` on link indices built
  once, as the repeat callers hold them;
* the Oracle (:func:`repro.fluid.oracle.solve_num`): the per-flow dict
  dual of ``tests/fluid/_oracle_reference.py`` against the batched array
  dual, on an all-log workload where both converge to the same optimum;
* the *persistent* dynamic Oracle
  (:class:`repro.fluid.oracle.PersistentDualSolver`) against a cold
  :func:`~repro.fluid.oracle.solve_num` per event on a churn trace, gated
  at 1e-6 against tightly converged scipy L-BFGS-B solves (the test-side
  reference of ``tests/fluid/_oracle_reference.py``);
* incremental incidence compilation
  (:meth:`repro.fluid.vectorized.CompiledFluidNetwork.refresh`) against a
  full recompile per churn event, with a column-for-column equality check;
* batched multi-bottleneck water-filling against the dense one-bottleneck-
  per-round reference schedule, with the freezing-round / distinct-level
  counters that
  pin the round count to the bottleneck-level structure;
* the flow-level dynamic simulation
  (:class:`repro.experiments.dynamic_fluid.FlowLevelSimulation`): the dict
  reference loop of ``tests/experiments/_flow_reference.py`` against the
  array loop on an identical arrival trace
  (the dict side is sampled out above 2000 flows -- parity is pinned at
  the sampled sizes), plus -- in full mode -- the Fig. 5 paper-scale
  end-to-end run (10k-flow Poisson web-search workload, Oracle +
  NUMFabric), which the roadmap requires to finish in under a minute;
* the streaming result layer: the same sized websearch replay through the
  bounded-memory streaming executor and the materializing flow engine
  (each in its own subprocess so peak RSS is comparable), with the
  streamed P50/P99 FCT gated at 1% of the exact post-hoc percentiles --
  100k flows in full mode, the long-horizon acceptance size (recorded as
  the ``fig5_100k`` row, gated at a ten-minute budget);
* the discrete-event engine: a cancellation-heavy self-rescheduling
  workload (exercising the lazy purge and the O(1) ``pending_events``
  counter), the handle-allocating vs fire-and-forget scheduling paths on
  an identical self-rescheduling workload (the before/after pair for the
  event free-list), a packet stream through an :class:`OutputPort`, and the
  demand-driven port timers: an idle 14-controller NUMFabric dumbbell
  (events and host seconds for 0.5 s simulated -- at most one event per
  controller, gated) and a timer that parks and is woken every other
  interval against an always-on one over the same span.

Any scheme whose allocation drifts more than 1e-9 (relative) from its
scalar reference aborts the run with a loud error -- the harness
doubles as a coarse parity canary.  The flow-level dict/array pair is held
to the same 1e-9; the Oracle pair is held to 1e-6, because the dual and
its reference run the same SPG solve on reassociated floating-point sums
and may stop at marginally different points of the same optimum.

Results are written as JSON to ``BENCH_fluid.json`` at the repository root
(override with ``--out``) so successive PRs accumulate a perf trajectory.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_bench.py            # full run
    PYTHONPATH=src python benchmarks/perf/run_bench.py --smoke    # CI-fast
    PYTHONPATH=src python benchmarks/perf/run_bench.py --check    # audit

The ``--smoke`` mode shrinks flow counts and iteration counts so the whole
harness finishes in a couple of seconds; it exists for the tier-1 smoke
test in ``benchmarks/perf/test_perf_smoke.py``.  ``--check`` runs a fresh
smoke pass *and* audits the committed ``BENCH_fluid.json`` (required
sections present, recorded parity numbers within their gates, Fig. 5
within budget), failing loudly on drift -- CI runs it as an advisory step.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)
if _SRC not in sys.path:  # allow running without installation
    sys.path.insert(0, _SRC)

from repro.core.config import NumFabricParameters
from repro.core.utility import AlphaFairUtility, FctUtility, LogUtility
from repro.experiments.dynamic_fluid import EqualSharePolicy, FlowLevelSimulation
from repro.experiments.fig5_dynamic import DeviationSettings, run_deviation_experiment
from repro.fluid.dctcp import DctcpFluidSimulator
from repro.fluid.dgd import DgdFluidSimulator
from repro.fluid.maxmin import weighted_max_min
from repro.fluid.network import FluidFlow, FluidNetwork
from repro.fluid.oracle import CERTIFIED, PersistentDualSolver, solve_num
from repro.fluid.rcp import RcpStarFluidSimulator
from repro.fluid.vectorized import compile_network, waterfill_arrays
from repro.fluid.xwi import XwiFluidSimulator
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort
from repro.sim.topology import dumbbell
from repro.transports.numfabric import NumFabricScheme
from repro.workloads.distributions import UniformFlowSizeDistribution
from repro.workloads.poisson import PoissonTrafficGenerator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_fluid.json")
#: Homes of the test-side references: the scalar fluid schemes, max-min
#: schedules and Oracle duals the ``xwi``, ``schemes``, ``maxmin``,
#: ``waterfill`` and ``oracle`` rows time and gate against, the Oracle
#: (scipy L-BFGS-B) the ``oracle_persistent`` gate compares against, and the
#: flow engine's dict loop of the ``flow_level`` rows.
_REFERENCES = (
    os.path.join(REPO_ROOT, "tests", "fluid"),
    os.path.join(REPO_ROOT, "tests", "experiments"),
)

PARITY_TOLERANCE = 1e-9
#: The Oracle and its dict reference run the same SPG solve on reassociated
#: floating-point sums, so their stopping points can differ marginally even
#: though they bracket the same optimum; the bench gate is coarser than the
#: 1e-9 the test-suite parity grid enforces on well-conditioned problems.
ORACLE_PARITY_TOLERANCE = 1e-6
#: Budget for the Fig. 5 paper-scale end-to-end run (full mode only).
FIG5_PAPER_BUDGET_SECONDS = 60.0
#: Budget for the 100k-flow websearch replay through the streaming runner
#: (the ``fig5_100k`` row, full mode only; derived from the streaming side
#: of the long-horizon replay bench so the workload is measured once).
FIG5_100K_BUDGET_SECONDS = 600.0
#: A timer that parks and is woken every other interval may cost at most
#: this many times the always-on timer over the same span (``--check``
#: audits the committed full-mode number; the smoke run is too short to time).
PORT_TIMER_CHURN_MAX_RATIO = 1.0

#: The comparison schemes; xWI is benchmarked separately (it predates them).
SCHEME_SIMULATORS = {
    "dgd": DgdFluidSimulator,
    "rcp_star": RcpStarFluidSimulator,
    "dctcp": DctcpFluidSimulator,
}


#: Shape of the bench fabric built by :func:`build_network`; shared with
#: the churn-trace generator so their paths stay in lockstep.
BENCH_LEAVES, BENCH_SPINES = 8, 4


def _bench_path(rng: random.Random) -> tuple:
    """One random leaf-spine-leaf path on the bench fabric."""
    src, dst = rng.sample(range(BENCH_LEAVES), 2)
    return (f"leaf{src}", f"spine{rng.randrange(BENCH_SPINES)}", f"leaf{dst}")


def build_network(n_flows: int, seed: int = 1, utilities: str = "mixed") -> FluidNetwork:
    """A leaf-spine-like multi-bottleneck fluid network.

    ``utilities="mixed"`` (default) rotates through log / alpha-fair / FCT
    utilities; ``utilities="log"`` uses weighted log utilities only -- the
    well-conditioned instance the Oracle benchmark needs so that both of
    its dict reference converge to the same optimum.
    """
    rng = random.Random(seed)
    capacities = {f"leaf{i}": 10e9 for i in range(BENCH_LEAVES)}
    capacities.update({f"spine{i}": 40e9 for i in range(BENCH_SPINES)})
    network = FluidNetwork(capacities)
    for f in range(n_flows):
        path = _bench_path(rng)
        if utilities == "log":
            utility = LogUtility(weight=rng.uniform(0.5, 4.0))
        else:
            kind = f % 3
            if kind == 0:
                utility = LogUtility(weight=rng.uniform(0.5, 4.0))
            elif kind == 1:
                utility = AlphaFairUtility(alpha=rng.choice([0.5, 1.0, 2.0]))
            else:
                utility = FctUtility(flow_size=rng.uniform(1e4, 1e7))
        network.add_flow(FluidFlow(f, path, utility))
    return network


def _max_rel_rate_diff(reference: Dict, candidate: Dict) -> float:
    return max(
        (
            abs(reference[f] - candidate[f]) / max(abs(reference[f]), 1.0)
            for f in reference
        ),
        default=0.0,
    )


def _use_references() -> None:
    """Make the test-side reference modules importable."""
    for directory in _REFERENCES:
        if directory not in sys.path:
            sys.path.insert(0, directory)


def _fluid_simulator(simulator_cls, network: FluidNetwork, backend: str):
    """The production simulator, or with ``backend="scalar"`` its test-side
    scalar reference."""
    _use_references()
    from _fluid_reference import make_simulator

    return make_simulator(simulator_cls, network, backend)


def _time_xwi(n_flows: int, iterations: int, backend: str, seed: int = 1):
    network = build_network(n_flows, seed=seed)
    simulator = _fluid_simulator(XwiFluidSimulator, network, backend)
    simulator.run(2, record_history=False)  # warm up (incl. one-time compile)
    start = time.perf_counter()
    records = simulator.run(iterations, record_history=False)
    elapsed = time.perf_counter() - start
    return elapsed, records[-1].rates


def bench_xwi(flow_counts: List[int], iterations: int) -> List[Dict]:
    rows = []
    for n_flows in flow_counts:
        scalar_s, scalar_rates = _time_xwi(n_flows, iterations, "scalar")
        vector_s, vector_rates = _time_xwi(n_flows, iterations, "vectorized")
        rows.append(
            {
                "flows": n_flows,
                "iterations": iterations,
                "scalar_seconds": scalar_s,
                "vectorized_seconds": vector_s,
                "speedup": scalar_s / vector_s if vector_s > 0 else float("inf"),
                "max_rel_rate_diff": _max_rel_rate_diff(scalar_rates, vector_rates),
            }
        )
    return rows


def _time_scheme(scheme: str, n_flows: int, iterations: int, backend: str, seed: int = 1):
    simulator = _fluid_simulator(
        SCHEME_SIMULATORS[scheme], build_network(n_flows, seed=seed), backend
    )
    simulator.run(2, record_history=False)  # warm up (incl. one-time compile)
    start = time.perf_counter()
    records = simulator.run(iterations, record_history=False)
    elapsed = time.perf_counter() - start
    return elapsed, records[-1].rates


def bench_schemes(flow_counts: List[int], iterations: int) -> Dict[str, List[Dict]]:
    """Scalar reference vs production timing + parity for DGD, RCP* and DCTCP."""
    results: Dict[str, List[Dict]] = {}
    for scheme in SCHEME_SIMULATORS:
        rows = []
        for n_flows in flow_counts:
            scalar_s, scalar_rates = _time_scheme(scheme, n_flows, iterations, "scalar")
            vector_s, vector_rates = _time_scheme(scheme, n_flows, iterations, "vectorized")
            rows.append(
                {
                    "flows": n_flows,
                    "iterations": iterations,
                    "scalar_seconds": scalar_s,
                    "vectorized_seconds": vector_s,
                    "speedup": scalar_s / vector_s if vector_s > 0 else float("inf"),
                    "max_rel_rate_diff": _max_rel_rate_diff(scalar_rates, vector_rates),
                }
            )
        results[scheme] = rows
    return results


def bench_maxmin(flow_counts: List[int], repeats: int) -> List[Dict]:
    """Repeated weighted max-min solves: the scalar reference, the dict entry
    point (one-shot: validation and link indices per call) and
    ``waterfill_arrays`` on link indices built once (the ``compiled`` column)."""
    _use_references()
    from _maxmin_reference import scalar_max_min

    rows = []
    for n_flows in flow_counts:
        network = build_network(n_flows, seed=2)
        weights = {flow.flow_id: 1.0 + (hash(flow.flow_id) % 7) for flow in network.flows}
        paths = {flow.flow_id: flow.path for flow in network.flows}
        capacities = network.capacities
        timings = {}
        results = {}
        for column, solve in (("scalar", scalar_max_min), ("vectorized", weighted_max_min)):
            start = time.perf_counter()
            for _ in range(repeats):
                results[column] = solve(weights, paths, capacities)
            timings[column] = time.perf_counter() - start
        compiled = compile_network(network)
        weight_vec = np.array([weights[flow_id] for flow_id in compiled.flow_ids])
        capacity_vec = compiled.capacities_vector()
        waterfill_arrays(compiled.path_links, weight_vec, capacity_vec)  # warm up
        start = time.perf_counter()
        for _ in range(repeats):
            rate_vec = waterfill_arrays(compiled.path_links, weight_vec, capacity_vec)
        timings["compiled"] = time.perf_counter() - start
        results["compiled"] = dict(zip(compiled.flow_ids, rate_vec.tolist()))
        rows.append(
            {
                "flows": n_flows,
                "repeats": repeats,
                "scalar_seconds": timings["scalar"],
                "vectorized_seconds": timings["vectorized"],
                "compiled_seconds": timings["compiled"],
                "speedup": timings["scalar"] / timings["vectorized"]
                if timings["vectorized"] > 0
                else float("inf"),
                "compiled_speedup": timings["scalar"] / timings["compiled"]
                if timings["compiled"] > 0
                else float("inf"),
                "max_rel_rate_diff": max(
                    _max_rel_rate_diff(results["scalar"], results["vectorized"]),
                    _max_rel_rate_diff(results["scalar"], results["compiled"]),
                ),
            }
        )
    return rows


def bench_oracle(flow_counts: List[int], repeats: int) -> List[Dict]:
    """The dict reference dual vs ``solve_num`` on an all-log multi-bottleneck net."""
    _use_references()
    from _oracle_reference import scalar_solve

    rows = []
    for n_flows in flow_counts:
        network = build_network(n_flows, seed=3, utilities="log")
        timings = {}
        results = {}
        for column, solve in (("scalar", scalar_solve), ("vectorized", solve_num)):
            solve(network)  # warm up
            start = time.perf_counter()
            for _ in range(repeats):
                results[column] = solve(network)
            timings[column] = time.perf_counter() - start
        rows.append(
            {
                "flows": n_flows,
                "repeats": repeats,
                "scalar_seconds": timings["scalar"],
                "vectorized_seconds": timings["vectorized"],
                "speedup": timings["scalar"] / timings["vectorized"]
                if timings["vectorized"] > 0
                else float("inf"),
                "max_rel_rate_diff": _max_rel_rate_diff(
                    results["scalar"].rates, results["vectorized"].rates
                ),
            }
        )
    return rows


def _churn_trace(network: FluidNetwork, events: int, seed: int = 11) -> List:
    """A deterministic arrival/departure sequence on a bench network."""
    rng = random.Random(seed)
    next_id = 10_000_000
    trace = []
    live = list(network.flow_ids)
    for _ in range(events):
        if rng.random() < 0.5 and len(live) > 20:
            victim = live.pop(rng.randrange(len(live)))
            trace.append(("remove", victim, None, None))
        else:
            trace.append(("add", next_id, _bench_path(rng), rng.uniform(0.5, 4.0)))
            live.append(next_id)
            next_id += 1
    return trace


def _apply_churn_event(network: FluidNetwork, event) -> None:
    op, flow_id, path, weight = event
    if op == "remove":
        network.remove_flow(flow_id)
    else:
        network.add_flow(FluidFlow(flow_id, path, LogUtility(weight=weight)))


def bench_oracle_persistent(flow_counts: List[int], events: int) -> List[Dict]:
    """The two Oracle paths production runs: cold per event vs persistent.

    Replays one churn trace twice -- once with a cold :func:`solve_num`
    per event (how the semi-dynamic fluid scenario of Fig. 4 gets its
    reference allocation) and once with the :class:`PersistentDualSolver`
    (the flow engine's Oracle policy) -- and checks the persistent rates
    per event against a *tightly converged* external solve: scipy L-BFGS-B
    on the same dual at ``ftol=1e-14``, the tests' reference.  Each row
    also records the persistent solver's SPG iterations after its cold
    first solve (``warm_iterations``) and the worst KKT certificate term
    of any of its answers (``worst_certificate``), which the gate holds to
    :data:`~repro.fluid.oracle.CERTIFIED`.
    """
    _use_references()
    from _oracle_reference import cold_lbfgsb

    rows = []
    for n_flows in flow_counts:
        trace = _churn_trace(build_network(n_flows, seed=5, utilities="log"), events)

        network = build_network(n_flows, seed=5, utilities="log")
        start = time.perf_counter()
        for event in trace:
            _apply_churn_event(network, event)
            solve_num(network)
        cold_s = time.perf_counter() - start

        network = build_network(n_flows, seed=5, utilities="log")
        solver = PersistentDualSolver()
        persistent_results = []
        start = time.perf_counter()
        for event in trace:
            _apply_churn_event(network, event)
            persistent_results.append(solver.solve(network))
        persistent_s = time.perf_counter() - start

        network = build_network(n_flows, seed=5, utilities="log")
        max_diff = 0.0
        for event, warm in zip(trace, persistent_results):
            _apply_churn_event(network, event)
            cold = cold_lbfgsb(network)
            max_diff = max(max_diff, _max_rel_rate_diff(cold.rates, warm.rates))
        rows.append(
            {
                "flows": n_flows,
                "events": events,
                "cold_seconds": cold_s,
                "persistent_seconds": persistent_s,
                "speedup": cold_s / persistent_s if persistent_s > 0 else float("inf"),
                "max_rel_rate_diff": max_diff,
                "warm_iterations": sum(result.iterations for result in persistent_results[1:]),
                "worst_certificate": max(result.certificate.worst for result in persistent_results),
            }
        )
    return rows


def bench_incidence(flow_counts: List[int], events: int) -> List[Dict]:
    """Layer 2 before/after: full recompile vs incremental refresh per churn.

    The same churn trace is applied twice; the ``identical`` flag records
    whether the incidence derived from the incrementally maintained
    ``path_links`` matches a from-scratch compile column-for-column (after
    aligning the slot permutation).
    """
    _use_references()
    from _maxmin_reference import dense_incidence

    rows = []
    for n_flows in flow_counts:
        trace = _churn_trace(build_network(n_flows, seed=6, utilities="log"), events)

        network = build_network(n_flows, seed=6, utilities="log")
        compile_network(network)  # warm-up
        start = time.perf_counter()
        for event in trace:
            _apply_churn_event(network, event)
            full = compile_network(network)
        full_s = time.perf_counter() - start

        network = build_network(n_flows, seed=6, utilities="log")
        compiled = compile_network(network)
        start = time.perf_counter()
        for event in trace:
            _apply_churn_event(network, event)
            compiled.refresh()
        incremental_s = time.perf_counter() - start

        full = compile_network(network)
        full_slot = {flow_id: j for j, flow_id in enumerate(full.flow_ids)}
        identical = sorted(map(repr, compiled.flow_ids)) == sorted(
            map(repr, full.flow_ids)
        ) and np.array_equal(
            dense_incidence(compiled),
            dense_incidence(full)[:, [full_slot[flow_id] for flow_id in compiled.flow_ids]],
        )
        rows.append(
            {
                "flows": n_flows,
                "events": events,
                "full_seconds": full_s,
                "incremental_seconds": incremental_s,
                "speedup": full_s / incremental_s if incremental_s > 0 else float("inf"),
                "identical": identical,
            }
        )
    return rows


def _waterfill_instance(
    n_flows: int, seed: int = 4, small: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """A host-link-rich leaf-spine fabric (the Fig. 5 waterfill shape), as
    ``(path_links, capacities)`` for :func:`waterfill_arrays`.

    Every flow crosses its own host up/down links plus shared core links,
    so the one-bottleneck-per-round schedule pays roughly one Python round
    per *flow* while the batched schedule freezes whole waves of
    independent bottlenecks at once -- the regime the xWI inner loop hits
    at paper scale.  (On the 12-link core-only bench topology both
    schedules need the same handful of rounds, which is exactly why this
    bench uses the fabric.)

    ``small`` pins a 48-link fabric (16 servers, 4 leaves, 2 spines) at any
    flow count: ~8 % incidence density, the many-flows-on-few-links regime.
    """
    from repro.core.config import SimulationParameters
    from repro.fluid.topologies import leaf_spine

    rng = random.Random(seed)
    if small:
        servers = 16
        params = SimulationParameters(num_servers=servers, num_leaves=4, num_spines=2)
    else:
        servers = max(16, min(128, 8 * max(1, (2 * n_flows) // 8)))
        params = SimulationParameters(num_servers=servers, num_leaves=8, num_spines=4)
    fabric = leaf_spine(params)
    network = fabric.network
    for flow_id in range(n_flows):
        src, dst = rng.sample(range(servers), 2)
        path = fabric.path(src, dst, spine=flow_id % params.num_spines)
        network.add_flow(FluidFlow(flow_id, path, LogUtility()))
    compiled = compile_network(network)
    return compiled.path_links, compiled.capacities_vector()


#: Recorded with the small-fabric waterfill rows (see docs/PERFORMANCE.md).
SMALL_FABRIC_NOTE = (
    "48-link fabric at ~8 % incidence density: the regime where index gathers "
    "have the least edge over the dense tie-group schedule they replaced (a "
    "48-row BLAS matvec is cheap).  Per call on the PR 12 box: dense 540 us / "
    "1.10 ms vs path-indexed 371 us / 0.78 ms at 400 / 2000 flows; the issue's "
    "prototype, which reduced along the short hop axis, was slower here (783 us "
    "/ 2.7 ms).  No catalog scenario or benchmark workload runs >= 400 "
    "concurrent flows on < 64 links, so one schedule serves every size: this "
    "row is a record, not a fork."
)


def bench_waterfill(
    flow_counts: List[int], repeats: int, small_fabric_counts: Sequence[int] = ()
) -> List[Dict]:
    """Layer 3 before/after: one-bottleneck-per-round vs batched waterfill.

    ``single`` is the dense one-bottleneck-per-round reference schedule of
    ``tests/fluid/_maxmin_reference.py``, ``batched`` the path-indexed wave
    schedule every caller runs.  Also
    records the freezing-round counters: batched rounds track the number of
    distinct bottleneck levels (bounded by the dependency depth), not the
    bottleneck-link count the unbatched schedule pays.
    ``small_fabric_counts`` adds rows on the 48-link fabric, tagged with
    :data:`SMALL_FABRIC_NOTE`.
    """
    _use_references()
    from _maxmin_reference import dense_waterfill, incidence_of

    rows = []
    cases = [(n, False) for n in flow_counts] + [(n, True) for n in small_fabric_counts]
    for n_flows, small in cases:
        rng = random.Random(3)
        path_links, capacities = _waterfill_instance(n_flows, small=small)
        weight_vec = np.array([rng.uniform(0.5, 4.0) for _ in range(n_flows)])
        incidence = incidence_of(path_links, capacities.size)

        single_stats: Dict[str, int] = {}
        batched_stats: Dict[str, int] = {}
        single = dense_waterfill(incidence, weight_vec, capacities, single_stats)
        batched = waterfill_arrays(path_links, weight_vec, capacities, batched_stats)
        max_diff = float(
            max(
                abs(s - b) / max(abs(s), 1.0)
                for s, b in zip(single.tolist(), batched.tolist())
            )
        )

        start = time.perf_counter()
        for _ in range(repeats):
            dense_waterfill(incidence, weight_vec, capacities)
        single_s = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(repeats):
            waterfill_arrays(path_links, weight_vec, capacities)
        batched_s = time.perf_counter() - start
        row = {
            "flows": n_flows,
            "links": capacities.size,
            "repeats": repeats,
            "single_seconds": single_s,
            "batched_seconds": batched_s,
            "speedup": single_s / batched_s if batched_s > 0 else float("inf"),
            "rounds_single": single_stats["rounds"],
            "rounds_batched": batched_stats["rounds"],
            "distinct_levels": batched_stats["levels"],
            "max_rel_rate_diff": max_diff,
        }
        if small:
            row["note"] = SMALL_FABRIC_NOTE
        rows.append(row)
    return rows


def _flow_level_arrivals(n_flows: int, seed: int = 7) -> List:
    generator = PoissonTrafficGenerator(
        num_servers=8,
        size_distribution=UniformFlowSizeDistribution(10_000, 2_000_000),
        load=0.6,
        link_rate=10e9,
        seed=seed,
    )
    return generator.generate(max_flows=n_flows)


def _time_flow_level(arrivals: List, loop: str):
    """Time the ``"array"`` loop or, with ``"dict"``, the test-side dict loop."""
    _use_references()
    from _flow_reference import run_dict

    network = FluidNetwork({"bottleneck": 10e9})
    simulation = FlowLevelSimulation(
        network,
        lambda arrival: ("bottleneck",),
        EqualSharePolicy(10e9),
    )
    run = simulation.run if loop == "array" else lambda a: run_dict(simulation, a)
    start = time.perf_counter()
    completed = run(arrivals)
    return time.perf_counter() - start, completed


def bench_flow_level(flow_counts: List[int], dict_limit: Optional[int] = None) -> List[Dict]:
    """Dict vs array FlowLevelSimulation stepping on one arrival trace.

    ``dict_limit`` caps the sizes at which the dict reference loop runs:
    at 10k flows the dict side alone used to burn ~3 minutes of full-mode
    bench time while the bit-exact parity story is already covered by the
    sampled sizes, so larger rows time only the array loop
    (``dict_seconds`` / ``speedup`` / ``max_rel_fct_diff`` are null).
    """
    rows = []
    for n_flows in flow_counts:
        arrivals = _flow_level_arrivals(n_flows)
        array_s, array_completed = _time_flow_level(arrivals, "array")
        if dict_limit is not None and n_flows > dict_limit:
            rows.append(
                {
                    "flows": n_flows,
                    "completed": len(array_completed),
                    "dict_seconds": None,
                    "array_seconds": array_s,
                    "speedup": None,
                    "max_rel_fct_diff": None,
                }
            )
            continue
        dict_s, dict_completed = _time_flow_level(arrivals, "dict")
        max_diff = max(
            (
                abs(d.fct - a.fct) / max(abs(d.fct), 1e-12)
                for d, a in zip(dict_completed, array_completed)
            ),
            default=0.0,
        )
        if [c.flow_id for c in dict_completed] != [c.flow_id for c in array_completed]:
            max_diff = float("inf")  # completion order diverged: fail the gate
        rows.append(
            {
                "flows": n_flows,
                "completed": len(array_completed),
                "dict_seconds": dict_s,
                "array_seconds": array_s,
                "speedup": dict_s / array_s if array_s > 0 else float("inf"),
                "max_rel_fct_diff": max_diff,
            }
        )
    return rows


#: Streaming quantiles must stay within 1% of the exact post-hoc
#: percentiles (the GK sketch's value-error budget at the default epsilon).
STREAMING_PARITY_TOLERANCE = 1e-2


def _streaming_replay_spec(num_flows: int):
    from dataclasses import replace

    from repro.scenarios import get_scenario

    base = get_scenario("fig5/websearch")
    params = {**dict(base.workload.params), "num_flows": num_flows}
    return replace(base, workload=replace(base.workload, params=params), seed=3)


def streaming_replay_child(mode: str, num_flows: int) -> Dict:
    """One side of the streaming-replay bench, run in a fresh process.

    Isolation matters here: ``ru_maxrss`` is a process-lifetime high-water
    mark, so measuring both sides (or running after the other bench
    sections) in one process would make the peaks incomparable.
    """
    import resource

    from repro.scenarios import run_scenario, run_scenario_streaming

    spec = _streaming_replay_spec(num_flows)
    start = time.perf_counter()
    if mode == "streaming":
        result = run_scenario_streaming(spec, engine="flow")
        summary = result.rows[0]
        payload = {
            "completed": summary["flows_completed"],
            "fct_p50": summary["fct_p50"],
            "fct_p99": summary["fct_p99"],
            "utilization_windows": len(result.artifacts["utilization_windows"]),
        }
    else:
        result = run_scenario(spec, engine="flow")
        fcts = np.array([row["fct"] for row in result.rows])
        payload = {
            "completed": len(result.rows),
            "fct_p50": float(np.percentile(fcts, 50.0)),
            "fct_p99": float(np.percentile(fcts, 99.0)),
        }
    payload["seconds"] = time.perf_counter() - start
    payload["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return payload


def bench_streaming_replay(num_flows: int) -> Dict:
    """Long-horizon websearch replay: streaming runner vs post-hoc reference.

    Runs the same sized fig5/websearch spec twice, each side in its own
    subprocess (see :func:`streaming_replay_child`): once through the
    bounded-memory streaming executor and once through the materializing
    flow engine.  The streamed P50/P99 FCT are gated at 1% of the exact
    percentiles; the per-process peak-RSS pair is the flat-memory
    evidence -- the streaming side never holds the per-flow dump, so its
    peak stays below the materializing side's at every trace length.
    """
    import subprocess

    sides = {}
    for mode in ("streaming", "posthoc"):
        process = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--streaming-child",
                mode,
                "--flows",
                str(num_flows),
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        sides[mode] = json.loads(process.stdout)
    streamed, posthoc = sides["streaming"], sides["posthoc"]
    errors = {
        key: abs(streamed[key] - posthoc[key]) / posthoc[key]
        for key in ("fct_p50", "fct_p99")
    }
    return {
        "flows": num_flows,
        "completed": streamed["completed"],
        "streaming_seconds": streamed["seconds"],
        "posthoc_seconds": posthoc["seconds"],
        "p50_rel_error": errors["fct_p50"],
        "p99_rel_error": errors["fct_p99"],
        "max_rel_quantile_diff": max(errors.values()),
        "utilization_windows": streamed["utilization_windows"],
        "streaming_maxrss_kb": streamed["maxrss_kb"],
        "posthoc_maxrss_kb": posthoc["maxrss_kb"],
    }


def bench_fig5_paper_scale() -> Dict:
    """The Fig. 5 acceptance run: 10k-flow web-search workload, end to end.

    Runs the Oracle reference plus the NUMFabric scheme (the paper's
    headline comparison) through the array-backed flow-level layer and the
    warm-started vectorized Oracle; the elapsed time is recorded so the
    perf trajectory keeps the under-a-minute budget honest.
    """
    settings = DeviationSettings.paper_scale()
    # Two timed runs, report the minimum: the acceptance metric tracks what
    # the code costs, and on this (shared, ±20%-noisy) machine a single
    # sample routinely carries several seconds of scheduler noise.
    runs = []
    for _ in range(2):
        start = time.perf_counter()
        result = run_deviation_experiment("websearch", settings, schemes=["NUMFabric"])
        runs.append(time.perf_counter() - start)
    elapsed = min(runs)
    populated = [row for row in result.rows if row["median"] is not None]
    return {
        "flows": settings.num_flows,
        "schemes": ["Oracle", "NUMFabric"],
        "seconds": elapsed,
        "run_seconds": runs,
        "budget_seconds": FIG5_PAPER_BUDGET_SECONDS,
        "within_budget": elapsed < FIG5_PAPER_BUDGET_SECONDS,
        "populated_bins": len(populated),
        "worst_numfabric_median": max(
            (abs(row["median"]) for row in populated), default=float("nan")
        ),
    }


def _bench_cancellation_heavy(n_events: int) -> Dict:
    """Cancellation-heavy event-loop benchmark (the retransmission-timer pattern).

    Every fired event schedules one live successor and one decoy that is
    immediately cancelled, so half of everything pushed into the heap is
    dead weight -- exactly the load the lazy purge is for.
    """
    simulator = Simulator()

    def noop() -> None:
        pass

    def reschedule() -> None:
        if simulator.events_processed < n_events:
            simulator.schedule(1e-6, reschedule)
            simulator.schedule(2e-6, noop).cancel()

    for _ in range(16):
        simulator.schedule(1e-6, reschedule)
    start = time.perf_counter()
    simulator.run(max_events=n_events)
    elapsed = time.perf_counter() - start
    return {
        "events": simulator.events_processed,
        "seconds": elapsed,
        "events_per_second": simulator.events_processed / elapsed if elapsed > 0 else float("inf"),
        "pending_after": simulator.pending_events,
    }


def _bench_self_reschedule(n_events: int, uncancellable: bool) -> Dict:
    """Identical self-rescheduling workload on either scheduling path.

    The ``handle`` / ``uncancellable`` pair is the before/after measurement
    for the event free-list: same callbacks, same heap traffic, the only
    difference is whether each event allocates an ``EventHandle``.
    """
    simulator = Simulator()
    schedule = simulator.schedule_uncancellable if uncancellable else simulator.schedule

    def reschedule() -> None:
        if simulator.events_processed < n_events:
            schedule(1e-6, reschedule)

    for _ in range(16):
        schedule(1e-6, reschedule)
    start = time.perf_counter()
    simulator.run(max_events=n_events)
    elapsed = time.perf_counter() - start
    return {
        "events": simulator.events_processed,
        "seconds": elapsed,
        "events_per_second": simulator.events_processed / elapsed if elapsed > 0 else float("inf"),
    }


class _CountingSink:
    """Receives packets from a port and keeps the stream alive."""

    def __init__(self, port: OutputPort, n_packets: int):
        self.port = port
        self.n_packets = n_packets
        self.received = 0

    def receive(self, packet: Packet) -> None:
        self.received += 1
        if self.received < self.n_packets:
            self.port.send(packet)


def _bench_port_stream(n_packets: int, propagation_delay: float = 1e-6) -> Dict:
    """A closed-loop packet stream through one OutputPort.

    Each packet costs two events (serialization finish + propagation
    delivery), both on the fire-and-forget path -- the packet-level
    simulator's hot loop, isolated.  At ``propagation_delay == 0`` the
    port coalesces delivery into the serialization event, so the same
    stream costs one event per packet.
    """
    simulator = Simulator()
    port = OutputPort(simulator, "bench", rate_bps=10e9, propagation_delay=propagation_delay)
    sink = _CountingSink(port, n_packets)
    port.connect(sink)
    for _ in range(32):
        port.send(Packet(flow_id=0, source=0, destination=1, size_bytes=1500))
    start = time.perf_counter()
    simulator.run()
    elapsed = time.perf_counter() - start
    events = simulator.events_processed
    return {
        "packets": sink.received,
        "events": events,
        "seconds": elapsed,
        "events_per_second": events / elapsed if elapsed > 0 else float("inf"),
        "packets_per_second": sink.received / elapsed if elapsed > 0 else float("inf"),
    }


def _bench_idle_port_timers(simulated_seconds: float = 0.5) -> Dict:
    """fig7's dumbbell (14 price controllers) with no flows at all.

    Every controller's first tick closes an idle interval and parks, so the
    whole run is one event per controller; ``always_on_events`` is what one
    tick per port per interval comes to over the same span.
    """
    # The end-to-end fig7 workload's parameters: 60 us price updates.
    scheme = NumFabricScheme(NumFabricParameters(baseline_rtt=50e-6).slowed_down(2.0))
    network = dumbbell(scheme, num_pairs=6)
    start = time.perf_counter()
    network.run(simulated_seconds)
    elapsed = time.perf_counter() - start
    controllers = len(scheme.controllers)
    ticks = int(simulated_seconds / scheme.params.price_update_interval)
    return {
        "controllers": controllers,
        "simulated_seconds": simulated_seconds,
        "events": network.simulator.events_processed,
        "always_on_events": controllers * ticks,
        "seconds": elapsed,
    }


def _bench_port_timer_churn(n_ticks: int, interval: float = 3e-5) -> Dict:
    """Worst-case park/unpark churn against the reschedule it replaces.

    A port that sees one packet every other interval parks after every
    idle tick and is woken by the next packet.  Both sides run the same
    ``n_ticks`` intervals with the same wake-up events (the packets, which
    exist either way); the always-on timer pays a fire and a reschedule per
    interval, the parking one a fire, a park and an unpark per two.
    """
    seconds = {}
    for label, parks in (("always_on", False), ("park_unpark", True)):
        simulator = Simulator()
        timer = simulator.every(interval, (lambda: timer.park()) if parks else (lambda: None))
        for k in range(n_ticks // 2):
            simulator.schedule((2 * k + 1.5) * interval, timer.unpark)
        start = time.perf_counter()
        simulator.run(until=n_ticks * interval)
        seconds[label] = time.perf_counter() - start
    return {
        "ticks": n_ticks,
        "always_on_seconds": seconds["always_on"],
        "park_unpark_seconds": seconds["park_unpark"],
        "ratio": seconds["park_unpark"] / seconds["always_on"],
    }


def enforce_idle_timers(engine: Dict) -> None:
    """An idle network must cost at most one event per controller."""
    idle = engine["idle_port_timers"]
    if idle["events"] > idle["controllers"]:
        raise RuntimeError(
            f"idle port timers did not park: {idle['events']} events for "
            f"{idle['controllers']} controllers over {idle['simulated_seconds']} s simulated"
        )


def bench_engine(n_events: int, n_packets: int) -> Dict:
    return {
        "cancellation_heavy": _bench_cancellation_heavy(n_events),
        "self_reschedule": {
            "handle": _bench_self_reschedule(n_events, uncancellable=False),
            "uncancellable": _bench_self_reschedule(n_events, uncancellable=True),
        },
        "port_stream": _bench_port_stream(n_packets),
        "port_stream_zero_delay": _bench_port_stream(n_packets, propagation_delay=0.0),
        "idle_port_timers": _bench_idle_port_timers(),
        "port_timer_churn": _bench_port_timer_churn(n_events),
    }


def enforce_parity(results: Dict) -> None:
    """Abort loudly if any production path drifted from its scalar reference."""
    failures = []
    for row in results["xwi"]:
        if row["max_rel_rate_diff"] > PARITY_TOLERANCE:
            failures.append(("xwi", row["flows"], row["max_rel_rate_diff"]))
    for scheme, rows in results["schemes"].items():
        for row in rows:
            if row["max_rel_rate_diff"] > PARITY_TOLERANCE:
                failures.append((scheme, row["flows"], row["max_rel_rate_diff"]))
    for row in results["maxmin"]:
        if row["max_rel_rate_diff"] > PARITY_TOLERANCE:
            failures.append(("maxmin", row["flows"], row["max_rel_rate_diff"]))
    for row in results["oracle"]:
        if row["max_rel_rate_diff"] > ORACLE_PARITY_TOLERANCE:
            failures.append(("oracle", row["flows"], row["max_rel_rate_diff"]))
    for row in results.get("oracle_persistent", ()):
        if row["max_rel_rate_diff"] > ORACLE_PARITY_TOLERANCE:
            failures.append(("oracle_persistent", row["flows"], row["max_rel_rate_diff"]))
        if row["worst_certificate"] > CERTIFIED:
            failures.append(
                ("oracle_persistent_certificate", row["flows"], row["worst_certificate"])
            )
    for row in results.get("waterfill", ()):
        if row["max_rel_rate_diff"] > PARITY_TOLERANCE:
            failures.append(("waterfill", row["flows"], row["max_rel_rate_diff"]))
        if row["rounds_batched"] > row["distinct_levels"]:
            failures.append(("waterfill_rounds", row["flows"], float(row["rounds_batched"])))
    for row in results.get("incidence", ()):
        if not row["identical"]:
            failures.append(("incidence", row["flows"], float("inf")))
    for row in results["flow_level"]:
        # Rows beyond the dict sampling limit carry no parity number.
        if row["max_rel_fct_diff"] is not None and row["max_rel_fct_diff"] > PARITY_TOLERANCE:
            failures.append(("flow_level", row["flows"], row["max_rel_fct_diff"]))
    streaming = results.get("streaming_replay")
    if streaming is not None:
        if streaming["max_rel_quantile_diff"] > STREAMING_PARITY_TOLERANCE:
            failures.append(
                ("streaming_replay", streaming["flows"], streaming["max_rel_quantile_diff"])
            )
        # Below ~10k flows the per-flow dump is smaller than interpreter
        # noise between two fresh processes, so the RSS gate only applies
        # at sizes where the materialized state actually dominates.
        if (
            streaming["flows"] >= 10_000
            and streaming["streaming_maxrss_kb"] > streaming["posthoc_maxrss_kb"]
        ):
            failures.append(("streaming_replay_rss", streaming["flows"], float("inf")))
    if failures:
        details = ", ".join(
            f"{name} at {flows} flows diverged by {diff:.3e}" for name, flows, diff in failures
        )
        raise RuntimeError(
            f"vectorized/scalar parity violated (tolerance {PARITY_TOLERANCE:g}): {details}"
        )


def run(smoke: bool = False) -> Dict:
    if smoke:
        flow_counts, xwi_iterations, maxmin_repeats = [20, 50], 5, 3
        oracle_counts, oracle_repeats = [20, 50], 2
        persistent_counts, churn_events = [50], 15
        incidence_counts, incidence_events = [50], 40
        waterfill_counts, waterfill_repeats, small_fabric_counts = [20, 50], 3, []
        flow_level_counts, dict_limit = [100], None
        engine_events, port_packets = 10_000, 2_000
        streaming_flows = 1_500
    else:
        flow_counts, xwi_iterations, maxmin_repeats = [50, 200, 1000], 25, 10
        oracle_counts, oracle_repeats = [50, 200, 1000], 5
        persistent_counts, churn_events = [200, 1000], 40
        incidence_counts, incidence_events = [200, 1000], 200
        waterfill_counts, waterfill_repeats, small_fabric_counts = [50, 200, 1000], 20, [400, 2000]
        # The dict reference loop at 10k flows used to burn ~3 minutes of
        # full-mode bench time; parity stays pinned at the sampled sizes.
        flow_level_counts, dict_limit = [500, 2000, 10_000], 2000
        engine_events, port_packets = 100_000, 50_000
        # The ISSUE-8 acceptance size: a 100k-flow long-horizon replay
        # (several minutes per side; the streaming path must stay flat).
        streaming_flows = 100_000
    results = {
        "meta": {
            "smoke": smoke,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "xwi": bench_xwi(flow_counts, xwi_iterations),
        "schemes": bench_schemes(flow_counts, xwi_iterations),
        "maxmin": bench_maxmin(flow_counts, maxmin_repeats),
        "oracle": bench_oracle(oracle_counts, oracle_repeats),
        "oracle_persistent": bench_oracle_persistent(persistent_counts, churn_events),
        "incidence": bench_incidence(incidence_counts, incidence_events),
        "waterfill": bench_waterfill(waterfill_counts, waterfill_repeats, small_fabric_counts),
        "flow_level": bench_flow_level(flow_level_counts, dict_limit),
        "engine": bench_engine(engine_events, port_packets),
        "streaming_replay": bench_streaming_replay(streaming_flows),
    }
    if not smoke:
        # The Fig. 5 acceptance run is full-mode only: it simulates the
        # paper's 10k-flow dynamic workload end to end (~20 s).
        results["fig5_paper_scale"] = bench_fig5_paper_scale()
        # The 100k-flow row reuses the streaming side of the long-horizon
        # replay above -- same fig5/websearch workload through the
        # bounded-memory runner -- so the four-minute trace is paid once.
        streaming = results["streaming_replay"]
        results["fig5_100k"] = {
            "flows": streaming["flows"],
            "completed": streaming["completed"],
            "seconds": streaming["streaming_seconds"],
            "budget_seconds": FIG5_100K_BUDGET_SECONDS,
            "within_budget": streaming["streaming_seconds"] <= FIG5_100K_BUDGET_SECONDS,
            "p50_rel_error": streaming["p50_rel_error"],
            "p99_rel_error": streaming["p99_rel_error"],
        }
    enforce_parity(results)
    enforce_idle_timers(results["engine"])
    return results


#: Sections every committed BENCH_fluid.json must carry for ``--check``.
REQUIRED_SECTIONS = (
    "xwi",
    "schemes",
    "maxmin",
    "oracle",
    "oracle_persistent",
    "incidence",
    "waterfill",
    "flow_level",
    "engine",
    "streaming_replay",
)


def check_against_committed(path: str) -> None:
    """``--check``: fresh smoke run + audit of the committed bench JSON.

    Fails loudly (non-zero exit) when (a) a fresh smoke run violates any
    parity gate on this machine, (b) the committed ``BENCH_fluid.json`` is
    missing a required section, (c) the parity numbers *recorded* in the
    committed file violate the gates they were supposed to enforce, or
    (d) the committed Fig. 5 paper-scale run exceeded its budget.  Wired
    into CI as an advisory step so the perf trajectory stays honest.
    """
    run(smoke=True)  # enforce_parity aborts on drift
    print("fresh smoke run: parity gates ok")
    if not os.path.exists(path):
        raise RuntimeError(f"committed bench results not found: {path}")
    with open(path) as handle:
        committed = json.load(handle)
    missing = [section for section in REQUIRED_SECTIONS if section not in committed]
    if missing:
        raise RuntimeError(
            f"committed {os.path.basename(path)} is missing sections: {missing} "
            "(re-run the full benchmark and commit the refreshed JSON)"
        )
    stale = [
        row["flows"]
        for row in committed["oracle_persistent"]
        if "cold_seconds" not in row or "worst_certificate" not in row
    ]
    if stale:
        raise RuntimeError(
            f"committed oracle_persistent rows at {stale} flows predate the cold-solve "
            "baseline or the certificate gate (no cold_seconds or worst_certificate "
            "column); re-run that section"
        )
    enforce_parity(committed)
    if "idle_port_timers" not in committed["engine"]:
        raise RuntimeError(
            "committed engine section predates the demand-driven port timers "
            "(no idle_port_timers row); re-run that section"
        )
    enforce_idle_timers(committed["engine"])
    churn = committed["engine"]["port_timer_churn"]
    if churn["ratio"] > PORT_TIMER_CHURN_MAX_RATIO:
        raise RuntimeError(
            f"committed port_timer_churn: parking costs {churn['ratio']:.2f}x the "
            f"always-on timer (gate {PORT_TIMER_CHURN_MAX_RATIO})"
        )
    for section in ("fig5_paper_scale", "fig5_100k"):
        fig5 = committed.get(section)
        if fig5 is not None and not fig5.get("within_budget", False):
            raise RuntimeError(
                f"committed {section} exceeded its budget: {fig5['seconds']:.1f}s "
                f"vs {fig5['budget_seconds']:.0f}s"
            )
    print(f"committed {os.path.basename(path)}: sections, parity gates and budget ok")


def main(argv: Optional[List[str]] = None) -> Dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, ~1 s total")
    parser.add_argument("--out", default=DEFAULT_OUTPUT, help="JSON output path")
    parser.add_argument(
        "--check",
        action="store_true",
        help="run a fresh smoke pass and audit the committed JSON instead of "
        "benchmarking (fails loudly on parity-gate drift; writes nothing)",
    )
    parser.add_argument(
        "--streaming-child",
        choices=("streaming", "posthoc"),
        help=argparse.SUPPRESS,  # internal: one isolated streaming-replay side
    )
    parser.add_argument("--flows", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.streaming_child:
        print(json.dumps(streaming_replay_child(args.streaming_child, args.flows)))
        return {}
    if args.check:
        check_against_committed(args.out)
        return {}
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir):
        parser.error(f"output directory does not exist: {out_dir}")
    results = run(smoke=args.smoke)
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    for row in results["xwi"]:
        print(
            f"xwi {row['flows']:>5} flows: scalar {row['scalar_seconds']:.3f}s, "
            f"vectorized {row['vectorized_seconds']:.3f}s, "
            f"speedup {row['speedup']:.1f}x, max rate diff {row['max_rel_rate_diff']:.2e}"
        )
    for scheme, rows in results["schemes"].items():
        for row in rows:
            print(
                f"{scheme} {row['flows']:>5} flows: scalar {row['scalar_seconds']:.3f}s, "
                f"vectorized {row['vectorized_seconds']:.3f}s, "
                f"speedup {row['speedup']:.1f}x, max rate diff {row['max_rel_rate_diff']:.2e}"
            )
    for row in results["maxmin"]:
        print(
            f"maxmin {row['flows']:>5} flows: one-shot {row['speedup']:.1f}x, "
            f"compiled {row['compiled_speedup']:.1f}x "
            f"({row['scalar_seconds']:.3f}s -> {row['vectorized_seconds']:.3f}s "
            f"-> {row['compiled_seconds']:.3f}s)"
        )
    for row in results["oracle"]:
        print(
            f"oracle {row['flows']:>5} flows: scalar {row['scalar_seconds']:.3f}s, "
            f"vectorized {row['vectorized_seconds']:.3f}s, "
            f"speedup {row['speedup']:.1f}x, max rate diff {row['max_rel_rate_diff']:.2e}"
        )
    for row in results["oracle_persistent"]:
        print(
            f"oracle-persistent {row['flows']:>5} flows x {row['events']} churn events: "
            f"cold solve_num {row['cold_seconds']:.3f}s, persistent "
            f"{row['persistent_seconds']:.3f}s, speedup {row['speedup']:.1f}x, "
            f"max rate diff {row['max_rel_rate_diff']:.2e}, "
            f"{row['warm_iterations']} warm SPG iterations, "
            f"worst certificate term {row['worst_certificate']:.1e}"
        )
    for row in results["incidence"]:
        print(
            f"incidence {row['flows']:>5} flows x {row['events']} churn events: "
            f"full {row['full_seconds']:.3f}s, incremental "
            f"{row['incremental_seconds']:.3f}s, speedup {row['speedup']:.1f}x, "
            f"identical {row['identical']}"
        )
    for row in results["waterfill"]:
        print(
            f"waterfill {row['flows']:>5} flows x {row['links']} links: "
            f"single {row['single_seconds']:.3f}s "
            f"({row['rounds_single']} rounds), batched {row['batched_seconds']:.3f}s "
            f"({row['rounds_batched']} rounds / {row['distinct_levels']} levels), "
            f"speedup {row['speedup']:.1f}x, max rate diff {row['max_rel_rate_diff']:.2e}"
        )
    for row in results["flow_level"]:
        if row["dict_seconds"] is None:
            print(
                f"flow-level {row['flows']:>6} flows: array {row['array_seconds']:.3f}s "
                "(dict reference sampled out at this size)"
            )
            continue
        print(
            f"flow-level {row['flows']:>6} flows: dict {row['dict_seconds']:.3f}s, "
            f"array {row['array_seconds']:.3f}s, speedup {row['speedup']:.1f}x, "
            f"max fct diff {row['max_rel_fct_diff']:.2e}"
        )
    streaming = results["streaming_replay"]
    print(
        f"streaming replay {streaming['flows']:>6} flows: streamed in "
        f"{streaming['streaming_seconds']:.1f}s vs post-hoc "
        f"{streaming['posthoc_seconds']:.1f}s, p50/p99 rel error "
        f"{streaming['p50_rel_error']:.2e}/{streaming['p99_rel_error']:.2e}, "
        f"maxrss {streaming['streaming_maxrss_kb'] / 1024:.0f}MB streamed vs "
        f"{streaming['posthoc_maxrss_kb'] / 1024:.0f}MB materialized"
    )
    if "fig5_paper_scale" in results:
        fig5 = results["fig5_paper_scale"]
        print(
            f"fig5 paper scale: {fig5['flows']} flows (Oracle + NUMFabric) in "
            f"{fig5['seconds']:.1f}s (budget {fig5['budget_seconds']:.0f}s, "
            f"within budget: {fig5['within_budget']})"
        )
    if "fig5_100k" in results:
        row = results["fig5_100k"]
        print(
            f"fig5 100k: {row['flows']} flows through the streaming runner in "
            f"{row['seconds']:.1f}s (budget {row['budget_seconds']:.0f}s, "
            f"within budget: {row['within_budget']})"
        )
    engine = results["engine"]
    print(
        f"engine cancellation-heavy: {engine['cancellation_heavy']['events']} events "
        f"({engine['cancellation_heavy']['events_per_second']:.0f} events/s)"
    )
    reschedule = engine["self_reschedule"]
    print(
        f"engine self-reschedule: handle {reschedule['handle']['events_per_second']:.0f} events/s "
        f"-> uncancellable {reschedule['uncancellable']['events_per_second']:.0f} events/s"
    )
    print(
        f"engine port stream: {engine['port_stream']['packets']} packets "
        f"({engine['port_stream']['events_per_second']:.0f} events/s) -> zero-delay "
        f"coalesced {engine['port_stream_zero_delay']['packets_per_second']:.0f} packets/s"
    )
    print(f"wrote {args.out}")
    return results


if __name__ == "__main__":
    main()
