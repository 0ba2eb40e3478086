"""One benchmark run of one workload, in a fresh process (``python -m e2e.child``).

Set-up (timed from the parent's ``--t0`` to the first timed call) is the
interpreter, ``import repro``, building the workload's specs and one
toy-size pass through the same entry point.  Then the workload's fixed-size
iteration repeats until ``--seconds`` is used up and the medians over the
iterations are reported.  With ``--trace 1`` untraced and traced iterations
alternate, so the run yields the per-layer numbers and the cost of tracing.

The last line on stdout is one JSON object for the parent (``run.py``).
Everything lives under ``main()``: the sharded sweep executor starts its
workers with the ``spawn`` method, which imports this module again.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RELATIVE_TOLERANCE = 1e-6


def compare_digests(got: Any, want: Any, path: str = "") -> List[str]:
    """Differences between two digests: counts exactly, floats at 1e-6 relative."""
    if isinstance(want, dict) and isinstance(got, dict):
        problems = [f"{path}{key}: missing" for key in want.keys() - got.keys()]
        problems += [f"{path}{key}: unexpected" for key in got.keys() - want.keys()]
        for key in want.keys() & got.keys():
            problems += compare_digests(got[key], want[key], f"{path}{key}.")
        return problems
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        problems = []
        for index, (g, w) in enumerate(zip(got, want)):
            problems += compare_digests(g, w, f"{path}{index}.")
        return problems
    if isinstance(want, float) or isinstance(got, float):
        if abs(got - want) <= RELATIVE_TOLERANCE * max(abs(got), abs(want)):
            return []
    elif got == want:
        return []
    return [f"{path.rstrip('.')}: got {got!r}, reference {want!r}"]


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}.seed{seed}.json"


def _cpu_seconds() -> float:
    """User + system CPU of this process and of the descendants it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    descendants = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, descendants) / 1024.0


def _versions() -> Dict[str, Any]:
    import platform

    import numpy
    import scipy
    from repro.fluid import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_numba": kernels.HAVE_NUMBA,
    }


@dataclass
class Timed:
    """One timed iteration and what it produced."""

    wall: float
    cpu: float
    outcome: Any


def iteration_seed(seed: int, index: int) -> int:
    """The seed of the run's ``index``-th iteration.

    A run draws a fresh input per iteration and reports medians over them:
    the cost of one input depends on its heavy-tailed flow sizes, and a
    single draw would make a run's reading hinge on it.  Iteration 0 uses
    the run's seed itself, which is what the pinned references describe.
    """
    return seed if index == 0 else seed * 1000 + index


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    from e2e import trace, workloads

    toy = args.scale == "toy"
    first = workloads.build(args.workload, args.seed, toy=toy)
    scratch = Path(args.tmp)
    scratch.mkdir(parents=True, exist_ok=True)

    def fresh_dir(label: str) -> Path:
        path = scratch / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    if not toy:
        warm = workloads.build(args.workload, args.seed, toy=True)
        warm.inspect(warm.run(fresh_dir("warmup")))
    setup_s = time.time() - args.t0
    if args.setup_only:
        return {"setup_s": setup_s}

    tracer = trace.Tracer(f"{args.workload}-seed{args.seed}") if args.trace else None
    problems: List[str] = []

    def timed(workload: Any, label: str, traced: bool) -> Timed:
        tmp = fresh_dir(label)
        cpu0, wall0 = _cpu_seconds(), time.perf_counter()
        if traced:
            tracer.install()
            try:
                with tracer.span(trace.ROOT):
                    raw = workload.run(tmp, tracer.span)
            finally:
                tracer.uninstall()
        else:
            raw = workload.run(tmp)
        wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
        outcome = workload.inspect(raw)
        problems.extend(f"{label}: {problem}" for problem in outcome.problems)
        return Timed(wall, cpu, outcome)

    # One cycle is an untraced iteration, plus with --trace 1 a traced one
    # of the same input and the workload's companion run.  A cycle starts
    # only while the run is expected to end within --seconds; --iterations
    # fixes the count instead.
    plain: List[Timed] = []
    traced: List[Timed] = []
    companion_wall: List[float] = []
    begin = time.perf_counter()
    while True:
        cycle = len(plain)
        if args.iterations:
            if cycle >= args.iterations:
                break
        elif cycle and (time.perf_counter() - begin) * (cycle + 1) / cycle > args.seconds:
            break
        workload = first if cycle == 0 else workloads.build(
            args.workload, iteration_seed(args.seed, cycle), toy=toy
        )
        plain.append(timed(workload, f"iteration {cycle}", False))
        if tracer is not None:
            traced.append(timed(workload, f"traced iteration {cycle}", True))
            if compare_digests(traced[-1].outcome.digest, plain[-1].outcome.digest):
                problems.append(f"iteration {cycle}: tracing changed the simulated statistics")
            spent = workload.companion()
            if spent is not None:
                companion_wall.append(spent)

    problems.extend(first.finalize())
    digest = plain[0].outcome.digest
    pinned = reference_path(args.workload, args.seed)
    if args.pin:
        pinned.parent.mkdir(parents=True, exist_ok=True)
        pinned.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n")
    elif not toy and pinned.exists():
        reference = json.loads(pinned.read_text())
        problems.extend(f"reference: {p}" for p in compare_digests(digest, reference))

    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "unit": first.unit,
        "iterations": len(plain),
        "iteration_wall_s": [t.wall for t in plain],
        "setup_s": setup_s,
        "wall_s": statistics.median(t.wall for t in plain),
        "cpu_s": statistics.median(t.cpu for t in plain),
        "units_per_s": statistics.median(t.outcome.units / t.wall for t in plain),
        "units": statistics.median(t.outcome.units for t in plain),
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": sum(t.outcome.attempted for t in plain + traced),
        "failed": sum(t.outcome.failed for t in plain + traced),
        "problems": problems,
        "digest": digest,
        "pinned": pinned.exists() and not toy,
        "versions": _versions(),
    }
    if tracer is not None:
        missing = tracer.missing(args.workload)
        if missing and not toy:
            problems.extend(f"span table: {name} was never hit" for name in missing)
        # Counts read off the outputs are averaged like the span counts;
        # lists (latencies, iterations to converge) are pooled.
        extras: Dict[str, Any] = {}
        for key, value in traced[0].outcome.extras.items():
            values = [t.outcome.extras[key] for t in traced]
            if isinstance(value, list):
                extras[key] = [item for items in values for item in items]
            else:
                extras[key] = sum(values) / len(values)
        layers = trace.layer_metrics(tracer, len(traced), extras)
        root = tracer.stats[trace.ROOT]
        layers["trace.overhead_ratio"] = statistics.median(
            t.wall / p.wall for t, p in zip(traced, plain)
        )
        layers["trace.root_self_share"] = root.self_total / root.total
        layers["stream.vs_posthoc_ratio"] = (
            statistics.median(p.wall / c for p, c in zip(plain, companion_wall))
            if companion_wall
            else 0.0
        )
        report["per_layer"] = layers
        report["traced_iterations"] = len(traced)
        tracer.write(
            Path(args.out) / f"{args.workload}.trace.json", workload=args.workload, seed=args.seed
        )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--iterations", type=int, default=0, help="fixed cycle count")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--t0", type=float, required=True, help="time.time() at spawn")
    parser.add_argument("--tmp", required=True, help="scratch directory of this run")
    parser.add_argument("--out", required=True, help="directory for trace files")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pin", action="store_true", help="write the reference digest")
    args = parser.parse_args(argv)
    report = run_workload(args)
    sys.stdout.flush()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
