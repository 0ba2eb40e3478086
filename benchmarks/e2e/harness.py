"""The parent process of the benchmark: spawns runs, prints and checks them.

The load is a closed loop with one client: one child process at a time,
the next starts when the previous has exited.  The only concurrency is
inside ``sweep_grid`` (two workers / two loopback agents, the core count of
the reference box).  This module never imports ``repro``; every run is a
fresh ``python -m e2e.child`` with a scrubbed environment, so the numbers
measure the default production path and not this process's state.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from e2e import metrics
from e2e.workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
RESULTS = HERE / "RESULTS.json"
BENCHMARK = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 7
DEFAULT_SECONDS = 20
#: Set-ups timed per run (the run's own plus set-up-only children); the
#: median is reported.
SETUP_SAMPLES = 3
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: A child gets its measuring time plus this long to set up, check and exit.
CHILD_GRACE_SECONDS = 120
#: How long what a child started may outlive it before it is killed.
STRAGGLER_SECONDS = 5.0


class RunFailed(Exception):
    """A child exited without a report; there is no result to print."""


def child_environment(tmp: Path) -> Dict[str, str]:
    """The environment of every child: single-threaded BLAS, fixed hashing,
    the production kernel selection, temp files inside the checkout."""
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)
    for name in THREAD_ENV:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    inherited = env.get("PYTHONPATH")
    paths = [str(ROOT / "src"), str(HERE.parent)] + ([inherited] if inherited else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def session_members(session: int) -> List[int]:
    """Processes of a child's session that are still running (not zombies)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # the process ended while we were looking
        # "pid (comm) state ppid pgrp session ..."; comm may hold spaces.
        state, _, _, sid = stat.rsplit(")", 1)[1].split()[:4]
        if int(sid) == session and state != "Z":
            members.append(int(entry))
    return members


def wait_for_session(session: int) -> None:
    """Return once everything the child started has ended.

    The child reaps its sweep workers and agents itself; what may outlive it
    by a few milliseconds are the ``multiprocessing`` resource trackers,
    which exit when their owner's pipe closes.  Anything still alive after
    :data:`STRAGGLER_SECONDS` is killed and given as long again to go.
    """
    deadline = time.monotonic() + STRAGGLER_SECONDS
    killed = False
    while session_members(session):
        if time.monotonic() > deadline:
            if killed:
                print(f"warning: session {session} survived SIGKILL", file=sys.stderr)
                return
            for pid in session_members(session):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            killed = True
            deadline += STRAGGLER_SECONDS
        time.sleep(0.01)


def spawn(workload: str, seed: int, tmp: Path, flags: Sequence[str], timeout: float) -> Dict:
    """Run one child to completion and return the report on its last line."""
    command = [sys.executable, "-m", "e2e.child", "--workload", workload, "--seed", str(seed)]
    command += ["--tmp", str(tmp), "--out", str(OUT), "--t0", repr(time.time()), *flags]
    # Its own session, so that a child that overruns is killed together with
    # the sweep workers and agents it started.
    with subprocess.Popen(
        command,
        cwd=ROOT,
        env=child_environment(tmp),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as process:
        try:
            stdout, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise RunFailed(f"{workload}: child did not finish within {timeout:.0f}s") from exc
        finally:
            wait_for_session(process.pid)
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RunFailed(f"{workload}: child exited with code {process.returncode}")
    return json.loads(lines[-1])


def run_once(
    workload: str, seed: int, seconds: float, trace: int, pin: bool = False
) -> Dict[str, Any]:
    """One benchmark run: the set-up samples, then the measuring child."""
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setups = [
            spawn(workload, seed, tmp, ["--setup-only"], CHILD_GRACE_SECONDS)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        flags = ["--seconds", str(seconds), "--trace", str(trace)] + (["--pin"] if pin else [])
        report = spawn(workload, seed, tmp, flags, seconds + CHILD_GRACE_SECONDS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(report["setup_s"])
    report["setup_samples"] = setups
    report["setup_s"] = statistics.median(setups)
    report["correct"] = not report["problems"] and report["failed"] == 0
    if report["problems"]:
        # A failed output check fails the whole run.
        report["failed"] = report["attempted"]
    report["fail_ratio"] = report["failed"] / report["attempted"]
    return report


def result_line(report: Dict[str, Any], trace: int) -> str:
    """The JSON object the driver reads from the last line of stdout."""
    source = report["per_layer"] if trace else report
    names = metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": source[name], "unit": metrics.UNITS[name]} for name in names
            },
        }
    )


def describe(report: Dict[str, Any], trace: int) -> None:
    """Print one run: every metric by name with its unit, and the check."""
    name = report["workload"]
    print(
        f"{name}  seed {report['seed']}  {report['iterations']} iteration(s) of "
        f"{report['units']:g} {report['unit']}  (closed loop, one client; host seconds)"
    )
    notes = {
        "setup_s": f"median of {len(report['setup_samples'])} set-ups",
        "wall_s": f"median of {report['iterations']} iteration(s)",
        "cpu_s": "child and reaped descendants, median per iteration",
        "units_per_s": f"{report['unit']} / wall_s, median per iteration",
        "peak_rss_mb": "max of child and descendants",
    }
    for metric in metrics.END_TO_END_NAMES:
        unit = metrics.UNITS[metric]
        print(f"  {metric:<28} {report[metric]:>14.6g} {unit:<8} {notes[metric]}")
    print(
        f"  {'fail_ratio':<28} {report['fail_ratio']:>14.6g} {'ratio':<8} "
        f"{report['failed']} failed of {report['attempted']} attempted"
    )
    if trace:
        print(f"  per layer, {report['traced_iterations']} traced iteration(s):")
        for metric in metrics.PER_LAYER_NAMES:
            value = report["per_layer"][metric]
            print(f"    {metric:<30} {value:>14.6g} {metrics.UNITS[metric]}")
    if name == "sweep_grid":
        print("  note: remote-mode traffic crosses the host loopback, never a real link")
    checked = f"pinned reference for seed {report['seed']}" if report["pinned"] else "invariants"
    if report["correct"]:
        print(f"  output check: ok ({checked})")
    else:
        print(f"  output check: FAILED ({checked})")
        for problem in report["problems"][:20]:
            print(f"    - {problem}")


def load_benchmark() -> Dict[str, Any]:
    return json.loads(BENCHMARK.read_text()) if BENCHMARK.exists() else {}


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median (the driver's measure)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / median


def machine_metadata(reports: Iterable[Dict[str, Any]], **extra: Any) -> Dict[str, Any]:
    """What a later reader needs to tell a code change from a machine change."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    versions = next((r["versions"] for r in reports if "versions" in r), {})
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "thread_env": {name: "1" for name in THREAD_ENV},
        "python_hash_seed": "0",
        "sizes": SIZES,
        **versions,
        **extra,
    }


def record(section: Dict[str, Any]) -> None:
    """Merge ``section`` into RESULTS.json (BENCHMARK.json's keys are fixed)."""
    document = json.loads(RESULTS.read_text()) if RESULTS.exists() else {}
    document.update(section)
    RESULTS.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"recorded {RESULTS.relative_to(ROOT)}")


def summarize(runs: List[Dict[str, Any]], names: Sequence[str]) -> Dict[str, Any]:
    rows = {}
    for name in names:
        values = [run[name] for run in runs]
        rows[name] = {
            "median": statistics.median(values),
            "runs": len(values),
            "unit": metrics.UNITS[name],
            "spread": spread(values),
        }
    return rows


def run_all(args: argparse.Namespace, names: Sequence[str]) -> int:
    """Every workload, ``--runs`` times each; optionally traced and recorded."""
    ok = True
    recorded: Dict[str, Any] = {}
    reports: List[Dict[str, Any]] = []
    for name in names:
        untraced, traced = [], []
        for run in range(args.runs):
            untraced.append(run_once(name, args.seed, args.seconds, 0, pin=args.pin and not run))
            describe(untraced[-1], 0)
            if args.trace:
                traced.append(run_once(name, args.seed, args.seconds, 1))
                describe(traced[-1], 1)
        reports += untraced + traced
        ok = ok and all(report["correct"] for report in untraced + traced)
        recorded[name] = {
            "unit": untraced[0]["unit"],
            "units_per_iteration": untraced[0]["units"],
            "fail_ratio": max(report["fail_ratio"] for report in untraced + traced),
            "end_to_end": summarize(untraced, metrics.END_TO_END_NAMES),
        }
        if traced:
            layers = [report["per_layer"] for report in traced]
            recorded[name]["per_layer"] = summarize(layers, metrics.PER_LAYER_NAMES)
    if len(names) > 1:
        print(f"\nmedians over {args.runs} run(s) per workload")
        for metric in metrics.END_TO_END_NAMES:
            cells = [f"{n}={recorded[n]['end_to_end'][metric]['median']:.5g}" for n in names]
            print(f"  {metric:<12} {metrics.UNITS[metric]:<8} {'  '.join(cells)}")
    if args.record:
        metadata = machine_metadata(
            reports, seed=args.seed, runs_per_set=args.runs, run_seconds=args.seconds
        )
        record({"metadata": metadata, "workloads": recorded})
    return 0 if ok else 1


def run_check(args: argparse.Namespace, names: Sequence[str]) -> int:
    """A/A: two sets of runs of the same code must agree within the bounds."""
    bounds = {m["name"]: m["bound"] for m in load_benchmark().get("end_to_end", [])}
    sets: List[Dict[str, List[Dict[str, Any]]]] = []
    ok = True
    for label in "AB":
        order = list(names) if label == "A" else list(reversed(names))
        reports: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
        for run in range(args.runs):
            for name in order:
                report = run_once(name, args.seed + run, args.seconds, 0)
                ok = ok and report["correct"]
                reports[name].append(report)
                readings = " ".join(f"{m}={report[m]:.5g}" for m in metrics.END_TO_END_NAMES)
                failed = "" if report["correct"] else "  OUTPUT CHECK FAILED"
                print(f"set {label} run {run} {name} seed {args.seed + run}: {readings}{failed}")
        sets.append(reports)
    print(
        f"\n{'workload':<18}{'metric':<13}{'median A':>12}{'median B':>12}{'B vs A':>9}"
        f"{'spread A':>10}{'spread B':>10}{'bound':>7}"
    )
    observed: Dict[str, Any] = {}
    for name in names:
        observed[name] = {}
        for metric in metrics.END_TO_END_NAMES:
            a = [report[metric] for report in sets[0][name]]
            b = [report[metric] for report in sets[1][name]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            difference = (median_b - median_a) / median_a
            spreads = [s for s in (spread(a), spread(b)) if s is not None]
            bound = bounds.get(metric, 0.10)
            verdict = ""
            if abs(difference) > bound:
                verdict, ok = "  DISAGREE", False
            elif metric != "setup_s" and spreads and max(spreads) > bound:
                verdict, ok = "  SPREAD > BOUND", False
            shown = "".join(f"{s:>10.4f}" for s in spreads) or f"{'-':>10}{'-':>10}"
            print(
                f"{name:<18}{metric:<13}{median_a:>12.5g}{median_b:>12.5g}{difference:>+9.2%}"
                f"{shown}{bound:>7.2f}{verdict}"
            )
            observed[name][metric] = {
                "median_a": median_a,
                "median_b": median_b,
                "relative_difference": difference,
                "spreads": spreads,
                "bound": bound,
            }
    if args.record:
        every = (report for reports in sets for runs in reports.values() for report in runs)
        metadata = machine_metadata(
            every, seed=args.seed, runs_per_set=args.runs, run_seconds=args.seconds
        )
        record({"check": {"metadata": metadata, "observed": observed}})
    return 0 if ok else 1


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end benchmark; see benchmarks/e2e/README.md",
    )
    parser.add_argument("--workload", choices=list(WORKLOADS), help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=load_benchmark().get("run_seconds", DEFAULT_SECONDS),
        help="measuring time per run",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="also (with --workload: only) report the per-layer metrics",
    )
    parser.add_argument("--runs", type=int, default=1, help="runs per set; medians are reported")
    parser.add_argument("--check", action="store_true", help="A/A: two sets must agree")
    parser.add_argument("--record", action="store_true", help="write RESULTS.json here")
    parser.add_argument("--pin", action="store_true", help="rewrite --seed's reference digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; nothing to benchmark", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.check:
            return run_check(args, names)
        if args.workload and not (args.record or args.pin or args.runs > 1):
            # The driver's form: one run, the result object on the last line.
            report = run_once(args.workload, args.seed, args.seconds, args.trace)
            describe(report, args.trace)
            print(result_line(report, args.trace))
            return 0 if report["correct"] else 1
        return run_all(args, names)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.stdout.flush()
