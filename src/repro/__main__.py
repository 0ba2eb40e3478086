"""Command-line front end for the scenario registry and sweep fabric.

Usage::

    python -m repro list [--tag TAG]
    python -m repro run <scenario> [--engine ENGINE] [--seed SEED]
                        [--scale {toy,paper}] [--quiet]
                        [--export TRACE.csv] [--stream]
                        [--checkpoint PATH] [--checkpoint-every SECONDS]
                        [--fresh]
    python -m repro sweep '<scenario> axis=values ...' [--engine ENGINE]
                          [--scale {toy,paper}] [--serial] [--workers N]
                          [--timeout SECONDS] [--retries N]
                          [--cache-dir DIR | --no-cache] [--rows N] [--quiet]
    python -m repro sweep --gc [--max-age DAYS] [--dry-run] [--cache-dir DIR]
    python -m repro agent [host:port] [--workers N] [--cache-dir DIR]
                          [--heartbeat SECONDS] [--fault KEY=VALUE ...]
    python -m repro serve-sweep '<scenario> axis=values ...'
                          [--hosts H1:P1,H2:P2 | --local-agents N]
                          [--lease-timeout SECONDS] [sweep options]

``list`` prints every registered scenario with its supported engines;
``run`` executes one through :func:`repro.scenarios.run_scenario` and
prints the resulting table; ``sweep`` expands a grid expression such as
``'fig5/websearch load=0.3:0.9:0.1 scheme=numfabric,dctcp seed=0..9'``
into cells and executes them through the fault-tolerant sweep fabric
(:mod:`repro.sweep`), resuming from the content-addressed cache.

``run`` extras: ``--export trace.csv`` writes the scenario's generated
arrival schedule as a replayable CSV trace (streamed -- works at any
size) instead of executing; ``--stream`` runs through the bounded-memory
streaming result layer (one telemetry summary row instead of a per-flow
dump); ``--checkpoint PATH`` additionally checkpoints run state
atomically every ``--checkpoint-every`` simulated seconds and resumes
from an existing checkpoint (``--fresh`` ignores one).  With a
checkpoint, the first SIGINT stops *after* the next checkpoint write and
prints the resume hint.

``sweep --gc`` garbage-collects the result cache (torn entries, entries
written by a different code fingerprint, entries older than ``--max-age``
days); ``agent`` starts one remote execution agent listening on a TCP
port; ``serve-sweep`` drives a sweep remotely over such agents
(``--local-agents N`` forks N loopback agents for single-machine use).
See ``docs/SWEEPS.md`` for the failure model.

``run``, ``sweep`` and ``serve-sweep`` stop gracefully on the first
SIGINT/SIGTERM (flushing completed cells and printing a resume hint) and
force-exit on the second; agents drain in-flight cells before exiting.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.results import format_table
from repro.scenarios import get_scenario, list_scenarios, run_scenario


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for entry in list_scenarios():
        if args.tag and args.tag not in entry.tags:
            continue
        rows.append(
            {
                "scenario": entry.name,
                "engines": "+".join(entry.engines),
                "default": entry.default_engine,
                "tags": ",".join(entry.tags),
                "description": entry.description,
            }
        )
    print(format_table(rows))
    print(f"\n{len(rows)} scenario(s); run one with: python -m repro run <scenario>")
    return 0


def _cmd_export(args: argparse.Namespace, spec) -> int:
    from repro.scenarios.materialize import build_fluid_topology, stream_arrivals
    from repro.workloads.trace import write_trace

    try:
        if args.engine is not None or args.seed is not None:
            spec = spec.using(engine=args.engine, seed=args.seed)
        topo = build_fluid_topology(spec)
        count = write_trace(stream_arrivals(spec, topo), args.export)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"exported {count} arrival(s) from {spec.name} to {args.export}")
    print(f"replay with: python -m repro run trace/replay  (trace={args.export})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.sweep.signals import GracefulInterrupt, SweepInterrupted

    try:
        spec = get_scenario(args.scenario, scale=args.scale)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.export:
        return _cmd_export(args, spec)
    streaming = args.stream or args.checkpoint is not None
    interrupted = False
    try:
        if args.checkpoint is not None:
            from repro.scenarios import run_scenario_streaming

            hint = f"checkpoint saved; rerun the same command to resume from {args.checkpoint}"
            with GracefulInterrupt(on_first="flag", hint=hint) as interrupt:
                result = run_scenario_streaming(
                    spec,
                    engine=args.engine,
                    seed=args.seed,
                    checkpoint_path=args.checkpoint,
                    checkpoint_every=args.checkpoint_every,
                    resume=not args.fresh,
                    should_stop=lambda: interrupt.requested,
                )
            interrupted = bool(result.artifacts.get("interrupted"))
        elif streaming:
            from repro.scenarios import run_scenario_streaming

            with GracefulInterrupt(on_first="raise"):
                result = run_scenario_streaming(spec, engine=args.engine, seed=args.seed)
        else:
            with GracefulInterrupt(on_first="raise"):
                result = run_scenario(spec, engine=args.engine, seed=args.seed)
    except SweepInterrupted:
        print("run interrupted; no result computed.", file=sys.stderr)
        return GracefulInterrupt.EXIT_CODE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.quiet:
        print(
            f"[{result.experiment_id}] engine={result.artifacts['engine']} "
            f"rows={len(result.rows)}"
        )
    else:
        print(result)
        print(f"\n(engine={result.artifacts['engine']}, rows={len(result.rows)})")
    if interrupted:
        print(
            f"run interrupted; resume from the checkpoint at {args.checkpoint}.",
            file=sys.stderr,
        )
        return GracefulInterrupt.EXIT_CODE
    return 0


def _parse_expression(args: argparse.Namespace):
    from repro.sweep import expand_grid, parse_sweep

    expression = " ".join(args.expression)
    grid = parse_sweep(expression, scale=args.scale, engine=args.engine)
    return grid, expand_grid(grid)


def _finish_sweep(args: argparse.Namespace, grid, report, interrupt, hint: str) -> int:
    from repro.sweep import GracefulInterrupt

    aggregate = report.aggregate(
        experiment_id=f"sweep/{grid.scenario}", title=f"sweep over {grid.scenario}"
    )
    summary = report.summary_lines()
    shown = aggregate.rows if args.rows <= 0 else aggregate.rows[: args.rows]
    if args.quiet:
        print(f"[{aggregate.experiment_id}] {summary[0]}")
        for line in summary[1:]:
            print(line)
    else:
        print(format_table(shown))
        if len(shown) < len(aggregate.rows):
            print(f"... ({len(aggregate.rows) - len(shown)} more rows; use --rows 0 for all)")
        print()
        for line in summary:
            print(line)
    if interrupt.requested:
        if hint:
            print(hint, file=sys.stderr)
        return GracefulInterrupt.EXIT_CODE
    if any(failure.kind != "cancelled" for failure in report.failures):
        return 1
    return 0


def _cmd_sweep_gc(args: argparse.Namespace) -> int:
    from repro.sweep import ResultCache

    if args.no_cache:
        print("error: --gc needs a cache (--no-cache makes no sense here)", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    report = cache.gc(max_age_days=args.max_age, dry_run=args.dry_run)
    verb = "would delete" if args.dry_run else "deleted"
    print(
        f"cache gc [{cache.root}]: scanned={report['scanned']} kept={report['kept']} "
        f"torn={report['torn']} stale_code={report['stale_code']} "
        f"expired={report['expired']} tmp={report['tmp']}; "
        f"{verb} {len(report['deleted'])} file(s)"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import GracefulInterrupt, ResultCache, RetryPolicy, run_sweep

    if args.gc:
        return _cmd_sweep_gc(args)
    if not args.expression:
        print("error: a sweep expression is required (or use --gc)", file=sys.stderr)
        return 2
    try:
        grid, tasks = _parse_expression(args)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    mode = "serial" if args.serial else "sharded"
    axis_summary = " ".join(f"{key}[{len(values)}]" for key, values in grid.axes)
    hint = (
        f"Completed cells are cached under {cache.root}/; "
        "rerun the same command to resume."
        if cache is not None
        else ""
    )
    progress = (lambda message: None) if args.quiet else (
        lambda message: print(f"  {message}", flush=True)
    )
    with GracefulInterrupt(on_first="flag", hint=hint) as interrupt:
        # Printed (and flushed) only once the signal handler is live, so
        # anything scripting this CLI can treat the header as "safe to
        # interrupt gracefully from here on".
        print(
            f"sweep: {len(tasks)} cells over {grid.scenario} "
            f"({axis_summary or 'no axes'}; mode={mode})",
            flush=True,
        )
        report = run_sweep(
            tasks,
            mode=mode,
            cache=cache,
            workers=args.workers,
            timeout=args.timeout,
            retry=RetryPolicy(max_attempts=args.retries),
            interrupt=interrupt,
            progress=progress,
        )
    return _finish_sweep(args, grid, report, interrupt, hint)


def _cmd_agent(args: argparse.Namespace) -> int:
    from repro.sweep.remote import AgentFaults, SweepAgent, serve_agent
    from repro.sweep.transport import parse_host

    try:
        host, port = parse_host(args.bind)
        faults = AgentFaults.parse(args.fault or [])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    progress = (lambda message: None) if args.quiet else (
        lambda message: print(f"  {message}", flush=True)
    )
    agent = SweepAgent(
        host,
        port,
        workers=args.workers,
        cache=args.cache_dir,
        heartbeat_interval=args.heartbeat,
        faults=faults,
        progress=progress,
    )
    # serve_agent prints the "agent listening on HOST:PORT" handshake line:
    # the contract for orchestration scripts that start agents on real hosts
    # (loopback agents are forked and announce themselves the same way).
    serve_agent(agent)
    return 0


def _cmd_serve_sweep(args: argparse.Namespace) -> int:
    import subprocess

    from repro.sweep import GracefulInterrupt, ResultCache, RetryPolicy, run_sweep

    try:
        grid, tasks = _parse_expression(args)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    hosts = [host for part in (args.hosts or []) for host in part.split(",") if host]
    if not hosts and not args.local_agents:
        print("error: serve-sweep needs --hosts or --local-agents", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    hint = (
        f"Completed cells are cached under {cache.root}/; "
        "rerun the same command to resume."
        if cache is not None
        else ""
    )
    progress = (lambda message: None) if args.quiet else (
        lambda message: print(f"  {message}", flush=True)
    )
    procs = []
    try:
        if args.local_agents:
            from repro.sweep.remote import spawn_local_agents

            procs, spawned = spawn_local_agents(
                args.local_agents, workers=args.workers or 1
            )
            hosts = hosts + spawned
            listed = ", ".join(f"{host} (pid {proc.pid})" for proc, host in zip(procs, spawned))
            progress(f"spawned {len(spawned)} loopback agent(s): {listed}")
        with GracefulInterrupt(on_first="flag", hint=hint) as interrupt:
            print(
                f"sweep: {len(tasks)} cells over {grid.scenario} "
                f"(mode=remote; hosts={','.join(hosts)})",
                flush=True,
            )
            report = run_sweep(
                tasks,
                mode="remote",
                cache=cache,
                hosts=hosts,
                timeout=args.timeout,
                retry=RetryPolicy(max_attempts=args.retries),
                lease_timeout=args.lease_timeout,
                interrupt=interrupt,
                progress=progress,
            )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return _finish_sweep(args, grid, report, interrupt, hint)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run NUMFabric reproduction scenarios from the registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list registered scenarios")
    list_parser.add_argument("--tag", help="only scenarios carrying this tag")
    list_parser.set_defaults(func=_cmd_list)

    run_parser = sub.add_parser("run", help="run one scenario")
    run_parser.add_argument("scenario", help="registered scenario name (see `list`)")
    run_parser.add_argument("--engine", help="execution engine (fluid/flow/packet)")
    run_parser.add_argument("--seed", type=int, help="override the scenario seed")
    run_parser.add_argument(
        "--scale", choices=("toy", "paper"), default="toy", help="problem size (default: toy)"
    )
    run_parser.add_argument(
        "--quiet", action="store_true", help="print a one-line summary instead of the table"
    )
    run_parser.add_argument(
        "--export",
        metavar="TRACE.csv",
        help="write the scenario's arrival schedule as a replayable CSV trace "
        "(streamed; does not execute the scenario)",
    )
    run_parser.add_argument(
        "--stream",
        action="store_true",
        help="run through the bounded-memory streaming result layer "
        "(flow engine; one telemetry summary row instead of per-flow rows)",
    )
    run_parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="stream with periodic atomic checkpoints at PATH; an existing "
        "checkpoint is resumed (implies --stream)",
    )
    run_parser.add_argument(
        "--checkpoint-every",
        type=float,
        default=5e-3,
        metavar="SECONDS",
        help="simulated seconds between checkpoints (default: 0.005)",
    )
    run_parser.add_argument(
        "--fresh",
        action="store_true",
        help="ignore an existing checkpoint and start over",
    )
    run_parser.set_defaults(func=_cmd_run)

    def add_sweep_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--engine", help="engine for every cell (fluid/flow/packet)")
        p.add_argument(
            "--scale", choices=("toy", "paper"), default=None, help="problem size (default: toy)"
        )
        p.add_argument("--workers", type=int, help="worker process count")
        p.add_argument(
            "--timeout", type=float, help="per-cell wall-clock timeout in seconds"
        )
        p.add_argument(
            "--retries",
            type=int,
            default=3,
            help="attempts per cell before quarantine (default: 3)",
        )
        p.add_argument(
            "--cache-dir",
            default=".sweep-cache",
            help="content-addressed result cache directory (default: .sweep-cache)",
        )
        p.add_argument(
            "--no-cache", action="store_true", help="disable the result cache entirely"
        )
        p.add_argument(
            "--rows", type=int, default=40, help="aggregate rows to print (0 = all; default: 40)"
        )
        p.add_argument(
            "--quiet", action="store_true", help="print a one-line summary instead of the table"
        )

    sweep_parser = sub.add_parser(
        "sweep", help="expand a grid expression and run it through the sweep fabric"
    )
    sweep_parser.add_argument(
        "expression",
        nargs="*",
        help="sweep expression: '<scenario> axis=values ...' "
        "(e.g. 'fig5/websearch load=0.3:0.9:0.1 scheme=numfabric,dctcp seed=0..9')",
    )
    sweep_parser.add_argument(
        "--serial",
        action="store_true",
        help="run cells in-process (the bit-identical parity reference)",
    )
    sweep_parser.add_argument(
        "--gc",
        action="store_true",
        help="garbage-collect the cache instead of sweeping (torn entries, "
        "stale code fingerprints, entries older than --max-age)",
    )
    sweep_parser.add_argument(
        "--max-age",
        type=float,
        metavar="DAYS",
        help="with --gc: also drop entries older than this many days",
    )
    sweep_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="with --gc: report what would be deleted without deleting",
    )
    add_sweep_options(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    agent_parser = sub.add_parser(
        "agent", help="run one remote sweep-execution agent (listens on host:port)"
    )
    agent_parser.add_argument(
        "bind",
        nargs="?",
        default="127.0.0.1:0",
        help="address to listen on (default: 127.0.0.1:0 -- an ephemeral port, "
        "printed on startup)",
    )
    agent_parser.add_argument(
        "--workers", type=int, default=1, help="concurrent cells this agent runs (default: 1)"
    )
    agent_parser.add_argument(
        "--cache-dir",
        default=".sweep-cache",
        help="this agent's local result cache (default: .sweep-cache)",
    )
    agent_parser.add_argument(
        "--heartbeat", type=float, default=0.5, help="heartbeat interval in seconds"
    )
    agent_parser.add_argument(
        "--fault",
        action="append",
        metavar="KEY=VALUE",
        help="deterministic fault hook, repeatable (drop_conn_on=0,3 | "
        "partition_on=all | slow_ack_on=1 | slow_ack_seconds=0.5 | "
        "partition_seconds=10); test use only",
    )
    agent_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-event progress lines"
    )
    agent_parser.set_defaults(func=_cmd_agent)

    serve_parser = sub.add_parser(
        "serve-sweep", help="drive a sweep remotely over agent processes"
    )
    serve_parser.add_argument(
        "expression",
        nargs="+",
        help="sweep expression: '<scenario> axis=values ...'",
    )
    serve_parser.add_argument(
        "--hosts",
        action="append",
        metavar="H1:P1,H2:P2",
        help="comma-separated agent addresses, repeatable",
    )
    serve_parser.add_argument(
        "--local-agents",
        type=int,
        metavar="N",
        help="fork N loopback agents for the duration of the sweep",
    )
    serve_parser.add_argument(
        "--lease-timeout",
        type=float,
        metavar="SECONDS",
        help="wall-clock lease on each dispatched cell before reassignment",
    )
    add_sweep_options(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
