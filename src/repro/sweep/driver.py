"""``run_sweep``: execute sweep tasks and aggregate one ExperimentResult.

Three modes share one aggregation path:

* ``"serial"``  -- run every cell in-process, in task order.  This is the
  parity reference: for deterministic scenarios the sharded and remote
  aggregates must be bit-identical to the serial one.
* ``"sharded"`` -- lease cells to a pool of local worker processes through
  the fault-tolerant :class:`~repro.sweep.executor.SweepExecutor`.
* ``"remote"``  -- the same executor, leasing to agent processes over TCP
  (``hosts=["host:port", ...]`` naming running ``python -m repro agent``
  listeners) instead of to the local pool.

All modes consult the content-addressed cache first (when one is given)
and only compute the delta; all degrade gracefully -- a failed cell
becomes a structured :class:`~repro.sweep.lease.SweepFailure` row in
the aggregate, never a crashed driver.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.results import ExperimentResult
from repro.sweep.cache import (
    ResultCache,
    code_fingerprint,
    decode_result,
    encode_result,
    task_key,
)
from repro.sweep.executor import SweepExecutor
from repro.sweep.grid import SweepTask
from repro.sweep.lease import RetryPolicy, SweepFailure

MODES = ("serial", "sharded", "remote")


@dataclass
class SweepReport:
    """Everything one sweep produced: per-task results, failures, stats.

    ``attempts`` maps task index -> dispatch count (how often the cell was
    handed to a worker or host; cache hits never appear), so retries that
    eventually succeeded are visible.  ``hosts`` maps endpoint (an agent's
    ``host:port``, or ``"local"``) -> ``{"cells", "runs", "reconnects"}``.
    """

    tasks: List[SweepTask]
    results: List[Optional[ExperimentResult]]
    failures: List[SweepFailure]
    stats: Dict[str, int]
    mode: str
    keys: Dict[int, str] = field(default_factory=dict)
    attempts: Dict[int, int] = field(default_factory=dict)
    hosts: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def result_for(self, index: int) -> Optional[ExperimentResult]:
        return self.results[index]

    def summary_lines(self) -> List[str]:
        """Human-readable summary: stats, retry effort, per-host tallies."""
        lines = [", ".join(f"{key}={value}" for key, value in sorted(self.stats.items()))]
        if self.attempts:
            retried = {
                index: count for index, count in sorted(self.attempts.items()) if count > 1
            }
            line = (
                f"attempts: {sum(self.attempts.values())} dispatch(es) over "
                f"{len(self.attempts)} cell(s); {len(retried)} cell(s) retried"
            )
            backoff = self.stats.get("backoff_seconds", 0.0)
            if backoff:
                line += f"; {backoff:.2f}s spent backing off"
            if retried:
                shown = list(retried.items())[:8]
                detail = ", ".join(f"cell {index} x{count}" for index, count in shown)
                if len(retried) > len(shown):
                    detail += f", ... ({len(retried) - len(shown)} more)"
                line += f" ({detail})"
            lines.append(line)
        for name, info in sorted(self.hosts.items()):
            runs = sum(info.get("runs", {}).values())
            lines.append(
                f"host {name}: {info.get('cells', 0)} cell(s) completed, "
                f"{runs} run(s) started, {info.get('reconnects', 0)} reconnect(s)"
            )
        return lines

    def raise_on_failure(self) -> None:
        """Escalate the first failure (harnesses that cannot degrade)."""
        for failure in self.failures:
            if failure.kind == "cancelled":
                continue
            detail = f"\n{failure.traceback}" if failure.traceback else ""
            raise RuntimeError(
                f"sweep cell {failure.label or failure.index} failed "
                f"({failure.kind} after {failure.attempts} attempt(s)): "
                f"{failure.message}{detail}"
            )

    def aggregate(
        self,
        experiment_id: str = "sweep",
        title: str = "",
        notes: str = "",
    ) -> ExperimentResult:
        return aggregate_report(self, experiment_id=experiment_id, title=title, notes=notes)


def aggregate_report(
    report: SweepReport,
    *,
    experiment_id: str = "sweep",
    title: str = "",
    notes: str = "",
) -> ExperimentResult:
    """Merge per-cell results into one table, task order, axes as columns.

    Deterministic by construction: rows follow task order, each successful
    cell contributes its own rows prefixed with the cell's axis columns,
    and each failed cell contributes exactly one structured failure row --
    so a sharded run aggregates bit-identically to a serial one.
    """
    aggregate = ExperimentResult(
        experiment_id=experiment_id,
        title=title or experiment_id,
        notes=notes,
    )
    failures_by_index = {failure.index: failure for failure in report.failures}
    for task in report.tasks:
        columns: Dict[str, Any] = dict(task.axes)
        columns.setdefault("engine", task.engine)
        if task.seed is not None:
            columns.setdefault("seed", task.seed)
        result = report.results[task.index]
        if result is not None:
            for row in result.rows:
                aggregate.add_row(**{**columns, **row})
        else:
            failure = failures_by_index.get(task.index)
            failure_row = (
                failure.as_row()
                if failure is not None
                else {"status": "failed", "kind": "unknown", "error": "missing result"}
            )
            aggregate.add_row(**{**columns, **failure_row})
    aggregate.artifacts["tasks"] = [task.label for task in report.tasks]
    aggregate.artifacts["failures"] = list(report.failures)
    aggregate.artifacts["stats"] = dict(report.stats)
    aggregate.artifacts["mode"] = report.mode
    aggregate.artifacts["attempts"] = dict(report.attempts)
    if report.hosts:
        aggregate.artifacts["hosts"] = {
            name: dict(info) for name, info in report.hosts.items()
        }
    return aggregate


def _as_cache(cache: Union[None, str, Path, ResultCache]) -> Optional[ResultCache]:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _run_serial(
    tasks: Sequence[SweepTask],
    results: Dict[int, ExperimentResult],
    keys: Dict[int, str],
    cache: Optional[ResultCache],
    interrupt: Optional[Any],
    progress: Callable[[str], None],
    stats: Dict[str, int],
    attempts: Dict[int, int],
) -> Dict[int, SweepFailure]:
    from repro.scenarios.runner import run_scenario

    failures: Dict[int, SweepFailure] = {}
    total = len(tasks)
    for task in tasks:
        if task.index in results:
            continue
        if interrupt is not None and getattr(interrupt, "requested", False):
            failures[task.index] = SweepFailure(
                index=task.index,
                label=task.label,
                kind="cancelled",
                message="sweep interrupted before this cell ran",
            )
            stats["cancelled"] = stats.get("cancelled", 0) + 1
            continue
        attempts[task.index] = attempts.get(task.index, 0) + 1
        try:
            result = run_scenario(task.spec)
        except Exception as exc:
            failures[task.index] = SweepFailure(
                index=task.index,
                label=task.label,
                kind="error",
                message=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(),
                attempts=1,
                quarantined=True,
            )
            stats["quarantined"] = stats.get("quarantined", 0) + 1
            progress(f"{task.label or task.index}: failed ({type(exc).__name__}: {exc})")
            continue
        if cache is not None:
            cache.put(keys[task.index], encode_result(result))
        results[task.index] = result
        stats["computed"] += 1
        progress(f"[{len(results) + len(failures)}/{total}] {task.label or task.index}: ok")
    return failures


def run_sweep(
    tasks: Sequence[SweepTask],
    *,
    mode: str = "sharded",
    cache: Union[None, str, Path, ResultCache] = None,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    heartbeat_interval: float = 0.5,
    stall_timeout: Optional[float] = None,
    hosts: Optional[Sequence[Any]] = None,
    lease_timeout: Optional[float] = None,
    connect_retry: Optional[RetryPolicy] = None,
    quarantine_hosts: int = 2,
    interrupt: Optional[Any] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Execute sweep tasks; return a :class:`SweepReport`.

    ``cache`` may be ``None`` (always compute), a directory path, or a
    :class:`ResultCache`; cached cells are never re-executed.  ``interrupt``
    is an optional :class:`~repro.sweep.signals.GracefulInterrupt` whose
    ``requested`` flag stops scheduling and flushes what completed.

    ``mode="remote"`` leases cells to agents at ``hosts`` (``"host:port"``
    strings naming running ``python -m repro agent`` listeners);
    ``lease_timeout``, ``connect_retry`` and ``quarantine_hosts`` tune the
    lease lifecycle (see :mod:`repro.sweep.lease`).
    """
    if mode not in MODES:
        raise ValueError(f"unknown sweep mode {mode!r}; expected one of {MODES}")
    tasks = list(tasks)
    for position, task in enumerate(tasks):
        if task.index != position:
            raise ValueError(
                f"task indices must be dense and ordered; task {position} has "
                f"index {task.index}"
            )
    progress = progress or (lambda message: None)
    store = _as_cache(cache)
    stats: Dict[str, int] = {"total": len(tasks), "cached": 0, "computed": 0}
    attempts: Dict[int, int] = {}
    hosts_report: Dict[str, Dict[str, Any]] = {}

    keys: Dict[int, str] = {}
    results: Dict[int, ExperimentResult] = {}
    if store is not None or mode in ("sharded", "remote"):
        code = code_fingerprint()
        for task in tasks:
            keys[task.index] = task_key(task.spec, task.engine, task.seed, code=code)
    if store is not None:
        for task in tasks:
            payload = store.get(keys[task.index])
            if payload is not None:
                results[task.index] = decode_result(payload)
                stats["cached"] += 1
        if stats["cached"]:
            progress(f"cache: {stats['cached']}/{len(tasks)} cells already present")

    if mode == "serial":
        failure_map = _run_serial(
            tasks, results, keys, store, interrupt, progress, stats, attempts
        )
    else:
        remaining = [task for task in tasks if task.index not in results]
        failure_map = {}
        if remaining:
            if mode == "remote" and not hosts:
                raise ValueError("remote mode needs at least one agent host ('host:port')")
            executor = SweepExecutor(
                remaining,
                hosts=list(hosts or ()) if mode == "remote" else (),
                keys=keys,
                cache=store,
                workers=workers,
                timeout=timeout,
                retry=retry,
                lease_timeout=lease_timeout,
                heartbeat_interval=heartbeat_interval,
                stall_timeout=stall_timeout,
                connect_retry=connect_retry,
                quarantine_hosts=quarantine_hosts,
                interrupt=interrupt,
                progress=progress,
            )
            payloads, failure_map, executor_stats, attempts, hosts_report = executor.run()
            for index, payload in payloads.items():
                results[index] = decode_result(payload)
            for key, value in executor_stats.items():
                stats[key] = stats.get(key, 0) + value

    stats["failed"] = len(failure_map)
    ordered_results: List[Optional[ExperimentResult]] = [
        results.get(task.index) for task in tasks
    ]
    failures = [failure_map[index] for index in sorted(failure_map)]
    return SweepReport(
        tasks=tasks,
        results=ordered_results,
        failures=failures,
        stats=stats,
        mode=mode,
        keys=keys,
        attempts=attempts,
        hosts=hosts_report,
    )
