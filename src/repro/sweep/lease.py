"""The lease/retry/quarantine machine: every scheduling decision, no I/O.

One :class:`LeaseMachine` drives every non-serial sweep.  It knows cells
and *endpoints* (anything that runs cells behind ``send``/``poll``: a
dialled agent with N slots, or the local worker pool) and never touches a
socket, a process or the clock: every method takes ``now`` and returns
*actions* for :class:`~repro.sweep.executor.SweepExecutor` to carry out --
``("send", endpoint, message)`` with a ``task`` (a lease grant), ``cancel``
or ``ping``; ``("open", endpoint)`` / ``("close", endpoint)`` to dial or
drop one; ``("progress", line)``.

The rules, each stated once:

* a cell is *pending* or *leased*, never both, and never leased twice;
* a lease ends by ``done``, by a failure that *charges* the cell an attempt
  (``error``, ``crash``, ``dead-worker``, ``bad-payload``, ``timeout``,
  ``lease-expired``: retry with backoff, quarantine at ``max_attempts``),
  or for free when the *endpoint* failed rather than the cell (connection
  lost, stall, ``requeue``, ``bye``);
* a cell that failed on ``quarantine_hosts`` distinct endpoints is
  quarantined early -- the cell is broken, not the fleet -- and a retry is
  never granted to an endpoint the cell already failed on while a live
  endpoint it has not failed on exists: it waits for that one's slot;
* the first ``done`` wins; an ack for a resolved cell, or a failure report
  for a lease that is already over, is stale and ignored;
* a lost endpoint is redialled with backoff and written off when its
  connect budget is spent; with every endpoint written off the remaining
  cells fail as ``no-hosts``;
* on interrupt (``on_interrupt``, told before the next ack is handled)
  nothing more is granted or retried, in-flight acks are collected for the
  drain window, the rest is cancelled and reported ``cancelled``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.sweep.grid import SweepTask
from repro.sweep.transport import PROTOCOL_VERSION

Action = Tuple[Any, ...]

#: After an interrupt, in-flight cells may keep acking for this long (or
#: one lease, if shorter) before they are cancelled.
DRAIN_TIMEOUT = 15.0
#: Failure kinds an endpoint may report in ``error{kind}``.
_REPORTED_KINDS = ("error", "crash", "dead-worker", "bad-payload")
#: Failure kinds that blame the cell *on that endpoint*: they feed the
#: cell's failed-endpoint set and the distinct-host quarantine.
_HOST_BLAMING = ("error", "timeout", "crash")


@dataclass(frozen=True)
class RetryPolicy:
    """Retry with exponential backoff plus jitter.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one try
    plus two retries, after which the task is quarantined.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    max_delay: float = 30.0
    jitter: float = 0.25

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = min(self.max_delay, self.base_delay * (2.0 ** max(0, attempt - 1)))
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class SweepFailure:
    """One failed (or cancelled) sweep cell, as structured data.

    ``kind`` is ``"error"`` (the task raised), ``"timeout"`` (wall-clock
    limit), ``"crash"`` (worker process died), ``"dead-worker"`` (heartbeat
    stall or no start ack), ``"lease-expired"``, ``"bad-payload"`` (an ack
    that failed verification), ``"no-hosts"`` (every agent unreachable) or
    ``"cancelled"`` (sweep interrupted before the cell completed).
    ``quarantined`` marks tasks that exhausted their retry budget.
    """

    index: int
    label: str
    kind: str
    message: str
    traceback: str = ""
    attempts: int = 0
    quarantined: bool = False

    def as_row(self) -> Dict[str, Any]:
        return {
            "status": "failed" if self.kind != "cancelled" else "cancelled",
            "kind": self.kind,
            "error": self.message,
            "attempts": self.attempts,
        }


@dataclass
class _Cell:
    """An unresolved cell: in ``pending``, or in one endpoint's ``leases``."""

    task: SweepTask
    #: The attempt number its current (or next) dispatch is charged as;
    #: free requeues do not advance it.
    attempt: int = 1
    eligible_at: float = 0.0
    expires_at: float = math.inf
    #: When the holder acked ``start``; the per-cell timeout runs from here.
    started_at: Optional[float] = None


@dataclass
class _Endpoint:
    name: str
    #: ``closed`` (redial at ``next_connect_at``) -> ``opening`` (dialled,
    #: no hello yet) -> ``ready``; ``written-off`` is terminal.
    state: str = "closed"
    slots: int = 1
    leases: Dict[int, _Cell] = field(default_factory=dict)
    connect_attempts: int = 0
    next_connect_at: float = 0.0
    hellos: int = 0
    last_seen: float = 0.0
    last_ping: float = 0.0
    cells: int = 0
    #: start acks per cell index -- "how many times did this cell *run* here".
    runs: Dict[int, int] = field(default_factory=dict)


@dataclass
class LeaseMachine:
    """Cells, endpoints and leases; events in, actions out (see module doc)."""

    tasks: Sequence[SweepTask]
    endpoint_names: Sequence[str]
    keys: Mapping[int, str]
    code: str
    retry: RetryPolicy
    connect_retry: RetryPolicy
    timeout: Optional[float]
    #: ``None``: leases never expire (see ``SweepExecutor`` for when).
    lease_timeout: Optional[float]
    heartbeat_interval: float
    stall_timeout: float
    quarantine_hosts: int

    def __post_init__(self) -> None:
        self._by_index = {task.index: task for task in self.tasks}
        self.endpoints = {name: _Endpoint(name) for name in self.endpoint_names}
        self.pending = [_Cell(task) for task in self.tasks]
        self.failed_on: Dict[int, Set[str]] = {}
        self.payloads: Dict[int, Any] = {}
        self.failures: Dict[int, SweepFailure] = {}
        self.stats: Dict[str, Any] = {"computed": 0}
        self.attempts: Dict[int, int] = {}
        self._drain_until: Optional[float] = None
        self._actions: List[Action] = []
        self._rng = random.Random(0x5EED)

    # -- events in --

    @property
    def finished(self) -> bool:
        return len(self.payloads) + len(self.failures) >= len(self.tasks)

    def tick(self, now: float, interrupted: bool = False) -> List[Action]:
        """Time passed: redial, health-check, expire, then grant leases."""
        if self.finished:
            return []
        if interrupted:
            self.on_interrupt(now)
        for endpoint in self.endpoints.values():
            self._check_endpoint(endpoint, now)
        leased = any(endpoint.leases for endpoint in self.endpoints.values())
        if self._drain_until is not None:
            if not leased or now >= self._drain_until:
                for endpoint in self.endpoints.values():
                    for index in endpoint.leases:
                        self._send(endpoint, {"type": "cancel", "index": index})
                    endpoint.leases.clear()
                self._fail_rest("cancelled", "sweep interrupted before this cell completed")
        elif not leased and all(e.state == "written-off" for e in self.endpoints.values()):
            self._fail_rest("no-hosts", "every agent host is unreachable", quarantined=True)
        else:
            self._grant(now)
        return self._take()

    def on_interrupt(self, now: float) -> None:
        """The sweep was interrupted: from now on, drain (idempotent).

        Call it as soon as the signal is seen -- before the next ack is
        handled, not at the next tick -- so that a failure reported after
        the signal ends ``cancelled`` instead of being retried or judged.
        Nothing is sent at once: the next tick cancels what is left.
        """
        if self._drain_until is None:
            self._drain_until = now + min(self.lease_timeout or DRAIN_TIMEOUT, DRAIN_TIMEOUT)

    def on_lost(self, name: str, reason: str, now: float) -> List[Action]:
        """The link failed (dial refused, EOF, send error, garbage on the wire)."""
        endpoint = self.endpoints[name]
        if endpoint.state in ("opening", "ready"):
            self._lose(endpoint, reason, now)
        return self._take()

    def on_message(self, name: str, message: Mapping[str, Any], now: float) -> List[Action]:
        endpoint = self.endpoints[name]
        endpoint.last_seen = now
        kind = message.get("type")
        if kind == "hello":
            self._on_hello(endpoint, message, now)
        elif kind == "start":
            index = int(message["index"])
            if index in endpoint.leases:
                endpoint.leases[index].started_at = now
            endpoint.runs[index] = endpoint.runs.get(index, 0) + 1
        elif kind == "done":
            self._on_done(endpoint, message)
        elif kind == "error":
            self._on_error(endpoint, message, now)
        elif kind == "requeue":  # a draining agent hands a queued cell back
            cell = endpoint.leases.pop(int(message["index"]), None)
            if cell is not None:
                self._requeue(cell, now)
        elif kind == "bye":
            self._lose(endpoint, "agent drained and said bye", now)
        # "heartbeat" and anything unknown just refresh liveness
        return self._take()

    def results(self):
        """``(payloads, failures, stats, attempts, hosts)``: index -> encoded
        result of every cell that completed, index -> :class:`SweepFailure` of
        those that did not, counts of what happened (computed/retried/
        quarantined/crash/backoff seconds/...), index -> dispatch count, and
        per-endpoint tallies ``{"cells", "runs", "reconnects"}``."""
        hosts = {
            e.name: {"cells": e.cells, "runs": dict(e.runs), "reconnects": max(0, e.hellos - 1)}
            for e in self.endpoints.values()
        }
        return self.payloads, self.failures, self.stats, self.attempts, hosts

    # -- bookkeeping --

    def _say(self, line: str) -> None:
        self._actions.append(("progress", line))

    def _send(self, endpoint: _Endpoint, message: Dict[str, Any]) -> None:
        self._actions.append(("send", endpoint.name, message))

    def _take(self) -> List[Action]:
        actions, self._actions = self._actions, []
        return actions

    def _count(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1

    def _resolved(self, index: int) -> bool:
        return index in self.payloads or index in self.failures

    def _fail_rest(self, kind: str, message: str, *, quarantined: bool = False) -> None:
        for task in self.tasks:
            if not self._resolved(task.index):
                self.failures[task.index] = SweepFailure(
                    task.index, task.label, kind, message, quarantined=quarantined
                )
                self._count(kind)

    def _requeue(self, cell: _Cell, now: float) -> None:
        """Reschedule for free: the endpoint failed (lost, draining), not the cell."""
        cell.eligible_at = now
        self.pending.append(cell)

    def _record_failure(self, cell: _Cell, kind: str, message: str, tb: str, now: float) -> None:
        """A lease ended in a failure that charges the cell this attempt."""
        self._count(kind)
        if self._drain_until is not None:
            return  # interrupted: no retry, no verdict -- it ends ``cancelled``
        task, index = cell.task, cell.task.index
        distinct = len(self.failed_on.get(index, ()))
        multi_host = kind in _HOST_BLAMING and distinct >= max(1, self.quarantine_hosts)
        if cell.attempt >= self.retry.max_attempts or multi_host:
            if multi_host:
                message = f"{message} (failed on {distinct} distinct host(s))"
            self.failures[index] = SweepFailure(
                index, task.label, kind, message, tb, attempts=cell.attempt, quarantined=True
            )
            self._count("quarantined")
            self._say(
                f"quarantined {task.label or index} after {cell.attempt} attempt(s) "
                f"on {max(distinct, 1)} host(s): {kind}: {message}"
            )
        else:
            delay = self.retry.delay(cell.attempt, self._rng)
            cell.attempt += 1
            cell.eligible_at = now + delay
            self.pending.append(cell)
            self._count("retried")
            self.stats["backoff_seconds"] = round(self.stats.get("backoff_seconds", 0.0) + delay, 6)
            self._say(
                f"retrying {task.label or index} in {delay:.2f}s "
                f"(attempt {cell.attempt}/{self.retry.max_attempts}; {kind})"
            )

    # -- endpoints --

    def _lose(self, endpoint: _Endpoint, reason: str, now: float, fatal: bool = False) -> None:
        self._actions.append(("close", endpoint.name))
        for cell in endpoint.leases.values():
            self._requeue(cell, now)
        endpoint.leases.clear()
        if endpoint.state == "ready":
            self._count("host_lost")
        endpoint.connect_attempts += 1
        if fatal or endpoint.connect_attempts >= self.connect_retry.max_attempts:
            endpoint.state = "written-off"
            self._say(
                f"host {endpoint.name} written off after {endpoint.connect_attempts} "
                f"failed connection(s): {reason}"
            )
        else:
            delay = self.connect_retry.delay(endpoint.connect_attempts, self._rng)
            endpoint.state = "closed"
            endpoint.next_connect_at = now + delay
            self._say(f"lost host {endpoint.name} ({reason}); retrying in {delay:.2f}s")

    def _on_hello(self, endpoint: _Endpoint, message: Mapping[str, Any], now: float) -> None:
        if message.get("proto") != PROTOCOL_VERSION:
            reason = f"protocol mismatch (agent proto {message.get('proto')!r})"
            self._lose(endpoint, reason, now, fatal=True)
        elif message.get("code") != self.code:
            # Its results would be cached under the wrong keys.
            reason = "code fingerprint mismatch (agent runs a different source tree)"
            self._lose(endpoint, reason, now, fatal=True)
        else:
            endpoint.hellos += 1
            if endpoint.hellos > 1:
                self._count("reconnects")
            endpoint.state = "ready"
            endpoint.slots = max(1, int(message.get("slots", 1)))
            endpoint.connect_attempts = 0
            self._say(f"host {endpoint.name} ready ({endpoint.slots} slot(s))")

    def _check_endpoint(self, endpoint: _Endpoint, now: float) -> None:
        if endpoint.state == "closed":
            if self._drain_until is None and now >= endpoint.next_connect_at:
                endpoint.state = "opening"
                endpoint.last_seen = endpoint.last_ping = now
                self._actions.append(("open", endpoint.name))
        elif endpoint.state == "opening":
            if now - endpoint.last_seen > max(self.stall_timeout, 5.0):
                self._lose(endpoint, "no hello in time", now)
        elif endpoint.state == "ready":
            silent = now - endpoint.last_seen
            if silent > self.stall_timeout:
                reason = f"no heartbeat for {silent:.1f}s (threshold {self.stall_timeout:.1f}s)"
                self._lose(endpoint, reason, now)
                return
            if now - endpoint.last_ping >= self.heartbeat_interval:
                endpoint.last_ping = now
                self._send(endpoint, {"type": "ping"})
            for index, cell in list(endpoint.leases.items()):
                running = now - cell.started_at if cell.started_at is not None else 0.0
                if self.timeout is not None and running > self.timeout:
                    kind, why = "timeout", f"cell exceeded the {self.timeout:.1f}s wall-clock limit"
                    self.failed_on.setdefault(index, set()).add(endpoint.name)
                elif now > cell.expires_at:
                    kind, why = "lease-expired", f"lease expired after {self.lease_timeout:.1f}s"
                else:
                    continue
                del endpoint.leases[index]
                self._send(endpoint, {"type": "cancel", "index": index})
                self._record_failure(cell, kind, f"{why} [on {endpoint.name}]", "", now)

    # -- leases --

    def _grant(self, now: float) -> None:
        # A late ``done`` can resolve a cell while its retry waits here.
        self.pending = [cell for cell in self.pending if not self._resolved(cell.task.index)]
        ready = [e for e in self.endpoints.values() if e.state == "ready"]
        free = sum(max(0, e.slots - len(e.leases)) for e in ready)
        for cell in [cell for cell in self.pending if cell.eligible_at <= now]:
            if free <= 0:
                return
            task = cell.task
            # The failed-host rule: while a live endpoint this cell has not
            # failed on exists, only those are eligible -- busy or not, the
            # retry waits for such a slot rather than going back to an
            # endpoint that just failed the cell.
            failed = self.failed_on.get(task.index, ())
            fresh = [e for e in ready if e.name not in failed]
            open_ = [e for e in (fresh or ready) if len(e.leases) < e.slots]
            if not open_:
                continue
            endpoint = min(open_, key=lambda e: len(e.leases))
            self.pending.remove(cell)
            free -= 1
            self.attempts[task.index] = self.attempts.get(task.index, 0) + 1
            cell.started_at = None
            cell.expires_at = math.inf if self.lease_timeout is None else now + self.lease_timeout
            endpoint.leases[task.index] = cell
            grant = {
                "type": "task",
                "index": task.index,
                "attempt": cell.attempt,
                "key": self.keys.get(task.index),
                "spec": task.spec,
                "inject": dict(task.inject),
            }
            self._send(endpoint, grant)

    def _on_error(self, endpoint: _Endpoint, message: Mapping[str, Any], now: float) -> None:
        index = int(message["index"])
        cell = endpoint.leases.pop(index, None)
        if cell is None:
            return  # stale: that lease already ended (and was charged or requeued)
        kind = message.get("kind") if message.get("kind") in _REPORTED_KINDS else "error"
        if kind in _HOST_BLAMING:
            self.failed_on.setdefault(index, set()).add(endpoint.name)
        text = str(message.get("message"))
        if message.get("exc_type"):
            text = f"{message['exc_type']}: {text}"
        tb = message.get("traceback", "")
        self._record_failure(cell, kind, f"{text} [on {endpoint.name}]", tb, now)

    def _on_done(self, endpoint: _Endpoint, message: Mapping[str, Any]) -> None:
        index = int(message["index"])
        endpoint.leases.pop(index, None)
        if self._resolved(index) or index not in self._by_index:
            return  # stale ack from a superseded lease; first writer won
        self.payloads[index] = message["payload"]
        # A reassigned cell may still be leased elsewhere: that run is moot.
        for other in self.endpoints.values():
            moot = other.leases.pop(index, None)
            if moot is not None and moot.started_at is not None:
                self._send(other, {"type": "cancel", "index": index})
        self.stats["computed"] += 1
        if message.get("cached"):
            self._count("agent_cached")
        endpoint.cells += 1
        origin = "agent cache" if message.get("cached") else f"{message.get('elapsed', 0.0):.2f}s"
        self._say(
            f"[{len(self.payloads) + len(self.failures)}/{len(self.tasks)}] "
            f"{self._by_index[index].label or index}: ok on {endpoint.name} ({origin})"
        )
