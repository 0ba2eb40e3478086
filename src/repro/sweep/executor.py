"""Fault-tolerant execution of sweep cells: worker pool, endpoints, one loop.

Crash-only by design: every completed cell is written to the
content-addressed cache *before* the worker reports it, so the driver --
and the whole machine -- can die at any instant and a rerun recomputes
only the missing delta.

* :class:`WorkerPool` is the only place worker processes are forked,
  health-checked, killed and reaped.  Each worker is driven over its own
  duplex pipe (no shared queue, so killing one can never corrupt a lock
  another holds), and the pool speaks the agent message shapes
  (``hello``/``start``/``heartbeat``/``done``/``error{kind}``):
  :class:`~repro.sweep.remote.SweepAgent` is a pool with a TCP socket in
  front, local mode is a pool reached without one.
* An *endpoint* is anything with ``send(message)`` / ``poll()`` /
  ``waitables()`` / ``close()``: a pool, or a dialled agent
  (:class:`_AgentLink`, which also owns the wire boundary).
* :class:`SweepExecutor` is the selector loop that owns the endpoints and
  the clock and carries out what :class:`~repro.sweep.lease.LeaseMachine`
  decides.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import socket
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.scenarios.runner import run_scenario
from repro.sweep.cache import CACHE_VERSION, ResultCache, code_fingerprint, encode_result
from repro.sweep.grid import SweepTask
from repro.sweep.lease import Action, LeaseMachine, RetryPolicy
from repro.sweep.transport import (
    PROTOCOL_VERSION,
    PipeTransport,
    ProtocolError,
    SocketTransport,
    TransportClosed,
    pack_pickle,
    parse_host,
    unpack_blob,
    wait_readable,
)

#: Selector timeout of the driver and agent loops: the granularity of every
#: deadline (leases, stalls, backoff).
TICK = 0.05


def covers(values: Any, number: int) -> bool:
    """Does a fault-hook value (``"all"``, or a list of numbers) cover this one?"""
    if values is None:
        return False
    return values == "all" or number in tuple(values)


def _apply_injection(inject: Mapping[str, Any], attempt: int, beating: threading.Event) -> None:
    """Execute test-only fault directives before running the real task."""
    if covers(inject.get("crash_on"), attempt):
        os._exit(int(inject.get("exit_code", 134)))
    if covers(inject.get("silent_hang_on"), attempt):
        beating.clear()
        time.sleep(float(inject.get("hang_seconds", 3600.0)))
    if covers(inject.get("hang_on"), attempt):
        time.sleep(float(inject.get("hang_seconds", 3600.0)))
    if covers(inject.get("raise_on"), attempt):
        raise RuntimeError(str(inject.get("message", "injected failure")))


def _open_descriptors() -> FrozenSet[int]:
    """The file descriptors this process has open right now."""
    listed = [int(name) for name in os.listdir("/dev/fd")]
    open_now = []
    for fd in listed:  # (one of them was the listing's own, closed again by now)
        try:
            os.fstat(fd)
        except OSError:
            continue
        open_now.append(fd)
    return frozenset(open_now)


def _forget_parent(inherited: FrozenSet[int]) -> None:
    """Drop what a forked worker inherits from its parent before it serves.

    * SIGTERM goes back to the default action: an inherited handler (the
      driver's or agent's :class:`~repro.sweep.signals.GracefulInterrupt`)
      would turn the pool's ``terminate()`` into a flag, and the worker
      would live until the kill fallback.  SIGINT stays ignored: the parent
      coordinates shutdown, Ctrl-C must interrupt it, not us.
    * Every inherited descriptor but stdio and our own pipe end -- the
      parent's end of our pipe, the siblings' pipe ends, an agent's
      listening socket and driver connection, a driver's agent links --
      is let go.  Holding the parent's end would hide its death from us
      (no EOF, ever), and holding a listening socket would keep a dead
      agent's port accepting.  The descriptors become ``/dev/null`` rather
      than closed, so a finalizer on an inherited object can never close a
      descriptor this worker opened later under the same number.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    null = os.open(os.devnull, os.O_RDWR)
    for fd in inherited:
        os.dup2(null, fd, inheritable=False)
    os.close(null)


def _worker_main(
    conn: Connection,
    inherited: FrozenSet[int],
    worker_id: int,
    heartbeat_interval: float,
    cache_root: Optional[str],
    worker_faults: Mapping[str, Any],
) -> None:
    """One worker process: receive ``task`` messages, run them, report.

    ``inherited`` lists the parent's descriptors to let go of
    (:func:`_forget_parent`).  Test hooks: a task's ``inject`` mapping makes
    it raise, crash, hang, or hang silently (heartbeats stopped) on given
    attempts.  ``worker_faults`` maps a fault name to worker ids:
    ``die_after_hello`` exits right after the hello (first-contact death),
    ``wedge_before_start`` takes a task but never acks ``start`` while its
    heartbeat thread keeps beating (the pre-start wedge the start-ack
    deadline exists for).
    """
    _forget_parent(inherited)

    def _faulted(name: str) -> bool:
        return covers(worker_faults.get(name), worker_id)

    send_lock = threading.Lock()
    beating = threading.Event()
    beating.set()

    def send(message_type: str, /, **fields: Any) -> None:
        with send_lock:
            try:
                conn.send({"type": message_type, **fields})
            except (BrokenPipeError, OSError):  # the pool is gone; die quietly
                os._exit(0)

    def heartbeat_loop() -> None:
        while True:
            time.sleep(heartbeat_interval)
            if beating.is_set():
                send("heartbeat")

    threading.Thread(target=heartbeat_loop, daemon=True).start()
    send("hello")
    if _faulted("die_after_hello"):
        os._exit(13)

    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        ident = {"index": job["index"], "attempt": job["attempt"]}
        key = job.get("key")
        if _faulted("wedge_before_start"):
            time.sleep(3600.0)  # heartbeats continue; start is never acked
        send("start", **ident)
        started = time.monotonic()
        try:
            _apply_injection(job.get("inject") or {}, job["attempt"], beating)
            payload = encode_result(run_scenario(job["spec"]))
            if cache_root is not None and key is not None:
                # Cache first, report second: if we die between the two the
                # entry survives and the retry is a pure cache hit.
                ResultCache(cache_root).put(key, payload)
            send("done", **ident, key=key, payload=payload, elapsed=time.monotonic() - started)
        except BaseException as exc:  # crash-only: report anything, keep serving
            send(
                "error",
                **ident,
                kind="error",
                exc_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
                elapsed=time.monotonic() - started,
            )


@dataclass
class _Worker:
    process: multiprocessing.process.BaseProcess
    transport: PipeTransport
    #: The ``task`` message this worker is running, if any.
    job: Optional[Dict[str, Any]] = None
    dispatched_at: float = 0.0
    #: When the worker acked "start".
    started_at: Optional[float] = None
    #: True once any message arrived; until then silence is judged by
    #: ``spawn_timeout``, so a slow start is not mistaken for death.
    contacted: bool = False
    #: The pipe reported EOF: death evidence the health check acts on at
    #: once instead of waiting out the stall detector.
    eof: bool = False
    last_heartbeat: float = 0.0


class WorkerPool:
    """Up to ``slots`` forked workers behind the endpoint interface.

    ``send`` takes ``task`` (queued, started as soon as a worker is free,
    forking one on demand) and ``cancel`` (dropped, or its worker killed);
    ``poll`` returns what happened since the last call.  A dead or wedged
    worker is reaped and its cell reported as ``error{kind}``.

    A worker is a ``fork`` of the driver or agent, which already imported
    everything a cell needs, so it serves within milliseconds; the pool
    therefore needs a POSIX ``fork``.  It starts from a copy of its parent
    and drops the parent's signal handlers and descriptors before it serves
    (:func:`_forget_parent`), so a worker still learns of its parent's death
    from its pipe's EOF and dies with ``terminate()``.
    """

    def __init__(
        self,
        slots: int,
        *,
        cache_root: Optional[str] = None,
        heartbeat_interval: float = 0.5,
        stall_timeout: Optional[float] = None,
        spawn_timeout: float = 60.0,
        start_ack_timeout: Optional[float] = None,
        worker_faults: Optional[Mapping[str, Any]] = None,
    ):
        self.slots = max(1, slots)
        self.heartbeat_interval = heartbeat_interval
        self.stall_timeout = (
            stall_timeout if stall_timeout is not None else max(10.0 * heartbeat_interval, 5.0)
        )
        #: How long a fresh worker may stay silent before its first message
        #: (hello or heartbeat): the fork, on a machine that may be loaded.
        self.spawn_timeout = spawn_timeout
        #: The "start" ack deadline of every dispatch, a worker's first
        #: included (a fork acks its first task as fast as its later ones).
        #: It catches a main thread that wedged or died before the ack while
        #: the heartbeat thread kept the stall detector happy.
        self.start_ack_timeout = (
            start_ack_timeout if start_ack_timeout is not None else self.stall_timeout
        )
        self._worker_args = (heartbeat_interval, cache_root, dict(worker_faults or {}))
        self._ctx = multiprocessing.get_context("fork")
        self._workers: List[_Worker] = []
        self._queue: List[Dict[str, Any]] = []
        self._events: List[Dict[str, Any]] = [self.hello()]
        self._spawned = 0
        self._last_heartbeat = 0.0

    def hello(self) -> Dict[str, Any]:
        identity = {"proto": PROTOCOL_VERSION, "code": code_fingerprint()}
        return {"type": "hello", **identity, "slots": self.slots}

    def send(self, message: Mapping[str, Any]) -> None:
        kind, index = message["type"], message.get("index")
        if kind == "task":
            if index not in self.busy() and all(job["index"] != index for job in self._queue):
                self._queue.append(dict(message))  # (else: a duplicate lease)
                self._pump()
        elif kind == "cancel":
            self._queue = [job for job in self._queue if job["index"] != index]
            for worker in list(self._workers):
                if worker.job is not None and worker.job["index"] == index:
                    self._reap(worker)
        # "ping" means nothing to a pool

    def poll(self) -> List[Dict[str, Any]]:
        now = time.monotonic()
        for worker in self._workers:
            try:
                messages = worker.transport.recv_all()
            except TransportClosed:
                worker.eof = True
                continue
            for message in messages:
                worker.contacted = True
                worker.last_heartbeat = now
                if message["type"] == "start":
                    worker.started_at = now
                elif message["type"] in ("done", "error"):
                    worker.job = None
                else:  # the worker's own hello / heartbeat
                    continue
                self._events.append(message)
        for worker in list(self._workers):
            problem = self._diagnose(worker, now)
            if problem is not None:
                job = worker.job
                self._reap(worker)
                if job is not None:
                    report = {"type": "error", "index": job["index"], "attempt": job["attempt"]}
                    self._events.append({**report, "kind": problem[0], "message": problem[1]})
        self._pump()
        if now - self._last_heartbeat >= self.heartbeat_interval:
            self._last_heartbeat = now
            self._events.append({"type": "heartbeat", "busy": self.busy()})
        events, self._events = self._events, []
        return events

    def waitables(self) -> List[Any]:
        return [worker.transport for worker in self._workers]

    def close(self) -> None:
        for worker in list(self._workers):
            self._reap(worker)

    def busy(self) -> List[int]:
        """Indices of the cells running right now."""
        return [worker.job["index"] for worker in self._workers if worker.job is not None]

    def drain(self) -> List[Dict[str, Any]]:
        """Take back every queued (not yet started) ``task`` message."""
        queued, self._queue = self._queue, []
        return queued

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Listed before the fork: a descriptor another thread opens in between
        # stays in the worker (the CLI driver and agent fork single-threaded).
        inherited = _open_descriptors() - {0, 1, 2, child_conn.fileno()}
        args = (child_conn, inherited, self._spawned, *self._worker_args)
        process = self._ctx.Process(target=_worker_main, args=args, daemon=True)
        process.start()
        child_conn.close()
        self._spawned += 1
        self._workers.append(_Worker(process, PipeTransport(parent_conn)))
        return self._workers[-1]

    def _reap(self, worker: _Worker) -> None:
        try:
            worker.process.terminate()
            worker.process.join(0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(0.5)
        except (OSError, ValueError):
            pass
        worker.transport.close()
        self._workers.remove(worker)

    def _pump(self) -> None:
        while self._queue:
            idle = next((w for w in self._workers if w.job is None), None)
            if idle is None:
                if len(self._workers) >= self.slots:
                    return
                idle = self._spawn()
            try:
                idle.transport.send(self._queue[0])
            except TransportClosed:  # died while idle: not the cell's fault
                self._reap(idle)
                continue
            idle.job = self._queue.pop(0)
            idle.started_at = None
            idle.dispatched_at = idle.last_heartbeat = time.monotonic()

    def _diagnose(self, worker: _Worker, now: float) -> Optional[Tuple[str, str]]:
        """The failure ``(kind, message)`` this worker shows, if any."""
        if worker.eof or not worker.process.is_alive():
            # EOF counts even while the exit is still in flight (is_alive
            # can race a dying process): a worker that died before its first
            # heartbeat fails its task promptly, not a stall later.
            worker.process.join(0.2)
            return "crash", f"worker process died (exit code {worker.process.exitcode})"
        if worker.job is None:
            return None
        grace = self.start_ack_timeout
        if worker.started_at is None and now - worker.dispatched_at > grace:
            return "dead-worker", f"no start ack within {grace:.1f}s of dispatch"
        silent = now - worker.last_heartbeat
        limit = self.stall_timeout if worker.contacted else self.spawn_timeout
        if silent > limit:
            return "dead-worker", f"no heartbeat for {silent:.1f}s (threshold {limit:.1f}s)"
        return None


class _AgentLink:
    """A dialled agent as an endpoint, and the wire boundary.

    Outbound ``task`` specs are pickled for JSON.  The driver never trusts
    the wire: every inbound ``done`` has its blob hash, cache version and
    key binding verified and is re-cached locally before it is handed on;
    one that fails reads as ``error{kind: "bad-payload"}`` for that cell.
    """

    def __init__(
        self, addr: Tuple[str, int], keys: Mapping[int, str], cache: Optional[ResultCache]
    ):
        self.transport = SocketTransport(socket.create_connection(addr, timeout=1.0))
        self.keys = keys
        self.cache = cache

    def send(self, message: Mapping[str, Any]) -> None:
        if message["type"] == "task":
            message = {**message, "spec": pack_pickle(message["spec"])}
        self.transport.send(message)

    def poll(self) -> List[Dict[str, Any]]:
        messages = self.transport.recv_all()
        for position, message in enumerate(messages):
            if message["type"] != "done":
                continue
            key = self.keys.get(message.get("index"))
            try:
                message["payload"] = payload = self._verified(message, key)
            except Exception as exc:
                # Corrupt on the wire or mis-cached on the agent: exactly a
                # torn cache entry -- a miss, retried like any failure.
                report = {"type": "error", "kind": "bad-payload", "index": message.get("index")}
                messages[position] = {**report, "exc_type": type(exc).__name__, "message": str(exc)}
                continue
            if self.cache is not None and key is not None:
                self.cache.put(key, payload)
        return messages

    @staticmethod
    def _verified(message: Dict[str, Any], expected_key: Optional[str]) -> Dict[str, Any]:
        if message.get("key") != expected_key:
            raise ProtocolError(
                f"key mismatch: agent acked {str(message.get('key'))[:12]}..., "
                f"cell is {str(expected_key)[:12]}..."
            )
        payload = pickle.loads(unpack_blob(message.pop("blob", None)))
        if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
            raise ProtocolError("payload is not a current-version cache entry")
        if expected_key is not None and payload.get("cache_key") not in (None, expected_key):
            raise ProtocolError("payload is bound to a different cache key")
        return payload

    def waitables(self) -> List[Any]:
        return [self.transport]

    def close(self) -> None:
        try:  # end the session, so the agent need not wait out its stall guard
            self.transport.send({"type": "stop"})
        except TransportClosed:
            pass
        self.transport.close()


class SweepExecutor:
    """Run sweep cells on endpoints: agents at ``hosts``, else a local pool.

    ``run()`` returns :meth:`LeaseMachine.results`.
    """

    def __init__(
        self,
        tasks: Sequence[SweepTask],
        *,
        hosts: Sequence[Any] = (),
        keys: Optional[Mapping[int, str]] = None,
        cache: Optional[ResultCache] = None,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        lease_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.5,
        stall_timeout: Optional[float] = None,
        spawn_timeout: float = 60.0,
        start_ack_timeout: Optional[float] = None,
        connect_retry: Optional[RetryPolicy] = None,
        quarantine_hosts: int = 2,
        interrupt: Optional[Any] = None,
        progress: Optional[Callable[[str], None]] = None,
        worker_faults: Optional[Mapping[str, Any]] = None,
    ):
        self.cache = cache
        self.keys = dict(keys or {})
        self.interrupt = interrupt
        self.progress = progress or (lambda message: None)
        if stall_timeout is None:
            stall_timeout = max(10.0 * heartbeat_interval, 5.0)
        self._addrs = {f"{host}:{port}": (host, port) for host, port in map(parse_host, hosts)}
        if self._addrs and lease_timeout is None:
            # A remote cell is only observable through its acks, so its
            # lease is a hard wall-clock bound.  Local workers are observed
            # directly and run unbounded unless ``timeout`` (or an explicit
            # ``lease_timeout``) says otherwise.
            lease_timeout = (
                timeout + stall_timeout + 5.0
                if timeout is not None
                else max(30.0, 6.0 * stall_timeout)
            )
        self._pool_options = dict(
            slots=workers or min(8, (os.cpu_count() or 2) - 1 or 1),
            cache_root=str(cache.root) if cache is not None else None,
            heartbeat_interval=heartbeat_interval,
            stall_timeout=stall_timeout,
            spawn_timeout=spawn_timeout,
            start_ack_timeout=start_ack_timeout,
            worker_faults=worker_faults,
        )
        self.machine = LeaseMachine(
            list(tasks),
            list(self._addrs) or ["local"],
            keys=self.keys,
            code=code_fingerprint(),
            retry=retry or RetryPolicy(),
            connect_retry=connect_retry
            or RetryPolicy(max_attempts=8, base_delay=0.2, max_delay=2.0),
            timeout=timeout,
            lease_timeout=lease_timeout,
            heartbeat_interval=heartbeat_interval,
            stall_timeout=stall_timeout,
            quarantine_hosts=quarantine_hosts,
        )
        self._links: Dict[str, Any] = {}

    def run(self):
        machine = self.machine
        try:
            while not machine.finished:
                # Hear before judging: heartbeats that queued up during a slow
                # step (a dial timing out) must precede the stall check.
                quiet = True
                for name, link in list(self._links.items()):
                    try:
                        messages = link.poll()
                    except (TransportClosed, ProtocolError) as exc:
                        self._perform(machine.on_lost(name, str(exc), time.monotonic()))
                        continue
                    for message in messages:
                        quiet = False
                        self._perform(machine.on_message(name, message, time.monotonic()))
                interrupted = bool(getattr(self.interrupt, "requested", False))
                actions = machine.tick(time.monotonic(), interrupted)
                self._perform(actions)
                if quiet and not actions:  # (acting may have news ready: a new pool's hello)
                    waitables = [w for link in self._links.values() for w in link.waitables()]
                    if waitables:
                        wait_readable(waitables, timeout=TICK)
                    else:
                        time.sleep(TICK)
        finally:
            for link in self._links.values():
                link.close()
            self._links.clear()
        return machine.results()

    def _perform(self, actions: List[Action]) -> None:
        """Carry out the machine's decisions; feed I/O failures back in."""
        for kind, name, *rest in actions:
            if kind == "progress":
                self.progress(name)
            elif kind == "close":
                link = self._links.pop(name, None)
                if link is not None:
                    link.close()
            elif kind == "open" or name in self._links:  # a send to a dropped link is moot
                try:
                    if kind == "send":
                        self._links[name].send(rest[0])
                    elif name in self._addrs:
                        self._links[name] = _AgentLink(self._addrs[name], self.keys, self.cache)
                    else:
                        self._links[name] = WorkerPool(**self._pool_options)
                except OSError as exc:  # TransportClosed included: the peer is unreachable
                    self._perform(self.machine.on_lost(name, str(exc), time.monotonic()))
