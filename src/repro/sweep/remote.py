"""The remote agent of the sweep fabric: a worker pool behind a TCP socket.

A *driver* (``run_sweep(mode="remote", hosts=[...])`` or ``python -m repro
serve-sweep``) dials one or more *agents* (``python -m repro agent
<host:port>`` on a real host; :func:`spawn_local_agents` forks loopback
ones from the driver itself) and speaks line-delimited JSON
(:mod:`repro.sweep.transport`).
The driver side -- leases, reassignment, reconnect backoff, quarantine,
payload verification -- is the :class:`~repro.sweep.lease.LeaseMachine` and
:class:`~repro.sweep.executor.SweepExecutor` that also drive local workers.
This module is what listens: a :class:`~repro.sweep.executor.WorkerPool`
plus the agent's own ``.sweep-cache/``, read before a cell is started and
written *before* it is acked, so killing either side at any instant costs
only cells never computed -- recovery is "rerun; hit the caches".
:class:`AgentFaults` hooks let tests take every recovery path without a
real network.  The failure model end to end: ``docs/SWEEPS.md``.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import signal
import socket
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.sweep.cache import ResultCache
from repro.sweep.executor import TICK, WorkerPool, _forget_parent, _open_descriptors, covers
from repro.sweep.signals import GracefulInterrupt
from repro.sweep.transport import (
    ProtocolError,
    SocketTransport,
    TransportClosed,
    pack_blob,
    unpack_pickle,
    wait_readable,
)

#: Half-open guard: an agent drops a driver it has not heard from (pings
#: included) for this long.
DRIVER_STALL = 30.0


@dataclass(frozen=True)
class AgentFaults:
    """Deterministic agent-side fault hooks, keyed by cell index.

    ``drop_conn_on``: close the driver connection *instead of* acking the
    cell's ``done`` (once per index) -- the result stays in the agent cache,
    so the retried lease is answered instantly (reconnect, duplicate leases).
    ``partition_on``: upon receiving the cell, stop sending anything
    (heartbeats included) for ``partition_seconds`` with the socket left
    open -- a half-open connection (dead-host detection).
    ``slow_ack_on``: sleep ``slow_ack_seconds`` before every ``done`` ack
    for the cell -- widens the window for lease expiry and kill tests.
    Each value is a list of cell indices or the string ``"all"``.
    """

    drop_conn_on: Any = ()
    partition_on: Any = ()
    slow_ack_on: Any = ()
    slow_ack_seconds: float = 0.75
    partition_seconds: float = 3600.0

    @classmethod
    def parse(cls, pairs: Sequence[str]) -> "AgentFaults":
        """Build from CLI ``key=value`` strings (values: ``all`` or ``0,3``)."""
        kwargs: Dict[str, Any] = {}
        valid = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        for pair in pairs:
            key, sep, text = pair.partition("=")
            if not sep or key not in valid:
                raise ValueError(
                    f"unknown fault hook {pair!r}; expected one of {sorted(valid)} as key=value"
                )
            if key.endswith("_seconds"):
                kwargs[key] = float(text)
            elif text == "all":
                kwargs[key] = "all"
            else:
                kwargs[key] = tuple(int(part) for part in text.split(",") if part.strip())
        return cls(**kwargs)


class SweepAgent:
    """One remote execution agent: listen, lease cells, compute, cache, ack.

    Crash-only: every result is in the agent's local cache *before* the
    ack, a dead driver just means the next driver (or the same one, resumed)
    gets instant cache hits, and a new driver connection simply replaces
    the old one.  The agent keeps listening across driver sessions.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 1,
        cache: Any = None,
        heartbeat_interval: float = 0.5,
        stall_timeout: Optional[float] = None,
        faults: Optional[AgentFaults] = None,
        name: Optional[str] = None,
        progress: Optional[Callable[[str], None]] = None,
    ):
        self.cache = (
            cache if isinstance(cache, ResultCache) else ResultCache(cache or ".sweep-cache")
        )
        self.faults = faults or AgentFaults()
        self.progress = progress or (lambda message: None)
        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listen.bind((host, port))
        self._listen.listen(4)
        self._listen.setblocking(False)
        self.address: Tuple[str, int] = self._listen.getsockname()[:2]
        self.name = name or f"{self.address[0]}:{self.address[1]}"
        self._pool = WorkerPool(
            workers,
            cache_root=str(self.cache.root),
            heartbeat_interval=heartbeat_interval,
            stall_timeout=stall_timeout,
        )
        self._driver: Optional[SocketTransport] = None
        self._driver_seen = 0.0
        self._mute_until = 0.0
        self._fired: Set[Tuple[str, int]] = set()

    def _send(self, message: Dict[str, Any]) -> None:
        """Send to the driver unless muted (partition fault) or detached."""
        if self._driver is None or time.monotonic() < self._mute_until:
            return  # (partitioned: silently drop -- the half-open simulation)
        try:
            self._driver.send(message)
        except TransportClosed:
            self._drop_driver("send failed")

    def _drop_driver(self, reason: str) -> None:
        if self._driver is not None:
            self.progress(f"driver connection closed ({reason}); still listening")
            self._driver.close()
            self._driver = None

    def _accept(self) -> None:
        try:
            conn, addr = self._listen.accept()
        except (BlockingIOError, InterruptedError, OSError):
            return
        if self._driver is not None:
            # A new driver supersedes the old session (e.g. the driver was
            # killed and resumed); the newest connection wins.
            self._drop_driver("replaced by a new driver")
        self._driver = SocketTransport(conn)
        self._driver_seen = time.monotonic()
        self._mute_until = 0.0
        self.progress(f"driver connected from {addr[0]}:{addr[1]}")
        self._send({**self._pool.hello(), "agent": self.name})

    def _fire_once(self, hook: str, index: int) -> bool:
        fire = (hook, index) not in self._fired and covers(getattr(self.faults, hook), index)
        if fire:
            self._fired.add((hook, index))
        return fire

    def _on_task(self, message: Dict[str, Any]) -> None:
        index, key = message["index"], message.get("key")
        try:
            job = {**message, "spec": unpack_pickle(message["spec"])}
        except ProtocolError as exc:
            report = {"type": "error", "index": index, "attempt": message.get("attempt")}
            self._send({**report, "exc_type": "ProtocolError", "message": str(exc)})
            return
        if self._fire_once("partition_on", index):
            self._mute_until = time.monotonic() + self.faults.partition_seconds
        payload = self.cache.get(key) if key else None
        if payload is not None:
            self._ack_done({**job, "payload": payload, "elapsed": 0.0}, cached=True)
        else:
            self._pool.send(job)

    def _ack_done(self, done: Mapping[str, Any], cached: bool) -> None:
        """Ship a pool ``done`` (or a cache hit shaped like one) as a wire ack."""
        if covers(self.faults.slow_ack_on, done["index"]):
            time.sleep(self.faults.slow_ack_seconds)
        if self._fire_once("drop_conn_on", done["index"]):
            self._drop_driver("injected drop_conn_on")
            return
        blob = pickle.dumps(done["payload"], protocol=pickle.HIGHEST_PROTOCOL)
        ack = {field: done[field] for field in ("index", "attempt", "key", "elapsed")}
        self._send({"type": "done", **ack, "blob": pack_blob(blob), "cached": cached})

    def serve_forever(
        self, stop: Optional[Callable[[], bool]] = None, wake: Optional[socket.socket] = None
    ) -> None:
        """Serve drivers until ``stop()`` goes true, then drain and exit.

        The drain is graceful: no new cells are started, in-flight cells
        finish (and cache, and ack), queued cells go back to the driver with
        ``requeue``, and a final ``bye`` says the exit is not a failure.
        ``wake``, if given, is a non-blocking socket in the wait set: a byte
        written to its peer (as :func:`serve_agent`'s signal handler does)
        ends the wait at once, so ``stop()`` is polled without waiting out
        the rest of a ``TICK``.
        """
        draining = False
        wakers = [wake] if wake is not None else []
        try:
            while True:
                now = time.monotonic()
                if not draining and stop is not None and stop():
                    draining = True
                    for job in self._pool.drain():
                        self._send({"type": "requeue", "index": job["index"]})
                    self.progress("draining: finishing in-flight cells")
                if draining and not self._pool.busy():
                    self._send({"type": "bye"})
                    return
                links = [self._driver] if self._driver is not None else []
                ready = wait_readable(
                    [self._listen, *links, *self._pool.waitables(), *wakers], timeout=TICK
                )
                if wake in ready:
                    with contextlib.suppress(BlockingIOError):
                        wake.recv(64)
                self._accept()
                if self._driver is not None:
                    try:
                        messages = self._driver.recv_all()
                    except (TransportClosed, ProtocolError) as exc:
                        self._drop_driver(str(exc))
                        messages = []
                    for message in messages:
                        self._driver_seen = now
                        kind = message.get("type")
                        if kind == "task" and not draining:
                            self._on_task(message)
                        elif kind == "cancel":
                            self._pool.send(message)
                        elif kind == "stop":
                            self._drop_driver("driver ended the session")
                            break
                        # "ping" and anything unknown just refresh liveness
                for message in self._pool.poll():
                    if message["type"] == "done":
                        self._ack_done(message, cached=False)
                    elif message["type"] != "hello":  # start / heartbeat / error{kind}
                        self._send(message)
                if self._driver is not None and now - self._driver_seen > DRIVER_STALL:
                    # Half-open guard: a driver that went silent is gone.
                    self._drop_driver(f"no driver traffic for {DRIVER_STALL:.0f}s")
        finally:
            self._pool.close()
            self._drop_driver("agent exiting")
            self._listen.close()


def serve_agent(agent: SweepAgent) -> None:
    """Announce ``agent`` and serve until the first SIGINT/SIGTERM, then drain.

    The ``agent listening on HOST:PORT`` line is the startup handshake:
    :func:`spawn_local_agents`, and any script that starts ``python -m repro
    agent`` on a real host, parses the bound address out of it.  It is
    printed once the two-phase handler is live, so a SIGTERM sent after it
    always drains, and the drain starts as the signal arrives: the handler
    writes to a self-pipe in the agent's wait set.
    """
    wake, waker = socket.socketpair()
    try:
        wake.setblocking(False)
        waker.setblocking(False)
        with GracefulInterrupt(
            on_first="flag", hint="Draining in-flight cells.",
            on_request=lambda: waker.send(b"\0"),
        ) as interrupt:
            print(f"agent listening on {agent.address[0]}:{agent.address[1]}", flush=True)
            agent.serve_forever(stop=lambda: interrupt.requested, wake=wake)
    finally:
        wake.close()
        waker.close()


class AgentProcess:
    """The driver's handle on a forked loopback agent, shaped like a subprocess's.

    ``stdout`` reads what the agent prints (its stdout and stderr, one
    pipe); ``wait(timeout)`` reaps the agent or raises
    :class:`subprocess.TimeoutExpired`.
    """

    def __init__(self, pid: int, stdout: Any):
        self.pid = pid
        self.stdout = stdout
        self.args = f"loopback agent (pid {pid})"
        self.returncode: Optional[int] = None

    def _reap(self, flags: int) -> None:
        try:
            pid, status = os.waitpid(self.pid, flags)
        except ChildProcessError:  # reaped behind our back: the status is lost
            self.returncode = 0  # (what the subprocess module reports in that case)
            return
        if pid == self.pid:
            self.returncode = os.waitstatus_to_exitcode(status)

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            self._reap(os.WNOHANG)
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        if timeout is None:
            if self.returncode is None:
                self._reap(0)
            return self.returncode
        deadline = time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise subprocess.TimeoutExpired(self.args, timeout)
            time.sleep(min(delay, remaining))
            delay = min(2 * delay, 0.05)
        return self.returncode

    def send_signal(self, signum: int) -> None:
        if self.poll() is None:  # never signal a pid that may have been reused
            os.kill(self.pid, signum)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


def _agent_main(
    write_fd: int,
    inherited: FrozenSet[int],
    env: Optional[Mapping[str, str]],
    options: Mapping[str, Any],
) -> None:
    """The forked agent: let go of the driver, then announce and serve.

    Never returns: the driver's ``atexit`` hooks and finalizers are the
    driver's, so the agent leaves through ``os._exit`` only.
    """
    code = 1
    try:
        gc.freeze()  # the driver's garbage is never collected (or finalized) here
        _forget_parent(inherited)
        os.dup2(write_fd, 1)
        os.dup2(write_fd, 2)
        if write_fd > 2:
            os.close(write_fd)
        # The driver's sys.stdout may not be fd 1 at all (a capturing test
        # runner swaps in its own stream); the agent's output is the pipe.
        sys.stdout = open(1, "w", buffering=1, closefd=False)
        sys.stderr = open(2, "w", buffering=1, closefd=False)
        if env is not None:
            os.environ.clear()
            os.environ.update(env)

        def progress(message: str) -> None:
            print(f"  {message}", flush=True)

        serve_agent(SweepAgent("127.0.0.1", 0, progress=progress, **options))
        code = 0
    except BaseException:  # (never re-raised: unwinding would run the driver's code)
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _handshake(fd: int, deadline: float) -> str:
    """Read the agent's output up to its handshake line, EOF or the deadline.

    Byte by byte, so nothing after the line is consumed: the rest stays in
    the pipe for ``AgentProcess.stdout``.  Returns the last line read.
    """
    read = b""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not wait_readable([fd], timeout=remaining):
            break
        byte = os.read(fd, 1)
        if not byte:  # EOF: the agent died
            break
        read += byte
        if byte == b"\n" and b"listening on" in read.splitlines()[-1]:
            break
    lines = read.splitlines()
    return lines[-1].decode(errors="replace") if lines else ""


def spawn_local_agents(
    count: int,
    *,
    cache_dirs: Optional[Sequence[Any]] = None,
    workers: int = 1,
    faults: Optional[Sequence[Optional[AgentFaults]]] = None,
    heartbeat_interval: float = 0.5,
    env: Optional[Mapping[str, str]] = None,
    startup_timeout: float = 30.0,
) -> Tuple[List[AgentProcess], List[str]]:
    """Fork ``count`` loopback agents; return ``(handles, hosts)``.

    Each agent is a ``fork`` of the calling process, which already imported
    everything a cell needs, so it listens within milliseconds; like a pool
    worker it drops the caller's descriptors first (:func:`_forget_parent`).
    It binds an ephemeral 127.0.0.1 port, announced by the handshake line
    of :func:`serve_agent`, so callers get real cross-process remote
    execution on one machine -- the loopback parity/chaos configuration.

    The handles (:class:`AgentProcess`) answer ``pid``, ``poll()``,
    ``wait(timeout)``, ``terminate()``, ``kill()``, ``send_signal()`` and
    ``stdout`` as a :mod:`subprocess` handle would; the caller owns the
    agents and must terminate and reap them.  ``env``, if given, replaces the agent's
    ``os.environ``; settings read at import time (``PYTHONPATH``,
    ``PYTHONHASHSEED``, BLAS threads) are the caller's, already applied.
    Fork from a single-threaded caller: a descriptor another thread opens
    during the fork stays open in the agent.
    """
    environ = dict(env) if env is not None else None  # (a copy: env may be os.environ)
    handles: List[AgentProcess] = []
    hosts: List[str] = []
    try:
        for i in range(count):
            options = dict(
                workers=workers,
                cache=cache_dirs[i] if cache_dirs is not None else None,
                heartbeat_interval=heartbeat_interval,
                faults=faults[i] if faults is not None else None,
            )
            read_fd, write_fd = os.pipe()
            inherited = _open_descriptors() - {0, 1, 2, write_fd}
            for stream in (sys.stdout, sys.stderr):  # else buffered output is written twice
                with contextlib.suppress(AttributeError, ValueError):  # (None, or closed)
                    stream.flush()
            pid = os.fork()
            if pid == 0:
                _agent_main(write_fd, inherited, environ, options)
            os.close(write_fd)
            handles.append(AgentProcess(pid, open(read_fd, "r")))
        deadline = time.monotonic() + startup_timeout
        for handle in handles:
            line = _handshake(handle.stdout.fileno(), deadline)
            if "listening on" not in line:
                raise RuntimeError(f"agent failed to start (last line: {line!r})")
            hosts.append(line.rsplit("listening on", 1)[1].strip())
    except BaseException:
        for handle in handles:
            handle.kill()
            handle.wait()
            handle.stdout.close()
        raise
    return handles, hosts
