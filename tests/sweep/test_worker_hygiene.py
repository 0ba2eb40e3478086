"""A forked worker drops what it inherits from its parent before it serves.

A pool worker is a ``fork`` of the driver or agent, so it starts with a copy
of the parent's signal handlers and descriptors.  Crash-only recovery needs
it to let go of them: a worker holding the parent's end of its own pipe
never sees EOF when the parent dies, one holding an agent's listening socket
keeps a dead agent's port accepting, and one running the parent's
``GracefulInterrupt`` handler turns ``terminate()`` into a flag.  Each test
below fails on a pool that forks without that hygiene.

A loopback agent (``spawn_local_agents``) is a fork of the driver too, and
owes the driver the same: none of its descriptors, none of its output on
the driver's streams, none of its ``atexit`` hooks, and a handle that
reaps like a ``Popen``.
"""

import atexit
import contextlib
import gc
import os
import signal
import socket
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from repro.sweep import GracefulInterrupt, expand_grid, parse_sweep, run_sweep
from repro.sweep.executor import WorkerPool
from repro.sweep.remote import spawn_local_agents
from repro.sweep.transport import SocketTransport, pack_pickle, parse_host, wait_readable

REPO_ROOT = Path(__file__).resolve().parents[2]
EXPRESSION = "fig4/single-link-churn scheme=numfabric,dctcp seed=0..1"
ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}

#: A driver that forks two workers, leaves them idle (each ran one cell) or
#: busy (each hangs inside a cell), prints their pids and waits to be killed.
DRIVER = """
import sys, time
from repro.sweep import expand_grid, parse_sweep
from repro.sweep.executor import WorkerPool

state, expression = sys.argv[1:]
pool = WorkerPool(2)
for task in expand_grid(parse_sweep(expression))[:2]:
    inject = {"hang_on": "all"} if state == "busy" else {}
    pool.send({"type": "task", "index": task.index, "attempt": 1, "spec": task.spec,
               "inject": inject})
awaited, seen, deadline = ("start" if state == "busy" else "done"), 0, time.monotonic() + 60
while seen < 2 and time.monotonic() < deadline:
    seen += sum(event["type"] == awaited for event in pool.poll())
    time.sleep(0.02)
print(*(worker.process.pid for worker in pool._workers), flush=True)
time.sleep(600)
"""


def make_tasks():
    return expand_grid(parse_sweep(EXPRESSION))


def task_message(task, **inject):
    return {"type": "task", "index": task.index, "attempt": 1, "spec": task.spec, "inject": inject}


def gone(pid: int) -> bool:
    """Has the process exited (reaped, or a zombie nobody reaped yet)?"""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def wait_gone(pids, seconds: float):
    """The pids still alive after up to ``seconds``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and not all(map(gone, pids)):
        time.sleep(0.02)
    return [pid for pid in pids if not gone(pid)]


def children(pid: int):
    """Pids whose parent is ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            with contextlib.suppress(OSError):
                stat = (entry / "stat").read_text()
                if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                    found.append(int(entry.name))
    return found


def kill_all(pids):
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)


def descriptors(pid: int):
    """``{fd: target}`` of a process, read from ``/proc/<pid>/fd``."""
    table = {}
    for entry in Path(f"/proc/{pid}/fd").iterdir():
        with contextlib.suppress(OSError):
            table[int(entry.name)] = os.readlink(entry)
    return table


def run_until(pool, awaited: str, count: int) -> None:
    seen, deadline = 0, time.monotonic() + 60
    while seen < count:
        assert time.monotonic() < deadline, f"no {count} {awaited!r} events within 60s"
        seen += sum(event["type"] == awaited for event in pool.poll())
        time.sleep(0.02)


@pytest.mark.sweep_smoke
class TestDriverDeath:
    @pytest.mark.parametrize("state", ["idle", "busy"])
    def test_driver_sigkill_takes_its_workers_along(self, state):
        driver = subprocess.Popen(
            [sys.executable, "-c", DRIVER, state, EXPRESSION],
            cwd=REPO_ROOT,
            env=ENV,
            stdout=subprocess.PIPE,
            text=True,
        )
        pids = []
        try:
            pids = [int(pid) for pid in driver.stdout.readline().split()]
            assert len(pids) == 2, "the driver did not report two workers"
            driver.kill()  # SIGKILL: no handler, no cleanup, no reaping
            driver.wait(timeout=30)
            # Each worker sees its pipe's EOF (idle) or a broken pipe under
            # its next heartbeat (busy), and exits on its own.
            survivors = wait_gone(pids, 2.0)
            assert not survivors, f"workers {survivors} outlived their driver by 2s"
        finally:
            if driver.poll() is None:
                driver.kill()
                driver.wait(timeout=30)
            driver.stdout.close()
            kill_all(pid for pid in pids if not gone(pid))


@pytest.mark.remote_smoke
class TestAgentDeath:
    def test_agent_sigkill_mid_cell_frees_its_port(self, tmp_path):
        (agent,), (host,) = spawn_local_agents(1, cache_dirs=[tmp_path], env=ENV)
        address = parse_host(host)
        workers = []
        try:
            link = SocketTransport(socket.create_connection(address, timeout=5.0))
            task = make_tasks()[0]
            message = task_message(task, hang_on="all")
            link.send({**message, "key": None, "spec": pack_pickle(task.spec)})
            deadline = time.monotonic() + 60
            while not any(reply["type"] == "start" for reply in link.recv_all()):
                assert time.monotonic() < deadline, "the agent never started the cell"
                wait_readable([link], timeout=0.1)
            workers = children(agent.pid)
            assert workers, "the agent forked no worker"
            agent.kill()  # SIGKILL mid-cell
            agent.wait(timeout=30)
            link.close()

            # Nothing listens on the port any more: the worker let go of the
            # agent's listening socket when it was forked.
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(address, timeout=5.0).close()
            # A replacement agent can bind it at once.
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as replacement:
                replacement.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                replacement.bind(address)
                replacement.listen(1)
            assert not wait_gone(workers, 2.0), "the worker outlived its agent by 2s"
        finally:
            if agent.poll() is None:
                agent.kill()
                agent.wait(timeout=30)
            agent.stdout.close()
            kill_all(pid for pid in workers if not gone(pid))


@pytest.mark.sweep_smoke
class TestWorkerState:
    @pytest.mark.parametrize("interrupt", [False, True], ids=["plain", "graceful-interrupt"])
    def test_reaping_an_idle_worker_needs_no_kill(self, interrupt):
        # Inside a GracefulInterrupt the worker is forked with its handler
        # installed; it must still die of the pool's SIGTERM.
        guard = GracefulInterrupt(on_first="flag") if interrupt else contextlib.nullcontext()
        with guard:
            pool = WorkerPool(1)
            try:
                pool.send(task_message(make_tasks()[0]))
                run_until(pool, "done", 1)
                (worker,) = pool._workers
                started = time.monotonic()
                pool._reap(worker)
                elapsed = time.monotonic() - started
            finally:
                pool.close()
        assert worker.process.exitcode == -signal.SIGTERM  # not the SIGKILL fallback
        assert elapsed < 0.25

    def test_a_worker_holds_stdio_and_its_own_pipe_end_only(self):
        # A listening socket stands in for an agent's.
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            pool = WorkerPool(2)
            try:
                for task in make_tasks()[:2]:
                    pool.send(task_message(task))
                run_until(pool, "done", 2)
                ours = set(descriptors(os.getpid()).values())
                tables = {w.process.pid: descriptors(w.process.pid) for w in pool._workers}
            finally:
                pool.close()
        assert len(tables) == 2
        for pid, table in tables.items():
            held = {fd: target for fd, target in table.items() if fd > 2}
            kept = {target for target in held.values() if target != os.devnull}
            sockets = {target for target in kept if target.startswith("socket:")}
            pipes = {target for target in kept if target.startswith("pipe:")}
            sibling = set().union(*(t.values() for p, t in tables.items() if p != pid))
            # Its own end of its pipe: one socket, none of the parent's.
            assert len(sockets) == 1 and not sockets & ours, held
            # multiprocessing's start/exit sentinel pair for this worker,
            # shared with no sibling.
            assert len(pipes) <= 2 and not pipes & sibling, held
            assert kept == sockets | pipes, held


    def test_a_worker_never_finalizes_the_drivers_garbage(self, tmp_path):
        """Packet runs collect before they build, and a worker is a fork of
        the driver: unless it freezes the heap it inherits, that collection
        finalizes the driver's uncollected cycles in the worker's pid.  A
        finalizer such as ``TemporaryDirectory``'s would delete the
        driver's files."""
        marker, driver = tmp_path / "marker", os.getpid()

        def hook():  # (it runs in the driver when the test collects: a no-op there)
            if os.getpid() != driver:
                marker.write_text(f"finalizer ran in {os.getpid()}")

        class Cycle:
            pass

        enabled = gc.isenabled()
        gc.disable()
        try:
            garbage = Cycle()
            garbage.self = garbage
            finalizer = weakref.finalize(garbage, hook)
            del garbage  # only a collection can free it now
            tasks = expand_grid(parse_sweep("fig7/dumbbell-fct seed=1..2"))
            report = run_sweep(tasks, mode="sharded", workers=1)
        finally:
            if enabled:
                gc.enable()
            gc.collect()
        assert not report.failures and len(report.results) == 2
        assert not finalizer.alive  # it did run once, in the driver
        assert not marker.exists(), marker.read_text()


def receive_until(link, kind: str):
    """Messages from ``link`` up to and including the first of type ``kind``."""
    received, deadline = [], time.monotonic() + 60
    while not any(message["type"] == kind for message in received):
        assert time.monotonic() < deadline, f"no {kind!r} within 60s (got {received})"
        wait_readable([link], timeout=0.1)
        received += link.recv_all()
    return received


def stop(agent) -> None:
    if agent.poll() is None:
        agent.kill()
    agent.wait(timeout=30)
    agent.stdout.close()


@pytest.mark.remote_smoke
class TestForkedAgent:
    def test_a_forked_agent_holds_none_of_the_drivers_descriptors(self, tmp_path):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener, open(
            tmp_path / "driver.log", "w"
        ) as log:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            ours = descriptors(os.getpid())
            driver_only = {ours[listener.fileno()], ours[log.fileno()]}
            (agent,), _ = spawn_local_agents(1, cache_dirs=[tmp_path / "agent"])
            try:
                held = set(descriptors(agent.pid).values())
            finally:
                stop(agent)
        assert str(tmp_path / "driver.log") in driver_only
        assert any(target.startswith("socket:") for target in held)  # its own listener
        assert not held & driver_only, held & driver_only

    def test_terminate_drains_says_bye_and_talks_only_into_its_pipe(self, tmp_path, capfd):
        (agent,), (host,) = spawn_local_agents(1, cache_dirs=[tmp_path])
        try:
            link = SocketTransport(socket.create_connection(parse_host(host), timeout=5.0))
            receive_until(link, "hello")
            agent.terminate()
            receive_until(link, "bye")
            link.close()
            assert agent.wait(timeout=30) == 0
            output = agent.stdout.read()
        finally:
            stop(agent)
        assert "SIGTERM: finishing gracefully" in output
        assert "finishing gracefully" not in capfd.readouterr().err

    def test_terminate_wakes_the_agent_without_waiting_out_a_tick(self, tmp_path, monkeypatch):
        """The agent's wait set holds a self-pipe its signal handler writes
        to: with the selector tick stretched to 5 s (the fork inherits the
        patch), the drain still starts as SIGTERM arrives."""
        monkeypatch.setattr("repro.sweep.remote.TICK", 5.0)
        (agent,), _ = spawn_local_agents(1, cache_dirs=[tmp_path])
        try:
            time.sleep(0.2)  # well inside the agent's first 5 s wait
            agent.terminate()
            assert agent.wait(timeout=2) == 0
        finally:
            stop(agent)

    def test_the_drivers_atexit_hooks_do_not_run_in_the_agent(self, tmp_path):
        marker, driver = tmp_path / "marker", os.getpid()

        def hook():  # (it also runs when the test process exits: a no-op there)
            if os.getpid() != driver:
                marker.write_text(f"atexit ran in {os.getpid()}")

        atexit.register(hook)
        try:
            (agent,), _ = spawn_local_agents(1, cache_dirs=[tmp_path / "agent"])
            agent.terminate()
            assert agent.wait(timeout=30) == 0
            stop(agent)
        finally:
            atexit.unregister(hook)
        assert not marker.exists(), marker.read_text()

    def test_wait_times_out_on_a_live_agent_and_reaps_a_dead_one(self, tmp_path):
        (agent,), _ = spawn_local_agents(1, cache_dirs=[tmp_path])
        try:
            with pytest.raises(subprocess.TimeoutExpired):
                agent.wait(timeout=0.2)
            assert agent.poll() is None
            agent.kill()
            assert agent.wait(timeout=30) == -signal.SIGKILL
            assert agent.poll() == -signal.SIGKILL
            assert not Path(f"/proc/{agent.pid}").exists(), "the agent was left a zombie"
        finally:
            stop(agent)
