"""Remote dispatch over loopback TCP: parity, leases, faults, quarantine.

Agents run as in-process threads (each still forking real worker
processes), so every robustness path -- reconnect after a dropped
connection, dead-host detection under a partition, lease expiry and
reassignment, distinct-host quarantine, payload verification -- is
exercised against the real protocol without subprocess startup cost.
The subprocess/SIGKILL matrix lives in ``test_remote_smoke.py``.
"""

import dataclasses
import json
import pickle
import socket
import threading
import time

import pytest

from repro.sweep import (
    AgentFaults,
    ResultCache,
    RetryPolicy,
    SweepAgent,
    expand_grid,
    parse_sweep,
    run_sweep,
)
from repro.sweep.cache import code_fingerprint
from repro.sweep.executor import SweepExecutor
from repro.sweep.transport import PROTOCOL_VERSION, pack_blob

# The agents below are threads of the test process, so their pools fork
# workers from a multi-threaded process, which Python 3.12 warns about.  The
# worker takes no import lock after the fork (the pool imports what a cell
# needs first), and the CLI agent and driver fork with no other thread.
pytestmark = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded, use of fork:DeprecationWarning"
)

EXPRESSION = "fig4/single-link-churn scheme=numfabric,dctcp seed=0..1"
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.05, max_delay=0.2)


def make_tasks():
    return expand_grid(parse_sweep(EXPRESSION))


def with_inject(task, **inject):
    return dataclasses.replace(task, inject=inject)


class AgentHarness:
    """One in-process SweepAgent on a daemon thread, with clean teardown."""

    def __init__(self, cache_dir, *, workers=2, faults=None, name=None, **kwargs):
        self.agent = SweepAgent(
            "127.0.0.1",
            0,
            workers=workers,
            cache=cache_dir,
            faults=faults,
            name=name,
            **kwargs,
        )
        self._stop = threading.Event()
        self.thread = threading.Thread(
            target=self.agent.serve_forever,
            kwargs={"stop": self._stop.is_set},
            daemon=True,
        )
        self.thread.start()
        self.host = f"{self.agent.address[0]}:{self.agent.address[1]}"

    def stop(self):
        self._stop.set()
        self.thread.join(20)


@pytest.fixture
def agents(tmp_path):
    started = []

    def start(count=1, **kwargs):
        for i in range(len(started), len(started) + count):
            started.append(
                AgentHarness(tmp_path / f"agent-{i}", name=f"agent-{i}", **kwargs)
            )
        return started[-count:]

    yield start
    for harness in started:
        harness.stop()


@pytest.fixture(scope="module")
def serial_reference():
    return run_sweep(make_tasks(), mode="serial").aggregate("ref").rows


class TestLoopbackParity:
    def test_remote_matches_serial_and_rerun_is_all_cache(
        self, tmp_path, agents, serial_reference
    ):
        (a, b) = agents(2)
        tasks = make_tasks()
        driver_cache = ResultCache(tmp_path / "driver")
        report = run_sweep(
            tasks, mode="remote", hosts=[a.host, b.host], cache=driver_cache
        )
        assert report.stats["failed"] == 0
        assert report.aggregate("ref").rows == serial_reference
        # Observability: every computed cell has a dispatch count and the
        # per-host tallies cover all cells between them.
        assert set(report.attempts) == {task.index for task in tasks}
        assert all(count >= 1 for count in report.attempts.values())
        assert sum(info["cells"] for info in report.hosts.values()) == len(tasks)
        summary = "\n".join(report.summary_lines())
        assert "attempts:" in summary and "host " in summary

        # The driver re-cached every verified payload locally: the rerun is
        # pure cache, no agent involved.
        rerun = run_sweep(
            tasks, mode="remote", hosts=[a.host, b.host], cache=driver_cache
        )
        assert rerun.stats["cached"] == len(tasks)
        assert rerun.stats["computed"] == 0
        assert rerun.aggregate("ref").rows == serial_reference

    def test_agent_local_cache_answers_re_leased_cells(
        self, agents, serial_reference
    ):
        (a,) = agents(1)
        tasks = make_tasks()
        # No driver cache: the second sweep re-leases every cell, and the
        # agent answers all of them from its own cache without recomputing.
        first = run_sweep(tasks, mode="remote", hosts=[a.host], cache=None)
        assert first.stats["failed"] == 0
        second = run_sweep(tasks, mode="remote", hosts=[a.host], cache=None)
        assert second.stats["agent_cached"] == len(tasks)
        assert second.aggregate("ref").rows == serial_reference


class TestFaultHooks:
    def test_dropped_connection_reconnects_and_hits_agent_cache(
        self, agents, serial_reference
    ):
        (a,) = agents(1, faults=AgentFaults(drop_conn_on="all"))
        report = run_sweep(make_tasks(), mode="remote", hosts=[a.host], cache=None)
        # Every first ack was swallowed by a connection drop; the result was
        # already in the agent cache, so each re-lease was an instant hit.
        assert report.stats["failed"] == 0
        assert report.stats.get("reconnects", 0) >= 1
        assert report.stats.get("agent_cached", 0) >= 1
        assert report.aggregate("ref").rows == serial_reference
        assert report.hosts[a.host]["reconnects"] >= 1

    def test_partitioned_host_is_presumed_dead_and_cells_move(
        self, agents, serial_reference
    ):
        (a,) = agents(1, faults=AgentFaults(partition_on="all"), heartbeat_interval=0.2)
        (b,) = agents(1, heartbeat_interval=0.2)
        report = run_sweep(
            make_tasks(),
            mode="remote",
            hosts=[a.host, b.host],
            cache=None,
            heartbeat_interval=0.2,
            stall_timeout=1.0,
        )
        # The partitioned agent keeps its socket open but goes silent
        # (half-open); the stall detector declares it lost and its leases
        # are reassigned to the healthy host.
        assert report.stats["failed"] == 0
        assert report.stats.get("host_lost", 0) >= 1
        assert report.aggregate("ref").rows == serial_reference
        assert report.hosts[b.host]["cells"] >= 1

    def test_stalled_driver_hears_queued_heartbeats_before_judging(
        self, agents, serial_reference, monkeypatch
    ):
        # The *driver* freezes (suspended, swapped out) for longer than
        # stall_timeout while a healthy agent keeps heartbeating into the
        # socket buffer: on waking it must read those before its stall check,
        # or it writes a live host off for the driver's own silence.
        from repro.sweep import executor

        (a,) = agents(1, heartbeat_interval=0.1)
        real_wait, freezes, frozen = executor.wait_readable, [], []

        def freeze_once_the_host_is_ready(line):
            if "ready" in line and not frozen:
                freezes.append(1.5)

        def wait_then_freeze(waitables, timeout):
            ready = real_wait(waitables, timeout)
            if freezes:
                frozen.append(freezes.pop())
                time.sleep(frozen[-1])
            return ready

        monkeypatch.setattr(executor, "wait_readable", wait_then_freeze)
        report = run_sweep(
            make_tasks(),
            mode="remote",
            hosts=[a.host],
            cache=None,
            heartbeat_interval=0.1,
            stall_timeout=1.0,
            progress=freeze_once_the_host_is_ready,
        )
        assert frozen
        assert "host_lost" not in report.stats
        assert report.stats["failed"] == 0
        assert report.aggregate("ref").rows == serial_reference

    def test_expired_lease_is_reassigned_and_retry_succeeds(
        self, agents, serial_reference
    ):
        (a,) = agents(1)
        tasks = make_tasks()
        # First attempt of cell 0 hangs inside the worker; the lease expires,
        # the driver cancels it and the second attempt completes normally.
        tasks[0] = with_inject(tasks[0], hang_on=(1,))
        report = run_sweep(
            tasks,
            mode="remote",
            hosts=[a.host],
            cache=None,
            lease_timeout=2.0,
            retry=RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.2),
        )
        assert report.stats.get("lease-expired", 0) >= 1
        assert report.stats.get("retried", 0) >= 1
        assert report.stats["failed"] == 0
        assert report.aggregate("ref").rows == serial_reference
        assert report.attempts[0] >= 2

    def test_silently_hung_agent_worker_is_presumed_dead(self, agents):
        # The remote twin of the sharded test: the agent runs the same worker
        # pool, so a worker that stops heartbeating is reported by the agent
        # as a dead worker within stall_timeout -- not discovered by the
        # driver's (30 s default) lease expiry.
        (a,) = agents(1, heartbeat_interval=0.1, stall_timeout=0.8)
        tasks = make_tasks()
        tasks[3] = with_inject(tasks[3], silent_hang_on="all")
        started = time.monotonic()
        report = run_sweep(tasks, mode="remote", hosts=[a.host], cache=None, retry=FAST_RETRY)
        (failure,) = report.failures
        assert failure.index == 3
        assert failure.kind == "dead-worker"
        assert failure.quarantined
        assert report.stats["computed"] == len(tasks) - 1
        assert "lease-expired" not in report.stats
        assert time.monotonic() - started < 20.0

    def test_crashed_agent_worker_is_tallied_as_crash(self, agents, serial_reference):
        # Same pool, same verdict as sharded mode: a worker process that dies
        # under a cell is a ``crash`` (not an anonymous error), then retried.
        (a,) = agents(1)
        tasks = make_tasks()
        tasks[0] = with_inject(tasks[0], crash_on=(1,))
        report = run_sweep(
            tasks,
            mode="remote",
            hosts=[a.host],
            cache=None,
            retry=RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.2),
        )
        assert report.stats["crash"] == 1
        assert report.stats["retried"] == 1
        assert report.stats["failed"] == 0
        assert report.attempts[0] == 2
        assert report.aggregate("ref").rows == serial_reference

    def test_cell_failing_on_two_distinct_hosts_is_quarantined_early(self, agents):
        (a, b) = agents(2)
        tasks = make_tasks()
        tasks[1] = with_inject(tasks[1], raise_on="all", message="injected-boom")
        report = run_sweep(
            tasks,
            mode="remote",
            hosts=[a.host, b.host],
            cache=None,
            # Budget of 5 attempts, but two distinct hosts failing must
            # quarantine the cell first: the cell is broken, not the fleet.
            retry=RetryPolicy(max_attempts=5, base_delay=0.05, max_delay=0.2),
            quarantine_hosts=2,
        )
        (failure,) = report.failures
        assert failure.index == 1
        assert failure.quarantined
        assert failure.attempts == 2
        assert "distinct host" in failure.message
        assert report.stats["computed"] == len(tasks) - 1


class TestVerification:
    def test_code_mismatch_hosts_are_rejected(self, agents):
        (a,) = agents(1)
        tasks = make_tasks()
        executor = SweepExecutor(
            tasks,
            hosts=[a.host],
            keys={task.index: f"{task.index:064x}" for task in tasks},
            connect_retry=RetryPolicy(max_attempts=1, base_delay=0.05, max_delay=0.1),
        )
        executor.machine.code = "a-different-source-tree"
        payloads, failures, stats, attempts, hosts = executor.run()
        # The agent runs "different code": accepting its results would cache
        # them under the wrong keys, so the host is written off and the
        # sweep fails closed rather than silently mixing code versions.
        assert not payloads
        assert len(failures) == len(tasks)
        assert all(f.kind == "no-hosts" for f in failures.values())

    def test_corrupt_payload_reads_as_failure_not_data(self):
        # A hand-rolled "agent" that helloes correctly but acks every cell
        # with a well-hashed blob that is not a valid cache payload.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host = f"127.0.0.1:{listener.getsockname()[1]}"

        def evil_agent():
            conn, _ = listener.accept()
            reader = conn.makefile("rb")
            conn.sendall(
                (
                    json.dumps(
                        {
                            "type": "hello",
                            "proto": PROTOCOL_VERSION,
                            "agent": "evil",
                            "pid": 0,
                            "slots": 4,
                            "code": code_fingerprint(),
                        }
                    )
                    + "\n"
                ).encode()
            )
            blob = pack_blob(pickle.dumps({"not": "a cache payload"}))
            while True:
                line = reader.readline()
                if not line:
                    return
                message = json.loads(line)
                if message.get("type") != "task":
                    continue
                reply = {
                    "type": "done",
                    "index": message["index"],
                    "attempt": message["attempt"],
                    "key": message["key"],
                    "blob": blob,
                    "elapsed": 0.0,
                    "cached": False,
                    "agent": "evil",
                }
                conn.sendall((json.dumps(reply) + "\n").encode())

        thread = threading.Thread(target=evil_agent, daemon=True)
        thread.start()
        try:
            tasks = make_tasks()[:1]
            report = run_sweep(
                tasks, mode="remote", hosts=[host], cache=None, retry=FAST_RETRY
            )
            (failure,) = report.failures
            assert failure.kind == "bad-payload"
            assert failure.quarantined
            assert report.stats["bad-payload"] == FAST_RETRY.max_attempts
        finally:
            listener.close()


class TestAgentFaultsParse:
    def test_parses_indices_all_and_seconds(self):
        faults = AgentFaults.parse(
            ["drop_conn_on=0,3", "partition_on=all", "slow_ack_seconds=0.25"]
        )
        assert faults.drop_conn_on == (0, 3)
        assert faults.partition_on == "all"
        assert faults.slow_ack_seconds == 0.25

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault hook"):
            AgentFaults.parse(["explode_on=1"])
        with pytest.raises(ValueError, match="unknown fault hook"):
            AgentFaults.parse(["no-equals-sign"])
