"""Remote-dispatch acceptance matrix over real processes and TCP.

Three scenarios, all on loopback with a driver plus two forked agents: a
clean run (bit-identical to serial), one agent SIGKILLed mid-sweep (the
survivor finishes, rows unchanged), and the driver SIGKILLed then resumed
(only non-cached cells recomputed).  Then the CLI front end of the same
configuration, ``python -m repro serve-sweep EXPR --local-agents N``.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.sweep import (
    AgentFaults,
    ResultCache,
    RetryPolicy,
    expand_grid,
    parse_sweep,
    run_sweep,
)
from repro.results import format_table
from repro.sweep.remote import spawn_local_agents

pytestmark = pytest.mark.remote_smoke

REPO_ROOT = Path(__file__).resolve().parents[2]
EXPRESSION = "fig4/single-link-churn scheme=numfabric,dctcp seed=0..1"
ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


def make_tasks():
    return expand_grid(parse_sweep(EXPRESSION))


@pytest.fixture(scope="module")
def serial_reference():
    return run_sweep(make_tasks(), mode="serial").aggregate("ref").rows


def start_agents(tmp_path, count, faults=None, workers=1):
    return spawn_local_agents(
        count,
        cache_dirs=[tmp_path / f"agent-{i}" for i in range(count)],
        workers=workers,
        faults=faults,
        env=ENV,
    )


def reap(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    for proc in procs:
        proc.wait(timeout=30)


class TestRemoteSmoke:
    def test_clean_loopback_run_matches_serial(self, tmp_path, serial_reference):
        procs, hosts = start_agents(tmp_path, 2, workers=2)
        try:
            report = run_sweep(
                make_tasks(),
                mode="remote",
                hosts=hosts,
                cache=ResultCache(tmp_path / "driver"),
            )
            assert report.stats["failed"] == 0
            assert report.aggregate("ref").rows == serial_reference
            assert sum(info["cells"] for info in report.hosts.values()) == len(
                make_tasks()
            )
        finally:
            reap(procs)

    def test_agent_sigkill_mid_sweep_changes_nothing(self, tmp_path, serial_reference):
        # Slow acks widen the window so the SIGKILL lands mid-sweep.
        slow = AgentFaults(slow_ack_on="all", slow_ack_seconds=0.5)
        procs, hosts = start_agents(tmp_path, 2, faults=[slow, slow], workers=2)
        try:
            import threading

            box = {}

            def drive():
                box["report"] = run_sweep(
                    make_tasks(),
                    mode="remote",
                    hosts=hosts,
                    cache=ResultCache(tmp_path / "driver"),
                    stall_timeout=2.0,
                    heartbeat_interval=0.2,
                    retry=RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.2),
                    connect_retry=RetryPolicy(
                        max_attempts=3, base_delay=0.1, max_delay=0.5
                    ),
                )

            driver = threading.Thread(target=drive, daemon=True)
            driver.start()
            time.sleep(1.5)  # agents are up and at least one cell is in flight
            procs[0].send_signal(signal.SIGKILL)
            driver.join(timeout=120)
            assert not driver.is_alive(), "remote sweep wedged after agent SIGKILL"
            report = box["report"]
            assert report.stats["failed"] == 0
            assert report.aggregate("ref").rows == serial_reference
        finally:
            reap(procs)

    def test_driver_sigkill_then_resume_recomputes_only_the_delta(
        self, tmp_path, serial_reference
    ):
        slow = AgentFaults(slow_ack_on="all", slow_ack_seconds=0.6)
        procs, hosts = start_agents(tmp_path, 2, faults=[slow, slow], workers=1)
        driver_cache = ResultCache(tmp_path / "driver")
        script = (
            "from repro.sweep import ResultCache, expand_grid, parse_sweep, run_sweep\n"
            f"tasks = expand_grid(parse_sweep({EXPRESSION!r}))\n"
            f"run_sweep(tasks, mode='remote', hosts={hosts!r},\n"
            f"          cache=ResultCache({str(tmp_path / 'driver')!r}))\n"
        )
        try:
            driver = subprocess.Popen(
                [sys.executable, "-c", script], cwd=REPO_ROOT, env=ENV
            )
            try:
                deadline = time.monotonic() + 90
                while len(driver_cache) < 1 and time.monotonic() < deadline:
                    assert driver.poll() is None, "sweep finished before the kill"
                    time.sleep(0.05)
                assert len(driver_cache) >= 1, "no cell was acked within 90s"
                driver.kill()  # SIGKILL: leases die with the driver
            finally:
                if driver.poll() is None:
                    driver.kill()
                driver.wait(timeout=30)

            cached_before = len(driver_cache)
            resumed = run_sweep(
                make_tasks(), mode="remote", hosts=hosts, cache=driver_cache
            )
            # Resume is crash-only bookkeeping: acked cells come from the
            # driver cache, never re-leased...
            assert resumed.stats["cached"] == cached_before >= 1
            assert (
                resumed.stats["computed"]
                == len(make_tasks()) - resumed.stats["cached"]
            )
            assert resumed.stats["failed"] == 0
            # ...and the final rows are exactly the serial rows.
            assert resumed.aggregate("ref").rows == serial_reference
        finally:
            reap(procs)


class TestServeSweepCli:
    def test_local_agents_match_serial_and_leave_no_agent_behind(
        self, tmp_path, serial_reference
    ):
        command = [sys.executable, "-m", "repro", "serve-sweep", EXPRESSION]
        command += ["--local-agents", "2", "--no-cache", "--rows", "0"]
        # Run from a scratch directory: the agents cache under ./.sweep-cache.
        done = subprocess.run(
            command, cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert format_table(serial_reference) in done.stdout
        spawned = re.search(r"spawned 2 loopback agent\(s\): (.*)", done.stdout)
        assert spawned, done.stdout
        pids = [int(pid) for pid in re.findall(r"\(pid (\d+)\)", spawned.group(1))]
        assert len(pids) == 2
        # Reaped before the command returned: not even a zombie is left.
        assert not [pid for pid in pids if Path(f"/proc/{pid}").exists()]
