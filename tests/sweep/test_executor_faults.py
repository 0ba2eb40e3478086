"""Sweep-fabric fault matrix: crash, hang, raise, kill -9, interrupt.

Every test drives real worker processes (or a real subprocess for the
``kill -9`` case) over the fast ``fig4/single-link-churn`` scenario, with
faults injected deterministically through ``SweepTask.inject`` -- the
acceptance criteria of the sweep fabric, exercised end to end.
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.sweep import ResultCache, RetryPolicy, expand_grid, parse_sweep, run_sweep

pytestmark = pytest.mark.sweep_smoke

REPO_ROOT = Path(__file__).resolve().parents[2]
EXPRESSION = "fig4/single-link-churn scheme=numfabric,dctcp seed=0..1"
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.05, max_delay=0.2)


def make_tasks():
    return expand_grid(parse_sweep(EXPRESSION))


def with_inject(task, **inject):
    return dataclasses.replace(task, inject=inject)


@pytest.fixture(scope="module")
def serial_reference():
    """The uninterrupted in-process aggregate every sharded run must match."""
    return run_sweep(make_tasks(), mode="serial").aggregate("ref").rows


class TestShardedParityAndCache:
    def test_sharded_matches_serial_and_rerun_is_all_cache(
        self, tmp_path, serial_reference
    ):
        tasks = make_tasks()
        report = run_sweep(tasks, mode="sharded", cache=ResultCache(tmp_path), workers=2)
        assert report.stats["failed"] == 0
        assert report.aggregate("ref").rows == serial_reference

        rerun = run_sweep(tasks, mode="sharded", cache=ResultCache(tmp_path), workers=2)
        assert rerun.stats["cached"] == len(tasks)
        assert rerun.stats["computed"] == 0
        assert rerun.aggregate("ref").rows == serial_reference

    def test_serial_rerun_reads_sharded_cache(self, tmp_path, serial_reference):
        # The cache is mode-agnostic: cells computed by workers are hits for
        # a later serial run and vice versa.
        tasks = make_tasks()
        run_sweep(tasks, mode="sharded", cache=ResultCache(tmp_path), workers=2)
        rerun = run_sweep(tasks, mode="serial", cache=ResultCache(tmp_path))
        assert rerun.stats["cached"] == len(tasks)
        assert rerun.aggregate("ref").rows == serial_reference


class TestInjectedFaults:
    def test_crashed_worker_retries_and_succeeds(self, serial_reference):
        tasks = make_tasks()
        tasks[0] = with_inject(tasks[0], crash_on=(1,))
        report = run_sweep(
            tasks,
            mode="sharded",
            workers=2,
            retry=RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.2),
        )
        assert report.stats["crash"] == 1
        assert report.stats["retried"] == 1
        assert report.stats["failed"] == 0
        assert report.aggregate("ref").rows == serial_reference
        # Observability: the retry that succeeded is visible as a second
        # dispatch of cell 0, and the backoff it waited through is summed.
        assert report.attempts[0] == 2
        assert all(report.attempts[task.index] == 1 for task in tasks[1:])
        assert report.stats["backoff_seconds"] > 0
        assert "attempts:" in "\n".join(report.summary_lines())

    def test_hung_task_times_out_then_quarantines(self):
        tasks = make_tasks()
        tasks[1] = with_inject(tasks[1], hang_on="all")
        report = run_sweep(
            tasks, mode="sharded", workers=2, timeout=1.5, retry=FAST_RETRY
        )
        (failure,) = report.failures
        assert failure.index == 1
        assert failure.kind == "timeout"
        assert failure.quarantined
        assert failure.attempts == FAST_RETRY.max_attempts
        # Graceful degradation: every other cell still returned.
        assert report.stats["computed"] == len(tasks) - 1
        rows = report.aggregate("deg").rows
        assert sum(1 for row in rows if row.get("status") == "failed") == 1

    def test_raising_task_quarantined_with_traceback(self):
        tasks = make_tasks()
        tasks[2] = with_inject(tasks[2], raise_on="all", message="injected-boom")
        report = run_sweep(tasks, mode="sharded", workers=2, retry=FAST_RETRY)
        (failure,) = report.failures
        assert failure.index == 2
        assert failure.kind == "error"
        assert failure.quarantined
        assert "injected-boom" in failure.message
        assert "RuntimeError" in failure.traceback
        assert report.stats["computed"] == len(tasks) - 1

    def test_silently_hung_worker_is_presumed_dead(self):
        tasks = make_tasks()
        tasks[3] = with_inject(tasks[3], silent_hang_on="all")
        report = run_sweep(
            tasks,
            mode="sharded",
            workers=2,
            heartbeat_interval=0.1,
            stall_timeout=0.8,
            retry=FAST_RETRY,
        )
        (failure,) = report.failures
        assert failure.index == 3
        assert failure.kind == "dead-worker"
        assert failure.quarantined
        assert report.stats["computed"] == len(tasks) - 1


class TestFirstContactDeath:
    """A worker that connects but dies or wedges before its first start ack.

    Regression tests for the spawn-timeout edge: heartbeats (or the hello)
    keep the stall detector happy, so these cases previously surfaced only
    after ``timeout + stall_timeout`` -- and with ``timeout=None``, never.
    """

    def _run_guarded(self, executor, wall_limit=90.0):
        import threading

        box = {}

        def run():
            box["out"] = executor.run()

        thread = threading.Thread(target=run, daemon=True)
        started = time.monotonic()
        thread.start()
        thread.join(wall_limit)
        assert not thread.is_alive(), "executor wedged on a pre-start fault"
        return box["out"], time.monotonic() - started

    def test_wedged_pre_start_worker_is_killed_promptly_without_timeout(self):
        from repro.sweep.executor import SweepExecutor

        executor = SweepExecutor(
            make_tasks(),
            workers=1,
            timeout=None,  # the previously-undetectable configuration
            heartbeat_interval=0.1,
            stall_timeout=5.0,
            spawn_timeout=2.0,
            start_ack_timeout=1.0,
            retry=RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.2),
            worker_faults={"wedge_before_start": (0,)},
        )
        (payloads, failures, stats, attempts, _), elapsed = self._run_guarded(executor)
        # Worker 0 took the task and wedged while its heartbeats kept
        # flowing; the start-ack deadline killed it and the retry succeeded.
        assert stats["dead-worker"] == 1
        assert not failures
        assert len(payloads) == len(make_tasks())
        assert attempts[0] == 2
        assert elapsed < 60.0

    def test_worker_dying_right_after_hello_fails_fast_not_at_stall(self):
        from repro.sweep.executor import SweepExecutor

        executor = SweepExecutor(
            make_tasks(),
            workers=1,
            heartbeat_interval=0.1,
            stall_timeout=30.0,  # far beyond the asserted wall-clock bound
            retry=RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.2),
            worker_faults={"die_after_hello": (0,)},
        )
        (payloads, failures, stats, attempts, _), elapsed = self._run_guarded(executor)
        # Death is detected from the pipe EOF, not by waiting out the
        # 30-second stall detector.
        assert stats["crash"] == 1
        assert not failures
        assert len(payloads) == len(make_tasks())
        assert elapsed < 25.0


class TestCrashOnlyResume:
    def test_kill9_mid_sweep_then_resume_from_cache(self, tmp_path, serial_reference):
        """The acceptance scenario: SIGKILL the driver, rerun, pay only the delta."""
        script = (
            "import sys, time\n"
            "from repro.sweep import ResultCache, expand_grid, parse_sweep, run_sweep\n"
            f"tasks = expand_grid(parse_sweep({EXPRESSION!r}))\n"
            # Throttle between cells so the kill lands mid-sweep, never after.
            "slow = lambda message: time.sleep(0.5)\n"
            f"run_sweep(tasks, mode='serial', cache=ResultCache({str(tmp_path)!r}),\n"
            "          progress=slow)\n"
        )
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        try:
            cache = ResultCache(tmp_path)
            deadline = time.monotonic() + 60
            while len(cache) < 1 and time.monotonic() < deadline:
                assert process.poll() is None, "sweep finished before it was killed"
                time.sleep(0.05)
            assert len(cache) >= 1, "no cache entry appeared within 60s"
            process.kill()  # SIGKILL: no handlers, no cleanup, crash-only
        finally:
            if process.poll() is None:
                process.kill()
            process.wait(timeout=30)

        tasks = make_tasks()
        resumed = run_sweep(tasks, mode="serial", cache=ResultCache(tmp_path))
        assert resumed.stats["cached"] >= 1
        assert resumed.stats["computed"] == len(tasks) - resumed.stats["cached"]
        assert resumed.stats["failed"] == 0
        assert resumed.aggregate("ref").rows == serial_reference


class TestInterrupt:
    def test_interrupt_flag_cancels_remaining_cells(self):
        class FakeInterrupt:
            requested = False

        interrupt = FakeInterrupt()

        def request_after_first(message):
            interrupt.requested = True

        tasks = make_tasks()
        report = run_sweep(
            tasks, mode="serial", interrupt=interrupt, progress=request_after_first
        )
        assert report.stats["computed"] == 1
        assert report.stats["cancelled"] == len(tasks) - 1
        assert all(failure.kind == "cancelled" for failure in report.failures)
        rows = report.aggregate("cancelled").rows
        assert sum(1 for row in rows if row.get("status") == "cancelled") == len(tasks) - 1

    def test_interrupt_drains_in_flight_cells_then_cancels_the_rest(self):
        # One interrupt rule for every mode: stop granting, let in-flight
        # cells finish and report them, cancel what never started.
        class FakeInterrupt:
            requested = False

        interrupt = FakeInterrupt()

        def request_after_first(message):
            if ": ok" in message:
                interrupt.requested = True

        tasks = make_tasks()
        report = run_sweep(
            tasks, mode="sharded", workers=2, interrupt=interrupt, progress=request_after_first
        )
        # Both workers had a cell when the first one finished; the second is
        # drained and reported, not killed and forgotten.
        assert report.stats["computed"] == 2
        assert report.stats["cancelled"] == len(tasks) - 2
        assert all(failure.kind == "cancelled" for failure in report.failures)
