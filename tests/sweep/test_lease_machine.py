"""The lease/retry/quarantine machine, driven deterministically.

No subprocess, no socket, no real clock: a :class:`Fleet` of in-memory fake
endpoints carries out the machine's actions and a hand-advanced ``now``
plays time.  Scripted scenarios pin each rule; a hypothesis state machine
then throws every event at it in every order -- grant, start, done, error,
stale and duplicate acks after reassignment, endpoint loss, lease expiry,
clock jumps, interrupt -- and checks the invariants after every step.
The subprocess suites (``test_executor_faults.py``, ``test_remote*.py``)
are the smoke layer on top.
"""

from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sweep.lease import DRAIN_TIMEOUT, LeaseMachine, RetryPolicy
from repro.sweep.transport import PROTOCOL_VERSION

pytestmark = pytest.mark.sweep_smoke

CODE = "the-source-tree"
RETRY = RetryPolicy(max_attempts=3, base_delay=0.5, max_delay=2.0, jitter=0.0)
CONNECT = RetryPolicy(max_attempts=3, base_delay=0.2, max_delay=1.0, jitter=0.0)


def make_tasks(count):
    return [
        SimpleNamespace(index=index, label=f"cell-{index}", spec=None, inject={})
        for index in range(count)
    ]


class Fleet:
    """Fake endpoints around one machine: executes actions, records history."""

    def __init__(self, cells=3, slots=None, **policy):
        self.slots = slots or {"a": 1, "b": 1}
        options = dict(
            keys={index: f"key-{index}" for index in range(cells)},
            code=CODE,
            retry=RETRY,
            connect_retry=CONNECT,
            timeout=None,
            lease_timeout=30.0,
            heartbeat_interval=0.5,
            stall_timeout=5.0,
            quarantine_hosts=2,
        )
        options.update(policy)
        self.machine = LeaseMachine(make_tasks(cells), list(self.slots), **options)
        self.now = 0.0
        self.up = set()  # endpoints whose link is open
        self.refuse = set()  # endpoints whose dial fails
        self.held = {name: {} for name in self.slots}  # name -> index -> task message
        self.zombies = {name: {} for name in self.slots}  # tasks whose lease ended unacked
        self.grants = []  # (name, index, attempt) of every task sent, in order
        self.cancels = []
        self.lines = []
        self.violations = []

    # -- action side --

    def perform(self, actions):
        for kind, name, *rest in actions:
            if kind == "progress":
                self.lines.append(name)
            elif kind == "open":
                if name in self.refuse:
                    self.perform(self.machine.on_lost(name, "connection refused", self.now))
                else:
                    self.up.add(name)
            elif kind == "close":
                self.up.discard(name)
                self.zombies[name].update(self.held[name])
                self.held[name].clear()
            elif kind == "send" and name in self.up:
                message = rest[0]
                if message["type"] == "task":
                    self._on_grant(name, message)
                elif message["type"] == "cancel":
                    self.cancels.append((name, message["index"]))
                    task = self.held[name].pop(message["index"], None)
                    if task is not None:
                        self.zombies[name][message["index"]] = task

    def _on_grant(self, name, message):
        index = message["index"]
        machine = self.machine
        holders = [e.name for e in machine.endpoints.values() if index in e.leases]
        if holders != [name]:
            self.violations.append(f"cell {index} leased on {holders} at once")
        if any(cell.task.index == index for cell in machine.pending):
            self.violations.append(f"cell {index} is pending and leased")
        if message["attempt"] > machine.retry.max_attempts:
            self.violations.append(f"cell {index} charged attempt {message['attempt']}")
        failed = machine.failed_on.get(index, set())
        live = [e.name for e in machine.endpoints.values() if e.state == "ready"]
        unfailed_live = [other for other in live if other not in failed]
        if name in failed and unfailed_live:
            self.violations.append(
                f"cell {index} went back to {name}, which failed it, while {unfailed_live} live"
            )
        self.held[name][index] = message
        self.zombies[name].pop(index, None)
        self.grants.append((name, index, message["attempt"]))

    # -- event side --

    def tick(self, dt=0.0, interrupted=False):
        self.now += dt
        self.perform(self.machine.tick(self.now, interrupted))

    def deliver(self, name, message):
        self.perform(self.machine.on_message(name, message, self.now))

    def hello(self, name, **overrides):
        hello = {"type": "hello", "proto": PROTOCOL_VERSION, "code": CODE}
        self.deliver(name, {**hello, "slots": self.slots[name], **overrides})

    def start(self, name, index):
        self.deliver(name, {"type": "start", "index": index, "attempt": 1})

    def done(self, name, index, **extra):
        self.held[name].pop(index, None)
        self.zombies[name].pop(index, None)
        done = {"type": "done", "index": index, "key": f"key-{index}", "elapsed": 0.1}
        self.deliver(name, {**done, "payload": {"cell": index, "by": name}, **extra})

    def error(self, name, index, kind="error"):
        self.held[name].pop(index, None)
        self.zombies[name].pop(index, None)
        error = {"type": "error", "kind": kind, "index": index, "exc_type": "Boom"}
        self.deliver(name, {**error, "message": "injected"})

    def lose(self, name):
        self.perform(self.machine.on_lost(name, "connection reset", self.now))

    def interrupt(self):
        """The signal arrives: the machine is told at once, not at the next tick."""
        self.machine.on_interrupt(self.now)

    def connect(self, *names):
        """Tick once (dials everything due) and hello the named endpoints."""
        self.tick()
        for name in names or self.slots:
            self.hello(name)
        self.tick()

    def holder(self, index):
        (name,) = [name for name, held in self.held.items() if index in held]
        return name


# -- scripted scenarios: one rule each ---------------------------------------


def test_clean_run_grants_least_loaded_and_resolves_every_cell_once():
    fleet = Fleet(cells=4, slots={"a": 2, "b": 2})
    fleet.connect()
    assert sorted(fleet.grants) == [("a", 0, 1), ("a", 2, 1), ("b", 1, 1), ("b", 3, 1)]
    for name, index, _ in list(fleet.grants):
        fleet.start(name, index)
        fleet.done(name, index)
    machine = fleet.machine
    assert machine.finished and not machine.failures
    payloads, failures, stats, attempts, hosts = machine.results()
    assert sorted(payloads) == [0, 1, 2, 3] and stats["computed"] == 4
    assert attempts == {0: 1, 1: 1, 2: 1, 3: 1}
    assert hosts["a"] == {"cells": 2, "runs": {0: 1, 2: 1}, "reconnects": 0}
    assert sum(": ok on " in line for line in fleet.lines) == 4
    assert fleet.machine.tick(fleet.now + 100.0) == []  # finished: nothing left to decide


def test_retry_waits_for_the_unfailed_hosts_slot():
    """The failed-host rule -- the scheduler bug behind the old 1-in-6 flake."""
    fleet = Fleet(cells=2)
    fleet.connect()
    assert fleet.holder(0) == "a" and fleet.holder(1) == "b"
    fleet.error("a", 0)  # cell 0 fails on a; b is busy with cell 1
    fleet.tick(RETRY.base_delay + 0.1)
    # a is idle and cell 0 is eligible, but a just failed it and b is alive:
    # the retry waits for b's slot instead of going straight back to a.
    assert fleet.grants == [("a", 0, 1), ("b", 1, 1)]
    fleet.done("b", 1)
    fleet.tick()
    assert fleet.grants[-1] == ("b", 0, 2)
    # A second distinct host failing it quarantines the cell early.
    fleet.error("b", 0)
    failure = fleet.machine.failures[0]
    assert failure.quarantined and failure.attempts == 2 < RETRY.max_attempts
    assert "distinct host" in failure.message and not fleet.violations


def test_retry_falls_back_to_a_failed_host_when_no_unfailed_host_is_live():
    fleet = Fleet(cells=1, quarantine_hosts=3)
    fleet.connect()
    assert fleet.holder(0) == "a"
    fleet.error("a", 0)
    fleet.lose("b")
    fleet.tick(RETRY.base_delay + 0.1)
    assert fleet.grants[-1] == ("a", 0, 2)


def test_endpoint_loss_requeues_for_free_but_a_worker_death_charges():
    fleet = Fleet(cells=1, slots={"a": 1})
    fleet.connect()
    fleet.lose("a")  # the host failed, not the cell
    assert fleet.machine.stats.get("retried", 0) == 0
    fleet.tick(1.0)
    fleet.hello("a")
    fleet.tick()
    assert fleet.grants == [("a", 0, 1), ("a", 0, 1)]  # same charged attempt number
    assert fleet.machine.stats["host_lost"] == 1 and fleet.machine.stats["reconnects"] == 1
    fleet.error("a", 0, kind="crash")  # a worker process died under the cell
    assert fleet.machine.stats["crash"] == 1 and fleet.machine.stats["retried"] == 1
    fleet.tick(RETRY.base_delay + 0.1)
    assert fleet.grants[-1] == ("a", 0, 2)
    fleet.done("a", 0)
    assert fleet.machine.attempts == {0: 3}  # dispatch count: free requeues included


def test_expired_lease_is_cancelled_charged_and_regranted():
    fleet = Fleet(cells=1, slots={"a": 1}, lease_timeout=2.0)
    fleet.connect()
    fleet.start("a", 0)
    for _ in range(3):  # heartbeats keep the host alive; the lease still ends
        fleet.tick(1.0)
        fleet.deliver("a", {"type": "heartbeat"})
    assert fleet.machine.stats["lease-expired"] == 1 and ("a", 0) in fleet.cancels
    assert not fleet.machine.failed_on  # expiry blames no host
    fleet.tick(RETRY.base_delay)
    assert fleet.grants[-1] == ("a", 0, 2)


def test_late_ack_from_a_superseded_lease_wins_once():
    fleet = Fleet(cells=1, timeout=1.0)
    fleet.connect()
    fleet.start("a", 0)
    fleet.tick(1.5)  # timed out on a: cancelled there, retried elsewhere
    fleet.tick(RETRY.base_delay)
    assert fleet.grants[-1] == ("b", 0, 2)
    fleet.start("b", 0)
    fleet.done("a", 0)  # the original holder answers after all: first ack wins
    assert fleet.machine.payloads[0]["by"] == "a"
    assert ("b", 0) in fleet.cancels  # the superseded run is cancelled
    fleet.done("b", 0)  # ...and its duplicate ack is ignored
    assert fleet.machine.payloads[0]["by"] == "a" and fleet.machine.stats["computed"] == 1


def test_stale_failure_report_charges_nothing():
    fleet = Fleet(cells=1, lease_timeout=2.0)
    fleet.connect()
    fleet.tick(1.5)
    fleet.hello("a"), fleet.hello("b")
    fleet.tick(1.0)  # lease expired: charged once, cancelled
    retried = fleet.machine.stats["retried"]
    fleet.error("a", 0)  # the cancelled run reports after its lease is over
    assert fleet.machine.stats["retried"] == retried and "error" not in fleet.machine.stats


def test_timeout_runs_from_the_start_ack_and_blames_the_host():
    fleet = Fleet(cells=1, timeout=3.0, retry=RetryPolicy(max_attempts=1))
    fleet.connect()
    fleet.tick(4.0)
    fleet.deliver("a", {"type": "heartbeat"})
    fleet.tick()
    assert not fleet.machine.failures  # no start ack yet: the clock has not begun
    fleet.start("a", 0)
    fleet.tick(3.5)
    assert fleet.machine.failures[0].kind == "timeout"
    assert fleet.machine.failed_on[0] == {"a"} and ("a", 0) in fleet.cancels


def test_silent_host_is_lost_redialled_with_backoff_then_written_off():
    fleet = Fleet(cells=1, slots={"a": 1})
    fleet.connect()
    fleet.refuse.add("a")
    fleet.tick(5.5)  # no message for longer than stall_timeout
    assert "a" not in fleet.up and fleet.machine.stats["host_lost"] == 1
    for _ in range(CONNECT.max_attempts):
        fleet.tick(1.5)
    assert fleet.machine.endpoints["a"].state == "written-off"
    assert fleet.machine.finished
    assert fleet.machine.failures[0].kind == "no-hosts"


@pytest.mark.parametrize("field, value", [("code", "another-tree"), ("proto", -1)])
def test_mismatched_hello_writes_the_host_off_at_once(field, value):
    fleet = Fleet(cells=1, slots={"a": 1})
    fleet.tick()
    fleet.hello("a", **{field: value})
    fleet.tick()
    assert fleet.machine.failures[0].kind == "no-hosts" and not fleet.grants


def test_interrupt_drains_in_flight_then_cancels_the_rest():
    fleet = Fleet(cells=3)
    fleet.connect()
    fleet.start("a", 0), fleet.start("b", 1)
    fleet.tick(0.1, interrupted=True)
    fleet.done("a", 0)  # finishes inside the drain window: kept
    fleet.error("b", 1)  # fails inside it: no retry, no verdict
    fleet.tick(0.1, interrupted=True)
    machine = fleet.machine
    assert machine.finished and sorted(machine.payloads) == [0]
    assert {i: f.kind for i, f in machine.failures.items()} == {1: "cancelled", 2: "cancelled"}
    assert len(fleet.grants) == 2  # nothing was granted after the interrupt


def test_interrupt_cancels_what_outlives_the_drain_window():
    fleet = Fleet(cells=1)
    fleet.connect()
    fleet.tick(0.1, interrupted=True)
    for _ in range(int(DRAIN_TIMEOUT) - 1):
        fleet.deliver("a", {"type": "heartbeat"})
        fleet.tick(1.0, interrupted=True)
    assert not fleet.machine.finished  # still inside the window: keep collecting acks
    fleet.tick(1.0, interrupted=True)
    assert fleet.machine.failures[0].kind == "cancelled" and ("a", 0) in fleet.cancels


def test_a_failure_between_the_signal_and_the_next_tick_ends_cancelled():
    # The gap the hypothesis model once found (a failure ack handled after
    # the signal but before the next tick was judged as usual, and a cell
    # on its last attempt was quarantined as "error").
    last_try = RetryPolicy(max_attempts=1, base_delay=0.5, max_delay=2.0, jitter=0.0)
    fleet = Fleet(cells=3, retry=last_try)
    fleet.connect()
    fleet.start("a", 0), fleet.start("b", 1)
    fleet.interrupt()
    fleet.error("a", 0)  # no retry, no verdict: it ends "cancelled"
    fleet.done("b", 1)  # an in-flight cell still finishes
    assert 0 not in fleet.machine.failures and fleet.machine.stats.get("quarantined", 0) == 0
    fleet.tick(0.05, interrupted=True)
    machine = fleet.machine
    assert machine.finished and sorted(machine.payloads) == [1]
    assert {i: f.kind for i, f in machine.failures.items()} == {0: "cancelled", 2: "cancelled"}
    assert len(fleet.grants) == 2 and not any("retrying" in line for line in fleet.lines)


def test_draining_agent_hands_queued_cells_back_and_says_bye():
    fleet = Fleet(cells=2, slots={"a": 2, "b": 1})
    fleet.connect()
    fleet.deliver("a", {"type": "requeue", "index": fleet.grants[0][1]})
    fleet.deliver("a", {"type": "bye"})
    assert fleet.machine.stats.get("retried", 0) == 0  # neither charged an attempt
    fleet.tick()
    assert fleet.grants[-1][0] == "b"


# -- the state machine: every event, any order -------------------------------

NAMES = st.sampled_from(["a", "b", "c"])


class LeaseMachineStates(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fleet = Fleet(cells=4, slots={"a": 1, "b": 2, "c": 1}, lease_timeout=8.0, timeout=6.0)
        self.fleet.connect()  # start with every slot leased: the busy fleet is the hard case
        self.first = {}  # index -> how it was first resolved
        self.interrupted_with = None

    def _task(self, data, table):
        options = [(name, index) for name, held in table.items() for index in held]
        return data.draw(st.sampled_from(options))

    @rule(dt=st.sampled_from([0.05, 0.6, 0.6, 3.0, 9.0, 1e4]))  # 0.6: one backoff step
    def tick(self, dt):
        self.fleet.tick(dt, interrupted=self.interrupted_with is not None)

    @rule(name=NAMES)
    def hello_or_heartbeat(self, name):
        if name in self.fleet.up:
            if self.fleet.machine.endpoints[name].state == "opening":
                self.fleet.hello(name)
            else:
                self.fleet.deliver(name, {"type": "heartbeat"})

    @precondition(lambda self: any(self.fleet.held.values()))
    @rule(data=st.data(), event=st.sampled_from(["start", "done", "requeue"]))
    def ack(self, data, event):
        name, index = self._task(data, self.fleet.held)
        if event == "requeue":
            self.fleet.held[name].pop(index)
            self.fleet.deliver(name, {"type": "requeue", "index": index})
        else:
            getattr(self.fleet, event)(name, index)

    @precondition(lambda self: any(self.fleet.held.values()))
    @rule(data=st.data(), kind=st.sampled_from(["error", "crash", "dead-worker", "bad-payload"]))
    def fail(self, data, kind):
        name, index = self._task(data, self.fleet.held)
        self.fleet.error(name, index, kind)

    @precondition(lambda self: any(self.fleet.zombies.values()))
    @rule(data=st.data(), event=st.sampled_from(["done", "error"]))
    def stale_ack(self, data, event):
        """An ack for a lease that already ended (expired, cancelled, host lost)."""
        name, index = self._task(data, self.fleet.zombies)
        if name in self.fleet.up:
            getattr(self.fleet, event)(name, index)

    @rule(name=NAMES, bye=st.booleans())
    def lose(self, name, bye):
        if name in self.fleet.up:
            if bye:
                self.fleet.deliver(name, {"type": "bye"})
            else:
                self.fleet.lose(name)

    @rule(name=NAMES)
    def flip_reachability(self, name):
        self.fleet.refuse ^= {name}

    @rule()
    def interrupt(self):
        if self.interrupted_with is None:
            self.interrupted_with = set(self.first)
            self.fleet.interrupt()

    @invariant()
    def no_rule_was_broken(self):
        assert not self.fleet.violations

    @invariant()
    def every_cell_resolves_exactly_once(self):
        machine = self.fleet.machine
        assert not set(machine.payloads) & set(machine.failures)
        for index, payload in machine.payloads.items():
            assert self.first.setdefault(index, ("done", payload["by"])) == ("done", payload["by"])
        for index, failure in machine.failures.items():
            assert self.first.setdefault(index, failure.kind) == failure.kind

    @invariant()
    def dispatch_counts_match_the_grants(self):
        counts = {}
        for _, index, _ in self.fleet.grants:
            counts[index] = counts.get(index, 0) + 1
        assert self.fleet.machine.attempts == counts

    @invariant()
    def charged_attempts_follow_the_announced_retries(self):
        # An attempt number only advances with a "retrying" line: endpoint
        # loss, requeue and bye never charge.
        for _, index, attempt in self.fleet.grants:
            retries = sum(line.startswith(f"retrying cell-{index} ") for line in self.fleet.lines)
            assert attempt <= 1 + retries
        for failure in self.fleet.machine.failures.values():
            assert failure.attempts <= RETRY.max_attempts

    @invariant()
    def an_interrupt_yields_only_done_or_cancelled(self):
        if self.interrupted_with is None:
            return
        for index, how in self.first.items():
            if index not in self.interrupted_with:
                assert how == "cancelled" or how[0] == "done"

    def teardown(self):
        """Liveness: with a cooperative fleet the sweep always finishes."""
        fleet = self.fleet
        fleet.refuse.clear()
        for _ in range(400):
            if fleet.machine.finished:
                break
            fleet.tick(0.3, interrupted=self.interrupted_with is not None)
            for name in list(fleet.up):
                if fleet.machine.endpoints[name].state == "opening":
                    fleet.hello(name)
                for index in list(fleet.held[name]):
                    fleet.done(name, index)
                fleet.deliver(name, {"type": "heartbeat"})
            self.every_cell_resolves_exactly_once()
        assert fleet.machine.finished, "the machine wedged"
        assert not fleet.violations


LeaseMachineStates.TestCase.settings = settings(
    max_examples=250, stateful_step_count=30, deadline=None
)
TestLeaseMachineStates = LeaseMachineStates.TestCase
