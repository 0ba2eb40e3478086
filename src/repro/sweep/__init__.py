"""The fault-tolerant sweep fabric: grids, caching, leased execution.

The paper's claims are sweeps over loads x schemes x seeds; this package
makes such sweeps a first-class, crash-only primitive:

* :mod:`repro.sweep.grid` expands ``'fig5/websearch load=0.3:0.9:0.1
  scheme=numfabric,dctcp seed=0..9'`` into ``(spec, engine, seed)`` tasks;
* :mod:`repro.sweep.cache` memoizes each cell under a content address
  (spec + engine + seed + code fingerprint) so reruns compute only deltas;
* :mod:`repro.sweep.lease` is the one lease/retry/quarantine machine:
  attempts, expiry, backoff, dead hosts, reconnects and distinct-host
  quarantine as pure decisions (events in, actions out);
* :mod:`repro.sweep.executor` carries them out: the worker pool (spawn,
  heartbeat-based dead-worker detection, kill, reap) and the selector loop
  that leases cells to it or to dialled agents;
* :mod:`repro.sweep.transport` abstracts the wire (worker pipes and
  line-delimited JSON over TCP) behind one send/recv_all interface;
* :mod:`repro.sweep.remote` is the agent (``python -m repro agent``): the
  same pool behind a TCP socket, its local cache the source of truth;
* :mod:`repro.sweep.driver` aggregates everything back into one
  :class:`~repro.results.ExperimentResult`, with a serial mode kept as the
  bit-identical parity reference.

Entry points: :func:`run_sweep` (and ``python -m repro sweep`` /
``python -m repro serve-sweep`` on the command line).  Grid expansion is
pure and cheap, so it doubles as the dry-run check for a sweep
expression:

>>> grid = parse_sweep('fig5/websearch load=0.4,0.8 seed=0..2')
>>> [(axis, len(values)) for axis, values in grid.axes]
[('load', 2), ('seed', 3)]
>>> tasks = expand_grid(grid)
>>> len(tasks)
6
>>> parse_sweep('fig5/websearch bogus_axis=1')
Traceback (most recent call last):
    ...
ValueError: unknown axis 'bogus_axis' ...

Every task is content-addressed by the canonicalized spec plus a code
fingerprint, so identical cells are computed once:

>>> key = task_key(tasks[0].spec, tasks[0].engine, tasks[0].seed, code="demo")
>>> len(key), key == task_key(tasks[0].spec, tasks[0].engine,
...                           tasks[0].seed, code="demo")
(64, True)
"""

from repro.sweep.cache import (
    CACHE_VERSION,
    DEFAULT_CACHE_DIR,
    ResultCache,
    canonicalize,
    code_fingerprint,
    decode_result,
    encode_result,
    spec_fingerprint,
    task_key,
)
from repro.sweep.driver import MODES, SweepReport, aggregate_report, run_sweep
from repro.sweep.executor import SweepExecutor
from repro.sweep.grid import (
    SweepGrid,
    SweepTask,
    canonical_scheme,
    expand_grid,
    parse_sweep,
    tasks_from_specs,
)
from repro.sweep.lease import RetryPolicy, SweepFailure
from repro.sweep.remote import AgentFaults, SweepAgent, spawn_local_agents
from repro.sweep.signals import GracefulInterrupt, SweepInterrupted
from repro.sweep.transport import (
    PROTOCOL_VERSION,
    PipeTransport,
    ProtocolError,
    SocketTransport,
    TransportClosed,
    parse_host,
    wait_readable,
)

__all__ = [
    "AgentFaults",
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "GracefulInterrupt",
    "MODES",
    "PROTOCOL_VERSION",
    "PipeTransport",
    "ProtocolError",
    "ResultCache",
    "RetryPolicy",
    "SocketTransport",
    "SweepAgent",
    "SweepExecutor",
    "SweepFailure",
    "SweepGrid",
    "SweepInterrupted",
    "SweepReport",
    "SweepTask",
    "TransportClosed",
    "aggregate_report",
    "canonical_scheme",
    "canonicalize",
    "code_fingerprint",
    "decode_result",
    "encode_result",
    "expand_grid",
    "parse_host",
    "parse_sweep",
    "run_sweep",
    "spawn_local_agents",
    "spec_fingerprint",
    "task_key",
    "tasks_from_specs",
    "wait_readable",
]
