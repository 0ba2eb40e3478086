"""Names, units and directions of every metric the benchmark reports.

Pure data: ``BENCHMARK.json`` repeats these declarations for the driver
and ``test_e2e_smoke.py`` checks that the two agree.  Every ``_s`` metric
is *host* seconds (what the simulator costs to run), never simulated time.
"""

from __future__ import annotations

#: (name, unit, better).  ``fail_ratio`` is printed beside these by the one
#: command but is not declared to the driver: it is 0 on a healthy tree, and
#: the driver's contract carries it as ``failed`` / ``attempted`` instead.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("units_per_s", "units/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better).  A ``<layer>.<x>_s`` metric is the inclusive host
#: time of that boundary per iteration (so ``fluid.waterfill_s`` is part of
#: ``fluid.xwi_step_s``), except ``*_self_s`` and the sums noted in
#: README.md.  A metric reads 0 on a workload that does not enter its layer.
PER_LAYER = (
    ("workloads.generate_s", "s", "lower"),
    ("workloads.arrivals", "count", "higher"),
    ("scenarios.build_topology_s", "s", "lower"),
    ("scenarios.materialize_s", "s", "lower"),
    ("scenarios.runner_self_s", "s", "lower"),
    ("scenarios.checkpoint_s", "s", "lower"),
    ("scenarios.checkpoints", "count", "lower"),
    ("scenarios.checkpoint_bytes", "bytes", "lower"),
    ("flow.run_self_s", "s", "lower"),
    ("flow.steps", "count", "lower"),
    ("flow.flow_set_changes", "count", "lower"),
    ("flow.completed", "count", "higher"),
    ("flow.rates_s", "s", "lower"),
    ("flow.rates_p50_us", "us", "lower"),
    ("flow.rates_p99_us", "us", "lower"),
    ("fluid.oracle_solve_s", "s", "lower"),
    ("fluid.oracle_solves", "count", "lower"),
    ("fluid.oracle_iters_p50", "count", "lower"),
    ("fluid.oracle_iters_p99", "count", "lower"),
    ("fluid.oracle_unconverged", "count", "lower"),
    ("fluid.oracle_solve_p50_us", "us", "lower"),
    ("fluid.oracle_solve_p99_us", "us", "lower"),
    ("fluid.oracle_cold_s", "s", "lower"),
    ("fluid.oracle_cold_solves", "count", "lower"),
    ("fluid.oracle_cold_iters_p50", "count", "lower"),
    ("fluid.xwi_step_s", "s", "lower"),
    ("fluid.xwi_steps", "count", "lower"),
    ("fluid.xwi_step_p50_us", "us", "lower"),
    ("fluid.xwi_step_p99_us", "us", "lower"),
    ("fluid.waterfill_s", "s", "lower"),
    ("fluid.waterfill_calls", "count", "lower"),
    ("fluid.refresh_s", "s", "lower"),
    ("fluid.refresh_calls", "count", "lower"),
    ("fluid.full_recompiles", "count", "lower"),
    ("fluid.converge_iters_p50", "count", "lower"),
    ("fluid.converge_iters_max", "count", "lower"),
    ("analysis.telemetry_s", "s", "lower"),
    ("analysis.observations", "count", "higher"),
    ("analysis.deviation_s", "s", "lower"),
    ("sim.build_s", "s", "lower"),
    ("sim.add_flow_s", "s", "lower"),
    ("sim.flows", "count", "higher"),
    ("sim.run_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.packets_dropped", "count", "lower"),
    ("sim.run_self_s", "s", "lower"),
    ("transports.endpoint_s", "s", "lower"),
    ("transports.acks", "count", "lower"),
    ("transports.data_packets", "count", "higher"),
    ("transports.controller_s", "s", "lower"),
    ("sweep.expand_s", "s", "lower"),
    ("sweep.key_s", "s", "lower"),
    ("sweep.serial_cells_per_s", "1/s", "higher"),
    ("sweep.sharded_cells_per_s", "1/s", "higher"),
    ("sweep.remote_cells_per_s", "1/s", "higher"),
    ("sweep.warm_cells_per_s", "1/s", "higher"),
    ("sweep.sharded_speedup", "ratio", "higher"),
    ("sweep.remote_speedup", "ratio", "higher"),
    ("sweep.cache_put_s", "s", "lower"),
    ("sweep.cache_get_s", "s", "lower"),
    ("sweep.cache_bytes", "bytes", "lower"),
    ("sweep.encode_s", "s", "lower"),
    ("sweep.decode_s", "s", "lower"),
    ("sweep.agent_spawn_s", "s", "lower"),
    ("sweep.cell_p50_ms", "ms", "lower"),
    ("sweep.cell_p95_ms", "ms", "lower"),
    ("sweep.retries", "count", "lower"),
    ("sweep.cells_failed", "count", "lower"),
    ("stream.vs_posthoc_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.root_self_share", "ratio", "lower"),
)

END_TO_END_NAMES = tuple(name for name, _, _ in END_TO_END)
PER_LAYER_NAMES = tuple(name for name, _, _ in PER_LAYER)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
