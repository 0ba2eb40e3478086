"""Smoke test for the perf harness: tiny sizes, asserts structure not speed.

Keeps tier-1 fast while guaranteeing ``run_bench.py`` stays importable and
runnable; the full (unmarked) benchmark run is a manual/periodic activity:

    PYTHONPATH=src python benchmarks/perf/run_bench.py

Every fluid scheme (xWI, DGD, RCP*, DCTCP) and the compiled max-min get a
smoke case, so tier-1 exercises each against its scalar reference end to
end and the harness's own parity enforcement (``enforce_parity``) runs on
every CI pass.  Deselect with ``-m "not perf_smoke"`` if even the ~1 s smoke run is
too much.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run_bench


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_fluid.json"
    results = run_bench.main(["--smoke", "--out", str(out)])
    return results, json.loads(out.read_text())


@pytest.mark.perf_smoke
def test_run_bench_smoke_mode(smoke_results):
    results, written = smoke_results
    assert written["meta"]["smoke"] is True
    assert [row["flows"] for row in written["xwi"]] == [20, 50]
    for row in results["xwi"]:
        # Backends must agree; speed is asserted only at full scale.
        assert row["max_rel_rate_diff"] < run_bench.PARITY_TOLERANCE
        assert row["scalar_seconds"] > 0 and row["vectorized_seconds"] > 0


@pytest.mark.perf_smoke
@pytest.mark.parametrize("scheme", sorted(run_bench.SCHEME_SIMULATORS))
def test_smoke_covers_scheme(smoke_results, scheme):
    """One smoke case per vectorized scheme: present, timed, parity-clean."""
    results, written = smoke_results
    rows = results["schemes"][scheme]
    assert [row["flows"] for row in rows] == [20, 50]
    for row in rows:
        assert row["max_rel_rate_diff"] < run_bench.PARITY_TOLERANCE
        assert row["scalar_seconds"] > 0 and row["vectorized_seconds"] > 0
    assert written["schemes"][scheme] == rows


@pytest.mark.perf_smoke
def test_smoke_covers_oracle(smoke_results):
    """The Oracle pair is present, timed, and parity-clean at its gate."""
    results, written = smoke_results
    rows = results["oracle"]
    assert [row["flows"] for row in rows] == [20, 50]
    for row in rows:
        assert row["max_rel_rate_diff"] < run_bench.ORACLE_PARITY_TOLERANCE
        assert row["scalar_seconds"] > 0 and row["vectorized_seconds"] > 0
    assert written["oracle"] == rows


@pytest.mark.perf_smoke
def test_smoke_covers_persistent_oracle(smoke_results):
    """The persistent dual solver churn row: present, timed, within 1e-6,
    every answer certified."""
    results, written = smoke_results
    rows = results["oracle_persistent"]
    assert [row["flows"] for row in rows] == [50]
    for row in rows:
        assert row["max_rel_rate_diff"] < run_bench.ORACLE_PARITY_TOLERANCE
        assert row["cold_seconds"] > 0 and row["persistent_seconds"] > 0
        assert row["events"] > 0
        assert row["warm_iterations"] > 0
        assert 0.0 <= row["worst_certificate"] <= run_bench.CERTIFIED
    assert written["oracle_persistent"] == rows


@pytest.mark.perf_smoke
def test_smoke_covers_incremental_incidence(smoke_results):
    """Incremental refresh must match a full recompile on the churn trace."""
    results, written = smoke_results
    rows = results["incidence"]
    assert [row["flows"] for row in rows] == [50]
    for row in rows:
        assert row["identical"] is True
        assert row["full_seconds"] > 0 and row["incremental_seconds"] > 0
    assert written["incidence"] == rows


@pytest.mark.perf_smoke
def test_smoke_covers_batched_waterfill(smoke_results):
    """Batched waterfill: parity-clean, round count tracks distinct levels."""
    results, written = smoke_results
    rows = results["waterfill"]
    assert [row["flows"] for row in rows] == [20, 50]
    for row in rows:
        assert row["max_rel_rate_diff"] < run_bench.PARITY_TOLERANCE
        assert row["single_seconds"] > 0 and row["batched_seconds"] > 0
        # The acceptance contract: batched rounds are bounded by the number
        # of distinct bottleneck levels, which in turn bounds (from below)
        # what the one-bottleneck-per-round schedule pays.
        assert row["rounds_batched"] <= row["distinct_levels"] <= row["rounds_single"]
    assert written["waterfill"] == rows


@pytest.mark.perf_smoke
def test_smoke_covers_flow_level(smoke_results):
    """Dict vs array flow-level stepping: identical completions, both timed."""
    results, written = smoke_results
    rows = results["flow_level"]
    assert [row["flows"] for row in rows] == [100]
    for row in rows:
        assert row["completed"] == row["flows"]
        assert row["max_rel_fct_diff"] < run_bench.PARITY_TOLERANCE
        assert row["dict_seconds"] > 0 and row["array_seconds"] > 0
    assert written["flow_level"] == rows
    # The fig5 paper-scale run is full-mode only.
    assert "fig5_paper_scale" not in written


@pytest.mark.perf_smoke
def test_smoke_covers_streaming_replay(smoke_results):
    """Streaming vs post-hoc replay: all flows complete, quantiles within
    the 1% gate, both subprocess sides timed and RSS-sampled."""
    results, written = smoke_results
    row = results["streaming_replay"]
    assert row["completed"] == row["flows"]
    assert row["max_rel_quantile_diff"] < run_bench.STREAMING_PARITY_TOLERANCE
    assert row["streaming_seconds"] > 0 and row["posthoc_seconds"] > 0
    assert row["streaming_maxrss_kb"] > 0 and row["posthoc_maxrss_kb"] > 0
    assert row["utilization_windows"] > 0
    assert written["streaming_replay"] == row


@pytest.mark.perf_smoke
def test_parity_enforcement_covers_streaming_replay():
    base = _empty_results(
        streaming_replay={
            "flows": 1500,
            "max_rel_quantile_diff": 0.05,
            "streaming_maxrss_kb": 1,
            "posthoc_maxrss_kb": 2,
        }
    )
    with pytest.raises(RuntimeError, match="streaming_replay at 1500 flows"):
        run_bench.enforce_parity(base)
    base = _empty_results(
        streaming_replay={
            "flows": 100_000,
            "max_rel_quantile_diff": 0.0,
            "streaming_maxrss_kb": 3,
            "posthoc_maxrss_kb": 2,
        }
    )
    with pytest.raises(RuntimeError, match="streaming_replay_rss at 100000 flows"):
        run_bench.enforce_parity(base)


@pytest.mark.perf_smoke
def test_smoke_covers_compiled_maxmin_and_engine(smoke_results):
    results, _ = smoke_results
    for row in results["maxmin"]:
        assert row["max_rel_rate_diff"] < run_bench.PARITY_TOLERANCE
        assert row["speedup"] > 0 and row["compiled_speedup"] > 0
    engine = results["engine"]
    assert engine["cancellation_heavy"]["events"] == 10_000
    assert engine["cancellation_heavy"]["pending_after"] >= 0
    for path in ("handle", "uncancellable"):
        assert engine["self_reschedule"][path]["events"] == 10_000
    assert engine["port_stream"]["packets"] >= 2_000
    assert engine["port_stream"]["events"] > 0


@pytest.mark.perf_smoke
def test_idle_ports_leave_the_event_heap(smoke_results):
    """Event-count guard: fig7's 14-controller dumbbell with no flows costs
    one event per controller over 0.5 s simulated, not one per port per
    price-update interval (116 662 with always-on timers)."""
    results, written = smoke_results
    idle = results["engine"]["idle_port_timers"]
    assert idle["controllers"] == 14 and idle["simulated_seconds"] == 0.5
    assert idle["events"] <= idle["controllers"]
    assert idle["always_on_events"] > 100_000
    assert written["engine"]["idle_port_timers"] == idle
    churn = results["engine"]["port_timer_churn"]
    assert churn["always_on_seconds"] > 0 and churn["park_unpark_seconds"] > 0
    with pytest.raises(RuntimeError, match="did not park"):
        run_bench.enforce_idle_timers({"idle_port_timers": dict(idle, events=116_662)})


@pytest.mark.perf_smoke
def test_ports_park_again_after_the_last_ack():
    """One short flow wakes the ports on its path; within three ticks of its
    last ACK every controller is parked again and the heap is empty."""
    from repro.sim.flow import FlowDescriptor

    def build():
        scheme = run_bench.NumFabricScheme(
            run_bench.NumFabricParameters(baseline_rtt=50e-6).slowed_down(2.0)
        )
        network = run_bench.dumbbell(scheme, num_pairs=6)
        network.add_flow(FlowDescriptor(
            flow_id=0, source=("sender", 0), destination=("receiver", 0), size_bytes=30_000))
        return scheme, network

    scheme, network = build()
    network.run(0.5)
    (completion,) = network.fct_tracker.completions
    assert network.simulator.pending_events == 0
    total_events = network.simulator.events_processed

    scheme, network = build()
    interval = scheme.params.price_update_interval
    network.run(completion.finish_time + 3 * interval)
    assert all(controller._timer.parked for controller in scheme.controllers)
    assert network.simulator.pending_events == 0
    assert network.simulator.events_processed == total_events  # nothing ticked afterwards


@pytest.mark.perf_smoke
def test_a_hop_costs_two_events_and_a_flow_one():
    """Exact event budget of the packet engine's hot path: every packet
    transmitted is one serialization and one propagation event, and every
    flow one start event -- nothing else, on a scheme without port
    controllers or timers.  (fig7's seed-7 DCTCP half: 215 840 events =
    2 x 107 820 transmissions + 200 flows.)"""
    from repro.sim.flow import FlowDescriptor
    from repro.sim.topology import dumbbell
    from repro.transports import DctcpScheme

    network = dumbbell(DctcpScheme(), num_pairs=3, bottleneck_rate=1e9)
    flows = [(0, 90_000, 0.0), (1, 30_000, 0.0), (2, 1, 1e-4), (0, 4_500, 2e-4), (1, 200_000, 3e-4)]
    for flow_id, (pair, size_bytes, start) in enumerate(flows):
        network.add_flow(FlowDescriptor(
            flow_id=flow_id, source=("sender", pair), destination=("receiver", pair),
            size_bytes=size_bytes, start_time=start))
    network.run(0.5)
    assert network.fct_tracker.count == len(flows)
    transmitted = sum(port.packets_transmitted for port in network.ports)
    assert transmitted > 1_000
    assert network.simulator.events_processed == 2 * transmitted + len(flows)


@pytest.mark.perf_smoke
def test_parity_enforcement_fails_loudly():
    """A drifted scheme result must abort the harness, not slip into JSON."""
    results = {
        "xwi": [{"flows": 20, "max_rel_rate_diff": 0.0}],
        "schemes": {"dgd": [{"flows": 20, "max_rel_rate_diff": 1e-6}]},
        "maxmin": [],
        "oracle": [],
        "flow_level": [],
    }
    with pytest.raises(RuntimeError, match="dgd at 20 flows"):
        run_bench.enforce_parity(results)


def _empty_results(**overrides):
    base = {"xwi": [], "schemes": {}, "maxmin": [], "oracle": [], "flow_level": []}
    base.update(overrides)
    return base


@pytest.mark.perf_smoke
def test_parity_enforcement_covers_oracle_and_flow_level():
    base = _empty_results(oracle=[{"flows": 50, "max_rel_rate_diff": 1e-3}])
    with pytest.raises(RuntimeError, match="oracle at 50 flows"):
        run_bench.enforce_parity(base)
    base = _empty_results(flow_level=[{"flows": 100, "max_rel_fct_diff": 1e-6}])
    with pytest.raises(RuntimeError, match="flow_level at 100 flows"):
        run_bench.enforce_parity(base)


@pytest.mark.perf_smoke
def test_parity_enforcement_covers_new_sections():
    """oracle_persistent drift or an uncertified persistent answer,
    waterfill drift/rounds and incidence mismatches must all abort the
    harness."""
    base = _empty_results(
        oracle_persistent=[{"flows": 50, "max_rel_rate_diff": 1e-3, "worst_certificate": 0.0}]
    )
    with pytest.raises(RuntimeError, match="oracle_persistent at 50 flows"):
        run_bench.enforce_parity(base)
    base = _empty_results(
        oracle_persistent=[{"flows": 50, "max_rel_rate_diff": 0.0, "worst_certificate": 2e-6}]
    )
    with pytest.raises(RuntimeError, match="oracle_persistent_certificate at 50 flows"):
        run_bench.enforce_parity(base)
    base = _empty_results(
        waterfill=[
            {
                "flows": 20,
                "max_rel_rate_diff": 1e-6,
                "rounds_batched": 1,
                "distinct_levels": 1,
            }
        ]
    )
    with pytest.raises(RuntimeError, match="waterfill at 20 flows"):
        run_bench.enforce_parity(base)
    base = _empty_results(
        waterfill=[
            {
                "flows": 20,
                "max_rel_rate_diff": 0.0,
                "rounds_batched": 9,
                "distinct_levels": 3,
            }
        ]
    )
    with pytest.raises(RuntimeError, match="waterfill_rounds at 20 flows"):
        run_bench.enforce_parity(base)
    base = _empty_results(incidence=[{"flows": 50, "identical": False}])
    with pytest.raises(RuntimeError, match="incidence at 50 flows"):
        run_bench.enforce_parity(base)


@pytest.mark.perf_smoke
def test_parity_enforcement_skips_sampled_out_dict_rows():
    base = _empty_results(
        flow_level=[{"flows": 10_000, "max_rel_fct_diff": None, "dict_seconds": None}]
    )
    run_bench.enforce_parity(base)  # must not raise


@pytest.mark.perf_smoke
def test_check_mode_accepts_fresh_smoke_json(smoke_results, tmp_path):
    """--check passes against a JSON the harness itself just wrote."""
    _, written = smoke_results
    committed = tmp_path / "BENCH_fluid.json"
    committed.write_text(json.dumps(written))
    assert run_bench.main(["--check", "--out", str(committed)]) == {}


@pytest.mark.perf_smoke
def test_check_mode_rejects_missing_sections(smoke_results, tmp_path):
    _, written = smoke_results
    broken = {key: value for key, value in written.items() if key != "waterfill"}
    committed = tmp_path / "BENCH_fluid.json"
    committed.write_text(json.dumps(broken))
    with pytest.raises(RuntimeError, match="missing sections.*waterfill"):
        run_bench.main(["--check", "--out", str(committed)])


@pytest.mark.perf_smoke
def test_bench_network_is_deterministic():
    a = run_bench.build_network(30)
    b = run_bench.build_network(30)
    assert [f.path for f in a.flows] == [f.path for f in b.flows]
    assert [repr(f.utility) for f in a.flows] == [repr(f.utility) for f in b.flows]


@pytest.mark.perf_smoke
@pytest.mark.parametrize("scheme", ["xwi", *sorted(run_bench.SCHEME_SIMULATORS)])
def test_history_records_stay_array_backed(scheme):
    """Memory guard: a simulator's history holds a few vectors per step
    (measured 18 B per flow and record for xWI, 9-10 B for the others), not
    the dicts it used to (143 B and 73-74 B).  400 flows on the bench
    fabric."""
    import tracemalloc

    flows, steps = 400, 100
    simulator_cls = {"xwi": run_bench.XwiFluidSimulator, **run_bench.SCHEME_SIMULATORS}[scheme]
    simulator = simulator_cls(run_bench.build_network(flows))
    simulator.run(2)  # the one-time compile and first-touch caches stay outside
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        simulator.run(steps)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(simulator.history) == steps + 2
    assert (after - before) / (steps * flows) < 40.0


class _CountingNumpy:
    """Stands in for a module's ``np``: counts calls to the named functions."""

    def __init__(self, numpy, names):
        self._numpy = numpy
        self.calls = dict.fromkeys(names, 0)

    def __getattr__(self, name):
        attr = getattr(self._numpy, name)
        if name not in self.calls:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


@pytest.mark.perf_smoke
def test_an_all_log_churn_step_skips_the_family_scans(monkeypatch):
    """Churn guard of the xWI step: on a 200-flow all-log population, the
    step after an arrival (or a departure) runs no ``np.nonzero`` scan
    inside ``repro.fluid.vectorized`` -- churn edits one utility row in
    place and files the slot in the scalar and ``a != 1`` sets, so
    rebuilding the cached layout scans nothing -- and neither the step nor
    ``RateGather`` builds an ``np.append`` copy (a sentinel, or a grown
    row)."""
    import random

    import numpy as np

    from repro.core.utility import LogUtility
    from repro.fluid import vectorized
    from repro.fluid.network import FluidFlow
    from repro.fluid.topologies import leaf_spine
    from repro.fluid.xwi import XwiFluidSimulator

    rng = random.Random(3)
    fabric = leaf_spine()
    network = fabric.network

    def arrive(flow_id):
        src, dst = rng.sample(range(fabric.num_servers), 2)
        network.add_flow(FluidFlow(flow_id, fabric.path(src, dst), LogUtility(rng.choice([1, 2]))))

    for flow_id in range(200):
        arrive(flow_id)
    simulator = XwiFluidSimulator(network)
    simulator.run(3, record_history=False)  # the compile and its first layout
    counting = _CountingNumpy(np, ("nonzero", "append"))
    monkeypatch.setattr(vectorized, "np", counting)
    gather = vectorized.RateGather()
    for flow_id in range(200, 210):
        arrive(flow_id)
        record = simulator.step()
        network.remove_flow(network.flow_ids[rng.randrange(len(network.flow_ids))])
        simulator.step()
        gather(record, list(record.flow_ids)[::-1])  # every wanted flow present
        gather.reset()
        gather(record, list(record.flow_ids) + ["absent"])
    assert counting.calls == {"nonzero": 0, "append": 0}
