"""Streaming runner gates: parity with post-hoc, checkpoint/resume, memory.

These are the acceptance criteria for the streaming result layer:

* streaming P50/P99 within 1% of the exact post-hoc percentiles,
* interrupt -> resume bit-identical to an uninterrupted run,
* memory bounded by the active-flow population, not the trace length,
* foreign/stale checkpoints rejected instead of silently resumed.
"""

import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.fluid.xwi import XwiFluidSimulator
from repro.scenarios import get_scenario, run_scenario, run_scenario_streaming
from repro.scenarios.materialize import build_fluid_topology, materialize_arrivals
from repro.scenarios.runner import CHECKPOINT_VERSION, load_checkpoint, write_checkpoint


def _sized_spec(num_flows, seed=3):
    """fig5/websearch with the flow count overridden (a workload param,
    so ``.using()`` sizing does not reach it)."""
    base = get_scenario("fig5/websearch")
    params = {**dict(base.workload.params), "num_flows": num_flows}
    return replace(base, workload=replace(base.workload, params=params), seed=seed)


@pytest.fixture(scope="module")
def parity_pair():
    """One post-hoc and one streaming run of the same 2000-flow replay."""
    spec = _sized_spec(2000)
    posthoc = run_scenario(spec, engine="flow")
    streaming = run_scenario_streaming(spec, engine="flow")
    return posthoc, streaming


class TestStreamingVsPostHoc:
    def test_flow_counts_match(self, parity_pair):
        posthoc, streaming = parity_pair
        assert streaming.rows[0]["flows_completed"] == len(posthoc.rows)

    def test_quantiles_within_one_percent(self, parity_pair):
        posthoc, streaming = parity_pair
        fcts = [row["fct"] for row in posthoc.rows]
        summary = streaming.rows[0]
        for key, q in (("fct_p50", 50), ("fct_p99", 99)):
            exact = float(np.percentile(fcts, q))
            assert abs(summary[key] - exact) / exact < 0.01, key

    def test_bytes_delivered_exact(self, parity_pair):
        posthoc, streaming = parity_pair
        exact = sum(row["size_bytes"] for row in posthoc.rows)
        assert streaming.rows[0]["bytes_delivered"] == pytest.approx(exact)

    def test_no_per_flow_accumulation(self, parity_pair):
        _, streaming = parity_pair
        assert len(streaming.rows) == 1
        assert "completions" not in streaming.artifacts
        assert "arrivals" not in streaming.artifacts
        telemetry = streaming.artifacts["streaming"]
        # Every completion was folded into the sketch, not stored.  (Sketch
        # compression only bites for n >> 1/epsilon; the asymptotic size
        # bound is covered in tests/analysis/test_streaming.py.)
        assert telemetry.fct_sketch.count == telemetry.flows_completed

    def test_utilization_windows_cover_run(self, parity_pair):
        _, streaming = parity_pair
        windows = streaming.artifacts["utilization_windows"]
        assert windows
        assert sum(row["bytes"] for row in windows) == pytest.approx(
            streaming.rows[0]["bytes_delivered"]
        )


class TestCheckpointResume:
    def test_interrupt_then_resume_is_bit_identical(self, tmp_path):
        spec = _sized_spec(400, seed=5)
        reference = run_scenario_streaming(spec, engine="flow")

        path = tmp_path / "run.ckpt"
        calls = {"n": 0}

        def stop_after_two_segments():
            calls["n"] += 1
            return calls["n"] >= 2

        partial = run_scenario_streaming(
            spec,
            engine="flow",
            checkpoint_path=path,
            checkpoint_every=2e-3,
            should_stop=stop_after_two_segments,
        )
        assert partial.artifacts["interrupted"] is True
        assert path.exists()

        resumed = run_scenario_streaming(
            spec, engine="flow", checkpoint_path=path, checkpoint_every=2e-3
        )
        assert resumed.artifacts["resumed_from"] == str(path)
        assert "interrupted" not in resumed.artifacts
        assert resumed.rows == reference.rows  # bit-identical, not approx

    def test_fresh_ignores_existing_checkpoint(self, tmp_path):
        spec = _sized_spec(100, seed=2)
        path = tmp_path / "run.ckpt"
        first = run_scenario_streaming(spec, engine="flow", checkpoint_path=path)
        fresh = run_scenario_streaming(
            spec, engine="flow", checkpoint_path=path, resume=False
        )
        assert "resumed_from" not in fresh.artifacts
        assert fresh.rows == first.rows

    def test_foreign_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        run_scenario_streaming(
            _sized_spec(100, seed=2), engine="flow", checkpoint_path=path
        )
        with pytest.raises(ValueError, match="different scenario"):
            run_scenario_streaming(
                _sized_spec(100, seed=9), engine="flow", checkpoint_path=path
            )

    def test_version_mismatch_rejected(self, tmp_path):
        spec = _sized_spec(100, seed=2)
        path = tmp_path / "run.ckpt"
        # Version 1 predates OracleRatePolicy / PersistentDualSolver losing
        # their solver-selection attributes; version 2 pickled the fluid
        # simulators' state as dicts and GK sketches slot by slot; version 3
        # keyed the path-capacity memo on a capacity copy; version 4 pickled
        # compiled snapshots with CSR cache slots; version 5 pickled fluid
        # simulators with their backend and record_detail attributes and
        # per-scheme record classes; version 6 pickled the flow-level
        # simulation with its backend and dict state; version 7 pickled
        # utility batches with family codes; version 8 pickled the simulator
        # rate policy without its simulator class and the flow-level
        # simulation with its rate cache: such checkpoints must not resume.
        assert CHECKPOINT_VERSION == 9
        for version in (1, 2, 3, 4, 5, 6, 7, 8, CHECKPOINT_VERSION + 1):
            write_checkpoint(path, {"version": version, "spec_fingerprint": "x"})
            with pytest.raises(ValueError, match="format version"):
                load_checkpoint(path, spec)
            with pytest.raises(ValueError, match="format version"):
                run_scenario_streaming(spec, engine="flow", checkpoint_path=path)

    def test_mid_run_checkpoint_holds_array_state_and_resumes_identically(self, tmp_path):
        """A checkpoint written mid-run carries the policy's simulator state
        as vectors, the sketches come back with their key lists, and resuming
        ends in exactly the telemetry of an uninterrupted run.  (At 300 flows the
        sketches have not compressed yet, so their entries *are* the
        completions: every FCT and slowdown, bit for bit.)"""
        spec = _sized_spec(300, seed=6)
        reference = run_scenario_streaming(spec, engine="flow")
        path = tmp_path / "run.ckpt"
        segments = iter([False, True])
        partial = run_scenario_streaming(
            spec,
            engine="flow",
            checkpoint_path=path,
            checkpoint_every=2e-3,
            should_stop=lambda: next(segments),
        )
        assert partial.artifacts["interrupted"] is True

        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        assert payload["version"] == CHECKPOINT_VERSION
        assert 0 < payload["telemetry"].flows_completed < 300
        simulator = payload["sim"].rate_policy._simulator
        assert simulator._prices.vector is not None and not simulator._prices.handed_out
        for sketch in (payload["telemetry"].fct_sketch, payload["telemetry"].slowdown_sketch):
            assert sketch._keys == [entry[0] for entry in sketch._entries]

        resumed = run_scenario_streaming(
            spec, engine="flow", checkpoint_path=path, checkpoint_every=2e-3
        )
        assert resumed.artifacts["resumed_from"] == str(path)
        assert resumed.rows == reference.rows

        def state(result):
            telemetry = result.artifacts["streaming"]
            return (
                telemetry.flows_completed,
                telemetry.bytes_delivered,
                telemetry.fct_sketch._entries,
                telemetry.slowdown_sketch._entries,
                telemetry.fct_moments,
                telemetry.slowdown_moments,
                telemetry.utilization.rows,
            )

        assert state(resumed) == state(reference)
        assert len(state(resumed)[2]) == 300

    def test_checkpoint_before_the_first_arrival_resumes_identically(self, tmp_path):
        """A checkpoint written before any flow arrived holds a simulator
        policy that has not built its simulator yet.  The policy pickles its
        simulator class and parameters, so the resumed run builds the
        simulator at the first arrival and ends bit for bit where an
        uninterrupted run does."""
        spec = _sized_spec(400)
        first_arrival = min(
            a.time for a in materialize_arrivals(spec, build_fluid_topology(spec))
        )
        checkpoint_every = 30e-6
        assert checkpoint_every < first_arrival
        reference = run_scenario_streaming(spec, engine="flow")
        path = tmp_path / "run.ckpt"
        partial = run_scenario_streaming(
            spec,
            engine="flow",
            checkpoint_path=path,
            checkpoint_every=checkpoint_every,
            should_stop=lambda: True,
        )
        assert partial.artifacts["interrupted"] is True
        assert partial.artifacts["arrivals_consumed"] == 0

        policy = load_checkpoint(path, spec)["sim"].rate_policy
        assert policy._simulator is None
        assert policy.simulator_cls is XwiFluidSimulator

        resumed = run_scenario_streaming(
            spec, engine="flow", checkpoint_path=path, checkpoint_every=2e-3
        )
        assert resumed.artifacts["resumed_from"] == str(path)
        assert resumed.rows == reference.rows  # bit-identical, not approx

    def test_checkpoint_file_is_a_complete_pickle(self, tmp_path):
        path = tmp_path / "run.ckpt"
        run_scenario_streaming(
            _sized_spec(100, seed=2), engine="flow", checkpoint_path=path
        )
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        assert payload["done"] is True
        assert payload["consumed"] == 100


class TestRunScenarioIntegration:
    def test_streaming_sizing_key_routes_run_scenario(self):
        """``streaming=True`` in sizing sends ``run_scenario`` through the
        streaming executor -- sweep cells get summary rows automatically."""
        result = run_scenario(_sized_spec(100, seed=2), engine="flow", streaming=True)
        assert len(result.rows) == 1
        assert "fct_p50" in result.rows[0]
        assert "completions" not in result.artifacts

    def test_streaming_rejects_non_flow_engines(self):
        spec = get_scenario("fig5/websearch")
        with pytest.raises(ValueError, match="flow engine only"):
            run_scenario_streaming(spec, engine="fluid")


class TestBoundedMemory:
    def test_streaming_peak_below_posthoc_peak(self):
        """At reduced scale the streaming path must already allocate less
        than the materializing path; the gap widens with trace length."""
        spec = _sized_spec(1500, seed=4)

        tracemalloc.start()
        run_scenario(spec, engine="flow")
        _, posthoc_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        result = run_scenario_streaming(spec, engine="flow")
        _, streaming_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert result.rows[0]["flows_completed"] == 1500
        assert streaming_peak < posthoc_peak
