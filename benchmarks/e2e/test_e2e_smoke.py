"""Smoke test of the end-to-end benchmark: toy sizes, a few seconds in all.

Collected by tier-1 through ``testpaths = ["tests", "benchmarks"]``.  It
guards what a change under ``src/`` can break without noticing: a renamed
function empties a span-table row, a metric stops being emitted, the
declarations in ``BENCHMARK.json`` drift from the harness.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
import time

import pytest

from e2e import child, harness, metrics, trace, workloads

DIGEST = {"flows": 10, "fct_p99": 1.0, "iterations": [3, 4]}


def test_benchmark_json_matches_the_harness():
    declared = json.loads(harness.BENCHMARK.read_text())
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(declared) == keys
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert declared["paths"] == ["benchmarks/e2e"]
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    end_to_end = [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]]
    assert end_to_end == list(metrics.END_TO_END)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0.0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
    assert per_layer == list(metrics.PER_LAYER)
    assert all(set(m) == {"name", "unit", "better"} for m in declared["per_layer"])


def test_every_span_table_path_resolves_to_a_function_in_src():
    layers = {name.split(".")[0] for name in metrics.PER_LAYER_NAMES}
    seen = set()
    for entry in trace.SPAN_TABLE:
        assert entry.name.split(".")[0] in layers
        assert set(entry.expect) <= set(workloads.WORKLOADS)
        for target in entry.targets:
            assert target not in seen, f"{target} is listed twice"
            seen.add(target)
            owner, attr, original = trace.resolve(target)
            assert callable(original) and getattr(owner, attr) is original


def test_tracer_installs_and_restores_every_boundary():
    tracer = trace.Tracer("smoke")
    before = {t: trace.resolve(t)[2] for entry in trace.SPAN_TABLE for t in entry.targets}
    tracer.install()
    try:
        for target, original in before.items():
            owner, attr, _ = trace.resolve(target)
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    assert {target: trace.resolve(target)[2] for target in before} == before


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_at_toy_size_emits_every_metric_once(name, tmp_path):
    args = argparse.Namespace(
        workload=name,
        seed=7,
        seconds=0.0,
        iterations=1,
        trace=1,
        scale="toy",
        t0=time.time(),
        tmp=str(tmp_path / "tmp"),
        out=str(tmp_path / "out"),
        setup_only=False,
        pin=False,
    )
    report = child.run_workload(args)
    assert report["problems"] == [] and report["failed"] == 0 and report["attempted"] >= 1
    report["correct"] = True
    for traced, names in ((0, metrics.END_TO_END_NAMES), (1, metrics.PER_LAYER_NAMES)):
        line = json.loads(harness.result_line(report, traced))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == list(names)
        for metric, reading in line["metrics"].items():
            assert reading["unit"] == metrics.UNITS[metric]
            assert math.isfinite(reading["value"]), metric
    assert all(report[metric] > 0 for metric in metrics.END_TO_END_NAMES)
    written = json.loads((tmp_path / "out" / f"{name}.trace.json").read_text())
    assert written["aggregates"][trace.ROOT]["count"] == 1
    assert all(span["end"] >= span["start"] for span in written["spans"])


def test_digests_compare_counts_exactly_and_floats_at_1e6():
    assert child.compare_digests({**DIGEST, "fct_p99": 1.0 + 5e-7}, DIGEST) == []
    assert child.compare_digests({**DIGEST, "fct_p99": 1.0 + 5e-6}, DIGEST)
    assert child.compare_digests({**DIGEST, "flows": 11}, DIGEST)
    assert child.compare_digests({**DIGEST, "iterations": [3, 5]}, DIGEST)
    assert child.compare_digests({"flows": 10, "fct_p99": 1.0}, DIGEST)


def test_pinned_references_exist_for_seeds_7_and_11():
    for name in workloads.WORKLOADS:
        for seed in (7, 11):
            assert json.loads(child.reference_path(name, seed).read_text()), (name, seed)


def test_run_exits_nonzero_without_a_result_where_src_is_missing(tmp_path):
    shutil.copy(harness.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        harness.HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig5_stream"]
    command += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
