"""Content addressing: canonical spec hashing and the on-disk result cache."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.results import ExperimentResult
from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import run_scenario
from repro.sweep import (
    CACHE_VERSION,
    ResultCache,
    canonicalize,
    decode_result,
    encode_result,
    spec_fingerprint,
    task_key,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestCanonicalize:
    def test_dict_key_order_is_irrelevant(self):
        assert canonicalize({"a": 1, "b": 2}) == canonicalize({"b": 2, "a": 1})

    def test_floats_hash_by_repr(self):
        assert canonicalize(0.1) == ["f", "0.1"]
        assert canonicalize(0.1) != canonicalize(0.2)

    def test_sets_are_order_independent(self):
        assert canonicalize({3, 1, 2}) == canonicalize({2, 3, 1})

    def test_memory_addresses_are_rejected(self):
        # A bare object has no __dict__, no __slots__ and a repr that embeds
        # its address -- the one shape that must never reach a cache key.
        with pytest.raises(ValueError, match="memory address"):
            canonicalize(object())


class TestSpecHashing:
    def test_spec_pickle_round_trip(self):
        # Specs cross a worker's pipe (and an agent's socket) pickled: they
        # must arrive bit-identical (same fingerprint on the far side).
        spec = get_scenario("fig4/single-link-churn")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert spec_fingerprint(clone) == spec_fingerprint(spec)

    def test_every_registered_scenario_pickles(self):
        from repro.scenarios.catalog import list_scenarios

        for entry in list_scenarios():
            spec = get_scenario(entry.name)
            clone = pickle.loads(pickle.dumps(spec))
            assert spec_fingerprint(clone) == spec_fingerprint(spec), entry.name

    def test_using_derivative_hashes_differently(self):
        spec = get_scenario("fig4/single-link-churn")
        derived = spec.using(seed=(spec.seed or 0) + 1)
        assert task_key(spec, code="x") != task_key(derived, code="x")
        assert task_key(spec, code="x") != task_key(spec, seed=99, code="x")

    def test_engine_and_code_feed_the_key(self):
        spec = get_scenario("fig4/single-link-churn")
        assert task_key(spec, "fluid", code="x") != task_key(spec, "flow", code="x")
        assert task_key(spec, code="x") != task_key(spec, code="y")

    def test_key_stable_across_processes(self):
        # The whole point of content addressing: an independent interpreter
        # computes the identical key for the identical cell.
        spec = get_scenario("fig4/single-link-churn")
        local = task_key(spec, code="fixed")
        script = (
            "from repro.scenarios.catalog import get_scenario\n"
            "from repro.sweep import task_key\n"
            "print(task_key(get_scenario('fig4/single-link-churn'), code='fixed'))\n"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        ).stdout.strip()
        assert remote == local


class TestResultCodec:
    def test_round_trip(self):
        result = ExperimentResult(experiment_id="x", title="t", notes="n")
        result.add_row(a=1, b=2.5)
        result.artifacts["final_rates"] = {"f": 1.0}
        clone = decode_result(encode_result(result))
        assert clone.rows == result.rows
        assert clone.artifacts["final_rates"] == {"f": 1.0}

    def test_unpicklable_artifacts_are_dropped_and_recorded(self):
        result = ExperimentResult(experiment_id="x", title="t")
        result.artifacts["ok"] = [1, 2]
        result.artifacts["network"] = lambda: None  # unpicklable stand-in
        payload = encode_result(result)
        assert "network" not in payload["artifacts"]
        assert payload["dropped_artifacts"] == ("network",)
        clone = decode_result(payload)
        assert clone.artifacts["ok"] == [1, 2]
        assert clone.artifacts["dropped_artifacts"] == ("network",)

    def test_a_packet_runs_live_network_stays_behind(self):
        # A finished packet network pickles (ports, endpoints, delivery
        # logs, many times the rest of the payload), yet never travels.
        result = run_scenario(get_scenario("fig7/dumbbell-fct"))
        pickle.dumps(result.artifacts["network"])
        payload = encode_result(result)
        assert payload["dropped_artifacts"] == ("network",)
        assert set(payload["artifacts"]) == set(result.artifacts) - {"network"}
        clone = decode_result(payload)
        assert clone.rows == result.rows
        assert len(clone.artifacts["completions"]) == len(result.rows) > 0


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"rows": [1]})
        assert ("ab" * 32) in cache
        assert cache.get("ab" * 32)["rows"] == [1]
        assert len(cache) == 1

    def test_miss_on_absent_torn_or_skewed_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        assert cache.get(key) is None
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"torn write, not a pickle")
        assert cache.get(key) is None
        cache.put(key, {"version": CACHE_VERSION - 1})
        # put() stamps the current version, so poison the version by hand.
        payload = pickle.loads(path.read_bytes())
        payload["version"] = CACHE_VERSION - 1
        path.write_bytes(pickle.dumps(payload))
        assert cache.get(key) is None

    def test_entry_bound_to_its_key(self, tmp_path):
        # A mis-filed entry (manual copy, collision) is treated as a miss.
        cache = ResultCache(tmp_path)
        key_a, key_b = "aa" * 32, "bb" * 32
        cache.put(key_a, {"rows": []})
        target = cache.path_for(key_b)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(cache.path_for(key_a).read_bytes())
        assert cache.get(key_b) is None


def _rewrite(cache, key, **overrides):
    """Edit a stored payload in place (simulating entries from another era)."""
    path = cache.path_for(key)
    payload = pickle.loads(path.read_bytes())
    payload.update(overrides)
    path.write_bytes(pickle.dumps(payload))


class TestCacheGC:
    def test_stale_code_entries_are_swept(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" * 32, {"rows": [1]})
        cache.put("bb" * 32, {"rows": [2]})
        _rewrite(cache, "bb" * 32, code="fingerprint-of-deleted-code")
        report = cache.gc()
        assert report["scanned"] == 2
        assert report["kept"] == 1
        assert report["stale_code"] == 1
        assert cache.get("aa" * 32) is not None
        assert not cache.path_for("bb" * 32).exists()

    def test_age_cutoff_only_applies_when_asked(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" * 32, {"rows": [1]})
        cache.put("bb" * 32, {"rows": [2]})
        ten_days = 10 * 86400.0
        _rewrite(cache, "bb" * 32, written_at=__import__("time").time() - ten_days)
        assert cache.gc(dry_run=True)["expired"] == 0  # no cutoff, no expiry
        report = cache.gc(max_age_days=5)
        assert report["expired"] == 1
        assert report["kept"] == 1
        assert not cache.path_for("bb" * 32).exists()

    def test_torn_entries_are_tolerated_and_swept(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" * 32, {"rows": [1]})
        torn = cache.path_for("cc" * 32)
        torn.parent.mkdir(parents=True, exist_ok=True)
        torn.write_bytes(b"half a pickle, killed mid-wr")
        skewed = cache.path_for("dd" * 32)
        skewed.parent.mkdir(parents=True, exist_ok=True)
        skewed.write_bytes(pickle.dumps({"version": CACHE_VERSION + 1}))
        report = cache.gc()  # must not raise on either
        assert report["torn"] == 2
        assert report["kept"] == 1
        assert not torn.exists() and not skewed.exists()

    def test_dry_run_deletes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" * 32, {"rows": [1]})
        _rewrite(cache, "aa" * 32, code="stale")
        report = cache.gc(dry_run=True)
        assert report["dry_run"] and report["stale_code"] == 1
        assert len(report["deleted"]) == 1
        assert cache.path_for("aa" * 32).exists()  # still on disk

    def test_old_tmp_spills_are_swept(self, tmp_path):
        import time as _time

        cache = ResultCache(tmp_path)
        cache.put("aa" * 32, {"rows": [1]})
        spill = cache.path_for("aa" * 32).parent / ".deadbeef.12345.tmp"
        spill.write_bytes(b"abandoned mkstemp spill")
        ancient = _time.time() - 7200.0
        os.utime(spill, (ancient, ancient))
        report = cache.gc()
        assert report["tmp"] == 1
        assert not spill.exists()
        assert report["kept"] == 1


class TestCacheGCCli:
    def test_sweep_gc_dry_run_then_delete(self, tmp_path, capsys):
        from repro.__main__ import main

        cache = ResultCache(tmp_path)
        cache.put("aa" * 32, {"rows": [1]})
        cache.put("bb" * 32, {"rows": [2]})
        _rewrite(cache, "bb" * 32, code="stale")

        assert main(["sweep", "--gc", "--cache-dir", str(tmp_path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "stale_code=1" in out and "would delete 1 file(s)" in out
        assert cache.path_for("bb" * 32).exists()

        assert main(["sweep", "--gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "deleted 1 file(s)" in out
        assert not cache.path_for("bb" * 32).exists()
        assert cache.get("aa" * 32) is not None

    def test_sweep_without_expression_or_gc_is_an_error(self, capsys):
        from repro.__main__ import main

        assert main(["sweep"]) == 2
        assert "sweep expression is required" in capsys.readouterr().err
