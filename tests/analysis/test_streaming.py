"""Parity gates for the streaming telemetry sketches.

The exact post-hoc statistics (:func:`repro.analysis.stats.percentile`
over materialized lists) are the reference; the sketches must track them
within their declared error bounds on adversarial data shapes.
"""

import math
import pickle
import random
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from repro.analysis.streaming import (
    GKQuantiles,
    P2Quantile,
    StreamingMoments,
    WindowedUtilization,
)


def _datasets():
    rng = random.Random(7)
    return {
        "uniform": [rng.random() for _ in range(20_000)],
        "lognormal-heavy": [rng.lognormvariate(0.0, 2.0) for _ in range(20_000)],
        "exponential": [rng.expovariate(3.0) for _ in range(20_000)],
        "sorted": [float(i) for i in range(10_000)],
        "reversed": [float(i) for i in range(10_000, 0, -1)],
    }


class TestGKQuantiles:
    @pytest.mark.parametrize("name", list(_datasets()))
    def test_rank_error_bound(self, name):
        """GK's defining guarantee: returned values are within eps*n ranks."""
        data = _datasets()[name]
        epsilon = 1e-3
        sketch = GKQuantiles(epsilon=epsilon)
        for value in data:
            sketch.add(value)
        ordered = sorted(data)
        n = len(ordered)
        for q in (0.01, 0.25, 0.5, 0.75, 0.9, 0.99):
            value = sketch.query(q)
            lo = bisect_left(ordered, value)
            hi = bisect_right(ordered, value)
            target = q * n
            rank_error = min(abs(lo - target), abs(hi - target))
            assert rank_error <= epsilon * n + 1, (name, q, rank_error)

    def test_value_accuracy_default_epsilon(self):
        """At the telemetry default epsilon, P50/P99 are within 1% of the
        exact percentile on an FCT-shaped distribution at bench scale
        (the streaming-vs-post-hoc parity gate)."""
        rng = random.Random(7)
        data = [rng.expovariate(1.0) for _ in range(50_000)]
        sketch = GKQuantiles()
        for value in data:
            sketch.add(value)
        for q in (0.5, 0.99):
            exact = float(np.percentile(data, q * 100))
            assert abs(sketch.query(q) - exact) / exact < 0.01

    def test_bounded_size(self):
        """Retained entries grow like O((1/eps) log(eps*n)), not like n."""
        sketch = GKQuantiles(epsilon=1e-3)
        rng = random.Random(1)
        for _ in range(50_000):
            sketch.add(rng.random())
        assert sketch.count == 50_000
        assert sketch.size < 2_000  # vs 50k raw samples

    def test_small_samples_exact_ranks(self):
        sketch = GKQuantiles(epsilon=0.01)
        for value in [5.0, 1.0, 3.0]:
            sketch.add(value)
        assert sketch.query(0.0) == 1.0
        assert sketch.query(1.0) == 5.0

    def test_empty_and_invalid(self):
        sketch = GKQuantiles()
        with pytest.raises(ValueError):
            sketch.query(0.5)
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.query(1.5)
        with pytest.raises(ValueError):
            GKQuantiles(epsilon=0.0)

    def test_pickle_roundtrip_continues_identically(self):
        rng = random.Random(3)
        data = [rng.expovariate(1.0) for _ in range(5_000)]
        a = GKQuantiles()
        for value in data[:2_500]:
            a.add(value)
        b = pickle.loads(pickle.dumps(a))
        for value in data[2_500:]:
            a.add(value)
            b.add(value)
        for q in (0.5, 0.9, 0.99):
            assert a.query(q) == b.query(q)


class _RebuildingGK(GKQuantiles):
    """The sketch as it was before ``_keys`` was kept in step: every ``add``
    re-derives the key list from the entries (O(sketch size) per call)."""

    def add(self, value):
        value = float(value)
        entries = self._entries
        self._keys = keys = [e[0] for e in entries]
        idx = bisect_right(keys, value)
        if idx == 0 or idx == len(entries):
            delta = 0.0
        else:
            delta = math.floor(2.0 * self.epsilon * self._count)
            if delta > 0.0:
                delta -= 1.0
        entries.insert(idx, [value, 1.0, delta])
        keys.insert(idx, value)
        self._count += 1
        self._since_compress += 1
        if self._since_compress >= max(1, int(1.0 / (2.0 * self.epsilon))):
            self._compress()
            self._since_compress = 0


def _gk_streams():
    rng = random.Random(11)
    lognormal = [rng.lognormvariate(0.0, 2.0) for _ in range(6_000)]
    return {
        "lognormal": lognormal,
        "duplicates": [round(value, 1) for value in lognormal],
        "sorted": sorted(lognormal),
        "reversed": sorted(lognormal, reverse=True),
        "constant": [2.5] * 3_000,
    }


class TestGKParallelKeys:
    """``add`` bisects a key list kept in step by ``add`` / ``_compress``;
    the sketch it builds must be the one the per-call rebuild built."""

    @pytest.mark.parametrize("epsilon", [2.5e-4, 1e-3, 1e-2, 5e-2])
    @pytest.mark.parametrize("name", list(_gk_streams()))
    def test_same_sketch_as_the_per_call_rebuild(self, name, epsilon):
        data = _gk_streams()[name]
        sketch, reference = GKQuantiles(epsilon), _RebuildingGK(epsilon)
        half = len(data) // 2
        for value in data[:half]:
            sketch.add(value)
            reference.add(value)
        restored = pickle.loads(pickle.dumps(sketch))
        for value in data[half:]:
            sketch.add(value)
            restored.add(value)
            reference.add(value)
        for candidate in (sketch, restored):
            assert candidate._entries == reference._entries
            assert candidate._keys == [entry[0] for entry in candidate._entries]
            assert candidate.count == reference.count
            for q in (0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
                assert candidate.query(q) == reference.query(q)


class TestP2Quantile:
    def test_small_samples_exact(self):
        p = P2Quantile(0.5)
        for value in [3.0, 1.0, 2.0]:
            p.add(value)
        assert p.value() == 2.0

    def test_tracks_known_quantiles(self):
        rng = random.Random(11)
        data = [rng.expovariate(2.0) for _ in range(50_000)]
        p50, p99 = P2Quantile(0.5), P2Quantile(0.99)
        for value in data:
            p50.add(value)
            p99.add(value)
        exact50 = float(np.percentile(data, 50))
        exact99 = float(np.percentile(data, 99))
        assert abs(p50.value() - exact50) / exact50 < 0.02
        assert abs(p99.value() - exact99) / exact99 < 0.05

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_empty(self):
        with pytest.raises(ValueError):
            P2Quantile(0.5).value()

    def test_picklable(self):
        p = P2Quantile(0.9)
        for value in range(100):
            p.add(float(value))
        q = pickle.loads(pickle.dumps(p))
        assert q.value() == p.value()


class TestStreamingMoments:
    def test_matches_numpy(self):
        rng = random.Random(5)
        data = [rng.lognormvariate(0.0, 1.0) for _ in range(3_000)]
        m = StreamingMoments()
        for value in data:
            m.add(value)
        assert m.count == len(data)
        assert m.mean == pytest.approx(float(np.mean(data)), rel=1e-12)
        assert m.std == pytest.approx(float(np.std(data)), rel=1e-9)
        assert m.min == min(data)
        assert m.max == max(data)
        assert m.total() == pytest.approx(sum(data), rel=1e-12)

    def test_empty(self):
        m = StreamingMoments()
        assert m.count == 0
        assert m.variance == 0.0
        assert math.isinf(m.min)


class TestWindowedUtilization:
    def test_exact_against_posthoc_binning(self):
        """Windowed rows must equal an exact post-hoc histogram reduction."""
        rng = random.Random(9)
        window = 0.25
        events = sorted(
            (rng.random() * 5.0, rng.randint(1, 10_000)) for _ in range(2_000)
        )
        w = WindowedUtilization(window=window, capacity_bps=1e9)
        for time, nbytes in events:
            w.add(time, nbytes)
        rows = w.finish()
        reference = {}
        for time, nbytes in events:
            reference.setdefault(int(time / window), 0.0)
            reference[int(time / window)] += nbytes
        got = {int(round(r["window_start"] / window)): r["bytes"] for r in rows}
        assert got == reference
        for row in rows:
            assert row["throughput_bps"] == pytest.approx(8.0 * row["bytes"] / window)
            assert row["utilization"] == pytest.approx(row["throughput_bps"] / 1e9)

    def test_rejects_time_travel(self):
        w = WindowedUtilization(window=1.0)
        w.add(5.0, 10)
        with pytest.raises(ValueError):
            w.add(2.0, 10)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowedUtilization(window=0.0)

    def test_memory_is_window_count_not_event_count(self):
        w = WindowedUtilization(window=1.0)
        for i in range(10_000):
            w.add(i * 3e-4, 1)  # 10k events land in just 3 windows
        assert len(w.finish()) <= 4
