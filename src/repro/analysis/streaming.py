"""Streaming (single-pass, bounded-memory) telemetry primitives.

Long-horizon replays cannot afford the post-hoc pattern — collect every
per-flow record, then call :func:`repro.analysis.stats.percentile` — so
this module provides online estimators that consume one observation at a
time in O(1) amortized work and bounded state:

- :class:`P2Quantile` — the Jain/Chlamtac P-squared estimator: five
  markers per tracked quantile, constant memory, no guarantees beyond
  empirical accuracy.
- :class:`GKQuantiles` — a Greenwald-Khanna sketch with a deterministic
  rank-error guarantee of ``epsilon * n``; memory grows as
  O((1/epsilon) * log(epsilon * n)).
- :class:`StreamingMoments` — count / mean / variance / min / max via
  Welford's recurrence.
- :class:`WindowedUtilization` — fixed-width time windows accumulating
  delivered bytes, reduced to per-window throughput (and utilization
  when a reference capacity is supplied).

All classes are plain-data and picklable on purpose: they ride inside
run checkpoints (see :mod:`repro.scenarios.runner`), and a restored
sketch must continue bit-identically.  The exact post-hoc path
(:func:`repro.analysis.stats.percentile` over materialized lists) stays
as the parity reference; tests gate the sketches against it.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field


class P2Quantile:
    """P-squared streaming quantile estimator (Jain & Chlamtac, 1985).

    Tracks a single quantile ``q`` (in [0, 1]) with five markers and no
    stored samples.  Exact for the first five observations; after that
    the markers move by piecewise-parabolic interpolation.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments", "_count")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def add(self, value: float) -> None:
        value = float(value)
        self._count += 1
        if len(self._heights) < 5:
            insort(self._heights, value)
            return
        h = self._heights
        if value < h[0]:
            h[0] = value
            cell = 0
        elif value >= h[4]:
            h[4] = value
            cell = 3
        else:
            cell = 0
            while value >= h[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            self._positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers if they lag their desired
        # positions by at least one slot.
        for i in (1, 2, 3):
            delta = self._desired[i] - self._positions[i]
            pos = self._positions[i]
            if (delta >= 1.0 and self._positions[i + 1] - pos > 1.0) or (
                delta <= -1.0 and self._positions[i - 1] - pos < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                self._positions[i] = pos + step

    def _parabolic(self, i: int, step: float) -> float:
        h, p = self._heights, self._positions
        return h[i] + step / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + step) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - step) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, p = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (p[j] - p[i])

    def value(self) -> float:
        """Current estimate of the tracked quantile."""
        if self._count == 0:
            raise ValueError("no observations")
        if len(self._heights) < 5:
            # Exact small-sample percentile (linear interpolation, same
            # convention as analysis.stats.percentile).
            rank = self.q * (len(self._heights) - 1)
            lo = int(math.floor(rank))
            hi = min(lo + 1, len(self._heights) - 1)
            frac = rank - lo
            return self._heights[lo] * (1.0 - frac) + self._heights[hi] * frac
        return self._heights[2]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"P2Quantile(q={self.q}, count={self._count})"


class GKQuantiles:
    """Greenwald-Khanna epsilon-approximate quantile sketch.

    Any query is answered with rank error at most ``epsilon * count``:
    ``query(q)`` returns a stored value whose true rank lies within
    ``epsilon * count`` of ``q * count``.  One sketch answers every
    quantile, unlike :class:`P2Quantile` which tracks a single one.
    """

    __slots__ = ("epsilon", "_entries", "_keys", "_count", "_since_compress")

    def __init__(self, epsilon: float = 0.001) -> None:
        if not 0.0 < epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
        self.epsilon = epsilon
        # Entries [value, g, delta] sorted by value.  rmin of entry i is
        # the running sum of g up to i; rmax = rmin + delta.
        self._entries: list[list[float]] = []
        # The entries' values alone, kept in step by add/_compress so that
        # add bisects a flat list instead of rebuilding one per observation.
        self._keys: list[float] = []
        self._count = 0
        self._since_compress = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def size(self) -> int:
        """Number of retained entries (the bounded-memory claim)."""
        return len(self._entries)

    def add(self, value: float) -> None:
        value = float(value)
        entries = self._entries
        idx = bisect_right(self._keys, value)
        if idx == 0 or idx == len(entries):
            delta = 0.0
        else:
            delta = math.floor(2.0 * self.epsilon * self._count)
            if delta > 0.0:
                delta -= 1.0
        entries.insert(idx, [value, 1.0, delta])
        self._keys.insert(idx, value)
        self._count += 1
        self._since_compress += 1
        if self._since_compress >= max(1, int(1.0 / (2.0 * self.epsilon))):
            self._compress()
            self._since_compress = 0

    def _compress(self) -> None:
        entries, keys = self._entries, self._keys
        if len(entries) < 3:
            return
        threshold = math.floor(2.0 * self.epsilon * self._count)
        i = len(entries) - 2
        while i >= 1:
            cur, nxt = entries[i], entries[i + 1]
            if cur[1] + nxt[1] + nxt[2] <= threshold:
                nxt[1] += cur[1]
                del entries[i]
                del keys[i]
            i -= 1

    def query(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1] (rank error <= epsilon*n)."""
        if self._count == 0:
            raise ValueError("no observations")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        entries = self._entries
        target = max(1.0, math.ceil(q * self._count))
        margin = self.epsilon * self._count
        rmin = 0.0
        best = entries[0][0]
        for value, g, delta in entries:
            rmin += g
            if rmin + delta > target + margin:
                return best
            best = value
        return entries[-1][0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GKQuantiles(epsilon={self.epsilon}, count={self._count}, size={self.size})"


@dataclass
class StreamingMoments:
    """Welford single-pass count/mean/variance plus min/max."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def total(self) -> float:
        return self.mean * self.count


@dataclass
class WindowedUtilization:
    """Fixed-width time windows of delivered bytes.

    ``add(time, nbytes)`` attributes ``nbytes`` to the window containing
    ``time``; completed windows are flushed to :attr:`rows` (one dict per
    window — bounded by horizon / window, not by flow count).  When
    ``capacity_bps`` is set, each row also carries ``utilization``
    relative to that reference capacity.
    """

    window: float
    capacity_bps: float | None = None
    rows: list[dict[str, float]] = field(default_factory=list)
    _index: int | None = None
    _bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.window <= 0.0:
            raise ValueError(f"window must be positive, got {self.window}")

    def add(self, time: float, nbytes: float) -> None:
        idx = int(time / self.window)
        if self._index is None:
            self._index = idx
        elif idx != self._index:
            if idx < self._index:
                raise ValueError(
                    f"time {time} belongs to window {idx}, before current window {self._index}"
                )
            self._flush()
            self._index = idx
        self._bytes += nbytes

    def _flush(self) -> None:
        assert self._index is not None
        start = self._index * self.window
        bps = 8.0 * self._bytes / self.window
        row = {"window_start": start, "bytes": self._bytes, "throughput_bps": bps}
        if self.capacity_bps:
            row["utilization"] = bps / self.capacity_bps
        self.rows.append(row)
        self._bytes = 0.0

    def finish(self) -> list[dict[str, float]]:
        """Flush the in-progress window and return all rows."""
        if self._index is not None and self._bytes > 0.0:
            self._flush()
            self._bytes = 0.0
        return self.rows


__all__ = [
    "P2Quantile",
    "GKQuantiles",
    "StreamingMoments",
    "WindowedUtilization",
]
