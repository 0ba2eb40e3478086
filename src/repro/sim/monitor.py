"""Measurement instrumentation: per-flow rate monitors and FCT tracking."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.convergence import ewma_filter
from repro.sim.flow import FlowCompletion


class FlowRateMonitor:
    """Tracks a flow's goodput at the receiver.

    Every delivered data packet is recorded: its arrival time in one
    ``array('d')`` and its size in one ``array('q')``, 16 bytes a packet
    and no Python object per packet.  :meth:`rate_trace` bins the byte
    arrivals into fixed intervals and optionally smooths them with the
    paper's 80 microsecond EWMA filter.
    """

    def __init__(self, flow_id: object):
        self.flow_id = flow_id
        self._times = array("d")
        self._sizes = array("q")
        self.bytes_received = 0

    def __len__(self) -> int:
        """Data packets recorded."""
        return len(self._times)

    def record(self, time: float, size_bytes: int) -> None:
        self._times.append(time)
        self._sizes.append(size_bytes)
        self.bytes_received += size_bytes

    def rate_trace(
        self, interval: float, ewma_time_constant: Optional[float] = None,
        end_time: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """Per-interval goodput samples ``(time, bits_per_second)``.

        A packet at ``time`` lands in bin ``int((time - start) / interval)``
        (the last bin takes any overflow); each bin sums its packets' bits
        in arrival order, as ``np.bincount`` adds.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not self._times:
            return []
        times = np.frombuffer(self._times, dtype=float)
        start = self._times[0]
        stop = end_time if end_time is not None else self._times[-1]
        if stop <= start:
            stop = start + interval
        n_bins = max(1, int((stop - start) / interval) + 1)
        index = np.minimum(((times - start) / interval).astype(np.intp), n_bins - 1)
        bits = np.frombuffer(self._sizes, dtype=np.int64) * 8.0
        rates = (np.bincount(index, weights=bits, minlength=n_bins) / interval).tolist()
        bin_ends = (start + np.arange(1, n_bins + 1) * interval).tolist()
        if ewma_time_constant is not None:
            rates = ewma_filter(bin_ends, rates, ewma_time_constant)
        return list(zip(bin_ends, rates))

    def average_rate(self, start_time: float, end_time: float) -> float:
        """Mean goodput (bits/s) between two instants."""
        if end_time <= start_time:
            raise ValueError("end_time must be after start_time")
        times = np.frombuffer(self._times, dtype=float)
        inside = (times >= start_time) & (times <= end_time)
        bits = np.frombuffer(self._sizes, dtype=np.int64)[inside] * 8.0
        return sum(bits.tolist()) / (end_time - start_time)  # (left to right, not pairwise)


@dataclass
class FctTracker:
    """Collects flow-completion records from finished flows."""

    completions: List[FlowCompletion] = field(default_factory=list)

    def record(self, completion: FlowCompletion) -> None:
        self.completions.append(completion)

    @property
    def count(self) -> int:
        return len(self.completions)

    def completion_times(self) -> Dict[object, float]:
        return {c.flow_id: c.completion_time for c in self.completions}

    def average_rates(self) -> Dict[object, float]:
        """Per-flow average rate: size / completion time (bits per second)."""
        return {
            c.flow_id: 8.0 * c.size_bytes / c.completion_time
            for c in self.completions
            if c.completion_time > 0
        }
