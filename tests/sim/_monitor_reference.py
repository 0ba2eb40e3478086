"""The tuple-list rate monitor: the reference ``FlowRateMonitor`` reads are
checked against.

It keeps every delivered packet as a ``(time, size)`` tuple (about 120 B a
packet) and reads them with plain Python loops: each bin sums its packets in
arrival order, and the average sums left to right.  The production monitor
(:class:`repro.sim.monitor.FlowRateMonitor`) keeps two typed arrays and must
return the same bits.
"""

from typing import List, Optional, Tuple

from repro.analysis.convergence import ewma_filter


class TupleRateMonitor:
    def __init__(self, flow_id: object):
        self.flow_id = flow_id
        self.arrivals: List[Tuple[float, int]] = []
        self.bytes_received = 0

    def record(self, time: float, size_bytes: int) -> None:
        self.arrivals.append((time, size_bytes))
        self.bytes_received += size_bytes

    def rate_trace(
        self, interval: float, ewma_time_constant: Optional[float] = None,
        end_time: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        if not self.arrivals:
            return []
        start = self.arrivals[0][0]
        stop = end_time if end_time is not None else self.arrivals[-1][0]
        if stop <= start:
            stop = start + interval
        n_bins = max(1, int((stop - start) / interval) + 1)
        bins = [0.0] * n_bins
        for time, size in self.arrivals:
            index = min(int((time - start) / interval), n_bins - 1)
            bins[index] += size * 8.0
        times = [start + (i + 1) * interval for i in range(n_bins)]
        rates = [bits / interval for bits in bins]
        if ewma_time_constant is not None:
            rates = ewma_filter(times, rates, ewma_time_constant)
        return list(zip(times, rates))

    def average_rate(self, start_time: float, end_time: float) -> float:
        total_bits = sum(
            size * 8.0 for time, size in self.arrivals if start_time <= time <= end_time
        )
        return total_bits / (end_time - start_time)
