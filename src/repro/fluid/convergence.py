"""Convergence-time measurement (Sec. 6.1's criterion).

The paper declares convergence of a network event when the rates of at
least 95% of the flows are within 10% of the optimal NUM allocation, and
remain there for at least 5 ms.  The fluid engine measures this in
iterations; :func:`iterations_to_seconds` converts using the scheme's
update interval so results are reported in the paper's units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.fluid.vectorized import RateGather

FlowId = object


@dataclass(frozen=True)
class ConvergenceCriterion:
    """Parameters of the paper's convergence test."""

    flow_fraction: float = 0.95
    rate_tolerance: float = 0.10
    hold_iterations: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.flow_fraction <= 1.0:
            raise ValueError("flow_fraction must be in (0, 1]")
        if self.rate_tolerance <= 0.0:
            raise ValueError("rate_tolerance must be positive")
        if self.hold_iterations < 1:
            raise ValueError("hold_iterations must be at least 1")


def fraction_converged(
    rates: Mapping[FlowId, float],
    optimal_rates: Mapping[FlowId, float],
    tolerance: float,
) -> float:
    """Fraction of flows whose rate is within ``tolerance`` of its optimum."""
    if not optimal_rates:
        return 1.0
    within = 0
    for flow_id, optimal in optimal_rates.items():
        rate = rates.get(flow_id, 0.0)
        if optimal <= 0.0:
            within += 1 if rate <= tolerance else 0
            continue
        if abs(rate - optimal) <= tolerance * optimal:
            within += 1
    return within / len(optimal_rates)


class _VectorCriterion:
    """:func:`fraction_converged` on array-backed records: the same
    comparisons, elementwise on the record's rates in the optimum's flow
    order (a flow absent from the record reads rate 0)."""

    def __init__(self, optimal_rates: Mapping[FlowId, float], tolerance: float):
        self.flows = list(optimal_rates)
        self.optimal = np.fromiter(optimal_rates.values(), dtype=float, count=len(self.flows))
        self.idle = self.optimal <= 0.0
        self.slack = tolerance * self.optimal
        self.tolerance = tolerance
        self._gather = RateGather()

    def fraction(self, record) -> float:
        if not self.flows:
            return 1.0
        rates = self._gather(record, self.flows)
        within = np.where(
            self.idle, rates <= self.tolerance, np.abs(rates - self.optimal) <= self.slack
        )
        return int(np.count_nonzero(within)) / len(self.flows)


class ConvergenceJudge:
    """The convergence criterion judged online, one iteration at a time.

    Feed each iteration's rates to :meth:`observe` as the simulator hands
    them out -- a rate mapping or an iteration record; a record that
    carries its rates as a vector is judged on the vector, so no
    per-iteration rate dict is ever built.  :attr:`verdict` is the first
    iteration after which the criterion has held for ``hold_iterations``
    consecutive iterations, or ``None`` until it has; nothing is kept per
    iteration, so a caller that only needs the verdict keeps no history.
    """

    def __init__(
        self,
        optimal_rates: Mapping[FlowId, float],
        criterion: Optional[ConvergenceCriterion] = None,
    ):
        self.optimal_rates = optimal_rates
        self.criterion = criterion or ConvergenceCriterion()
        self.verdict: Optional[int] = None
        self._vectorized: Optional[_VectorCriterion] = None
        self._observed = 0
        self._run_length = 0

    def observe(self, rates) -> Optional[int]:
        """Judge the next iteration; return :attr:`verdict`.

        Once a verdict is reached, further records are not looked at.
        """
        if self.verdict is not None:
            return self.verdict
        criterion = self.criterion
        if getattr(rates, "rate_vec", None) is not None:
            if self._vectorized is None:
                self._vectorized = _VectorCriterion(self.optimal_rates, criterion.rate_tolerance)
            fraction = self._vectorized.fraction(rates)
        else:
            fraction = fraction_converged(
                getattr(rates, "rates", rates), self.optimal_rates, criterion.rate_tolerance
            )
        index = self._observed
        self._observed += 1
        if fraction >= criterion.flow_fraction:
            self._run_length += 1
            if self._run_length >= criterion.hold_iterations:
                self.verdict = index - criterion.hold_iterations + 1
        else:
            self._run_length = 0
        return self.verdict


def convergence_iterations(
    rate_history: Iterable[Mapping[FlowId, float]],
    optimal_rates: Mapping[FlowId, float],
    criterion: Optional[ConvergenceCriterion] = None,
) -> Optional[int]:
    """First iteration after which the convergence criterion holds.

    Returns ``None`` if the criterion is never satisfied (and held for
    ``hold_iterations`` consecutive iterations) within the recorded history.

    ``rate_history`` holds one entry per iteration, each judged as
    :meth:`ConvergenceJudge.observe` judges it; this is that judge run over
    a kept history.
    """
    judge = ConvergenceJudge(optimal_rates, criterion)
    for rates in rate_history:
        if judge.observe(rates) is not None:
            break
    return judge.verdict


def iterations_to_seconds(
    iterations: Optional[int], seconds_per_iteration: float
) -> Optional[float]:
    """Convert an iteration count into wall-clock time."""
    if iterations is None:
        return None
    return iterations * seconds_per_iteration


def per_flow_convergence(
    rate_history: Sequence[Mapping[FlowId, float]],
    optimal_rates: Mapping[FlowId, float],
    tolerance: float = 0.10,
) -> Dict[FlowId, Optional[int]]:
    """Per-flow iteration at which the flow first reaches (and keeps) its optimum.

    A flow counts as converged at iteration ``t`` if its rate stays within
    ``tolerance`` of the optimum from ``t`` to the end of the history.
    """
    result: Dict[FlowId, Optional[int]] = {}
    for flow_id, optimal in optimal_rates.items():
        converged_at: Optional[int] = None
        for index in range(len(rate_history) - 1, -1, -1):
            rate = rate_history[index].get(flow_id, 0.0)
            if optimal <= 0.0:
                ok = rate <= tolerance
            else:
                ok = abs(rate - optimal) <= tolerance * optimal
            if ok:
                converged_at = index
            else:
                break
        result[flow_id] = converged_at
    return result


def rates_over_time(
    rate_history: Sequence[Mapping[FlowId, float]], flow_id: FlowId
) -> List[float]:
    """Extract one flow's rate trajectory from a rate history."""
    return [rates.get(flow_id, 0.0) for rates in rate_history]
