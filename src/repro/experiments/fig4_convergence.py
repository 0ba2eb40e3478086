"""Figure 4: convergence in the semi-dynamic scenario.

* Fig. 4(a): CDF of per-event convergence times for NUMFabric, DGD and
  RCP* (95% of flows within 10% of the Oracle allocation).
* Fig. 4(b)/(c): the rate of one flow over time under DCTCP (never settles)
  versus NUMFabric (locks onto the optimal rate).

The experiment runs on the fluid engine: each iteration of a scheme is one
of its update intervals, so iteration counts convert directly to
microseconds.  The network is the paper's 128-server leaf-spine fabric with
proportional-fairness utilities.

Both harnesses are thin layers over the scenario subsystem: the
semi-dynamic event loop and the mid-run departure churn live in
:func:`~repro.scenarios.run_scenario`'s fluid engine, and each scheme runs
the identical seeded scenario spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.stats import percentile
from repro.results import ExperimentResult
from repro.fluid.convergence import ConvergenceCriterion
from repro.scenarios.catalog import semidynamic_convergence_spec, single_link_churn_spec
from repro.scenarios.runner import run_scenario


@dataclass
class ConvergenceSettings:
    """Scaled-down defaults; ``paper_scale()`` gives the published setup."""

    num_servers: int = 32
    num_leaves: int = 4
    num_spines: int = 4
    num_paths: int = 200
    flows_per_event: int = 20
    min_active: int = 60
    max_active: int = 100
    num_events: int = 5
    max_iterations: int = 300
    seed: int = 1

    @classmethod
    def paper_scale(cls) -> "ConvergenceSettings":
        return cls(
            num_servers=128,
            num_leaves=8,
            num_spines=4,
            num_paths=1000,
            flows_per_event=100,
            min_active=300,
            max_active=500,
            num_events=100,
        )


def run_convergence_cdf(
    settings: Optional[ConvergenceSettings] = None,
    criterion: Optional[ConvergenceCriterion] = None,
) -> ExperimentResult:
    """Reproduce Fig. 4(a): per-event convergence times of the three schemes.

    All three schemes (xWI, DGD, RCP*) iterate on the NumPy fluid engine --
    allocations agree with the scalar references to ~1e-12, and the
    ``paper_scale()`` setting with hundreds of concurrent flows per event
    is practical.

    Each scheme runs the *same* seeded scenario spec, so all three see an
    identical sequence of network events.
    """
    settings = settings or ConvergenceSettings()
    criterion = criterion or ConvergenceCriterion(hold_iterations=3)

    # All three schemes replay the identical seeded event sequence, so the
    # per-event Oracle reference allocations are shared through one cache.
    oracle_cache: Dict = {}
    convergence_times: Dict[str, List[float]] = {}
    for scheme_name in ("NUMFabric", "DGD", "RCP*"):
        spec = semidynamic_convergence_spec(
            scheme_name=scheme_name,
            num_servers=settings.num_servers,
            num_leaves=settings.num_leaves,
            num_spines=settings.num_spines,
            num_paths=settings.num_paths,
            flows_per_event=settings.flows_per_event,
            min_active=settings.min_active,
            max_active=settings.max_active,
            num_events=settings.num_events,
            max_iterations=settings.max_iterations,
            seed=settings.seed,
        )
        run = run_scenario(spec, criterion=criterion, oracle_cache=oracle_cache)
        convergence_times[scheme_name] = run.artifacts["convergence_seconds"]

    result = ExperimentResult(
        experiment_id="fig4a",
        title="CDF of convergence time after semi-dynamic network events",
        paper_reference="Figure 4(a)",
    )
    for name, times in convergence_times.items():
        result.add_row(
            scheme=name,
            events=len(times),
            median_us=percentile(times, 50.0) * 1e6,
            p95_us=percentile(times, 95.0) * 1e6,
            mean_us=sum(times) / len(times) * 1e6,
        )
    numfabric_median = percentile(convergence_times["NUMFabric"], 50.0)
    dgd_median = percentile(convergence_times["DGD"], 50.0)
    rcp_median = percentile(convergence_times["RCP*"], 50.0)
    speedup = (
        min(dgd_median, rcp_median) / numfabric_median if numfabric_median > 0 else float("inf")
    )
    result.notes = (
        f"NUMFabric converges {speedup:.1f}x faster than the best gradient-based scheme "
        f"at the median (the paper reports ~2.3x at the median, ~2.7x at the 95th percentile)."
    )
    return result


def run_rate_timeseries(
    num_flows: int = 20,
    link_capacity: float = 10e9,
    iterations: int = 400,
    change_at: int = 200,
) -> ExperimentResult:
    """Reproduce Fig. 4(b)/(c): a typical flow's rate under DCTCP vs NUMFabric.

    A population of flows shares one bottleneck; half of them leave at
    ``change_at`` to emulate a network event.  Under DCTCP the tracked
    flow's rate keeps oscillating, while NUMFabric locks onto the optimal
    rate within a few price updates.
    """
    timeseries: Dict[str, List[Dict]] = {}
    for scheme_name in ("DCTCP", "NUMFabric"):
        spec = single_link_churn_spec(
            scheme_name=scheme_name,
            num_flows=num_flows,
            link_capacity=link_capacity,
            iterations=iterations,
            change_at=change_at,
        )
        timeseries[scheme_name] = run_scenario(spec).artifacts["timeseries"]

    result = ExperimentResult(
        experiment_id="fig4bc",
        title="Rate of a typical flow: DCTCP vs NUMFabric",
        paper_reference="Figure 4(b), 4(c)",
    )
    # One xWI iteration is one price-update interval.
    from repro.core.config import NumFabricParameters

    seconds_per_iteration = NumFabricParameters().price_update_interval
    for step in range(iterations):
        expected = link_capacity / (num_flows if step < change_at else num_flows // 2)
        result.add_row(
            step=step,
            time_us=step * seconds_per_iteration * 1e6,
            dctcp_rate_gbps=timeseries["DCTCP"][step].get(0, 0.0) / 1e9,
            numfabric_rate_gbps=timeseries["NUMFabric"][step].get(0, 0.0) / 1e9,
            expected_rate_gbps=expected / 1e9,
        )
    result.notes = (
        "DCTCP rates oscillate around the fair share and never stay within 10% of it; "
        "NUMFabric settles on the expected rate within a few price-update intervals."
    )
    return result
