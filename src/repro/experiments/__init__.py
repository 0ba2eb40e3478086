"""Experiment harnesses: one module per table/figure of the paper's evaluation.

Every harness returns an :class:`~repro.results.ExperimentResult` whose rows
mirror the series the paper plots, so a benchmark (or a user at a REPL) can
print the same numbers the figure shows.  Default parameters are scaled down
so each harness completes in seconds; pass ``settings=`` its settings
class's ``paper_scale()`` (e.g. ``DeviationSettings.paper_scale()``), or
build the catalog scenario with ``get_scenario(name, scale="paper")``, to
run the published configuration.

Since the scenario-subsystem refactor every harness is a thin layer: it
builds declarative specs (:mod:`repro.scenarios.catalog`), submits them to
:func:`repro.scenarios.run_scenario` and post-processes the returned rows
and artifacts into the figure's series.
"""

from repro.results import ExperimentResult, format_table
from repro.experiments.fig4_convergence import (
    run_convergence_cdf,
    run_rate_timeseries,
)
from repro.experiments.fig5_dynamic import run_deviation_experiment
from repro.experiments.fig6_sensitivity import (
    run_alpha_sensitivity,
    run_delay_slack_sensitivity,
    run_price_interval_sensitivity,
)
from repro.experiments.fig7_fct import run_fct_comparison, run_fct_flow_level
from repro.experiments.fig8_resource_pooling import run_resource_pooling
from repro.experiments.fig9_bwfunctions import run_bandwidth_function_sweep
from repro.experiments.fig10_bwfunc_pooling import run_bwfunction_pooling_timeseries
from repro.experiments.table1_utilities import run_table1_allocations
from repro.experiments.table2_parameters import run_table2_parameters

__all__ = [
    "ExperimentResult",
    "format_table",
    "run_convergence_cdf",
    "run_rate_timeseries",
    "run_deviation_experiment",
    "run_delay_slack_sensitivity",
    "run_price_interval_sensitivity",
    "run_alpha_sensitivity",
    "run_fct_comparison",
    "run_fct_flow_level",
    "run_resource_pooling",
    "run_bandwidth_function_sweep",
    "run_bwfunction_pooling_timeseries",
    "run_table1_allocations",
    "run_table2_parameters",
]
