"""Scenario smoke suite: every registered scenario, every supported engine.

Each case builds a registered scenario at toy scale and executes it on one
of the engines it declares -- the regression net for "adding a scenario
means writing a spec": if a spec/engine combination breaks, exactly one
case fails.  Beyond shape checks, every case gates on engine physics
(finite non-negative rates, per-link load within capacity, byte-conserving
completions) and on a bit-identical rerun under the fixed seed.  Marked
``scenario_smoke`` so CI can run the sweep explicitly
(``pytest -m scenario_smoke``); deselect with ``-m "not scenario_smoke"``.
"""

import math

import pytest

from repro.scenarios import get_scenario, list_scenarios, run_scenario

CASES = [
    (entry.name, engine) for entry in list_scenarios() for engine in entry.engines
]

#: Allowed transient overshoot of link capacity in *final* fluid rates: the
#: control loops converge asymptotically, so a toy-scale run can stop while
#: a link still carries a few percent more than capacity.
FLUID_CAPACITY_MARGIN = 1.15


@pytest.mark.scenario_smoke
@pytest.mark.parametrize("name,engine", CASES, ids=[f"{n}@{e}" for n, e in CASES])
def test_scenario_toy_scale(name, engine):
    spec = get_scenario(name, scale="toy")
    result = run_scenario(spec, engine=engine, seed=20)
    assert result.artifacts["engine"] == engine
    assert result.rows, f"{name} on {engine} produced no rows"
    artifacts = result.artifacts
    if engine == "fluid":
        assert (
            "final_rates" in artifacts
            or "convergence_seconds" in artifacts
            or "convergence" in artifacts
        )
        _assert_fluid_physics(artifacts)
    else:
        assert "completions" in artifacts or "network" in artifacts
        _assert_completion_physics(artifacts)
        if engine == "packet":
            _assert_packet_physics(artifacts)

    # Determinism: the seed pins workload draws, ECMP tie-breaks and fault
    # timelines, so a rerun of the same spec is bit-identical.
    rerun = run_scenario(get_scenario(name, scale="toy"), engine=engine, seed=20)
    assert result.rows == rerun.rows, f"{name} on {engine} is not deterministic"


def _assert_fluid_physics(artifacts):
    """Final rates are finite, non-negative and (nearly) feasible."""
    final_rates = artifacts.get("final_rates")
    network = artifacts.get("network")
    if not final_rates or network is None:
        return  # convergence/semidynamic measurements report iterations only
    for flow_id, rate in final_rates.items():
        assert math.isfinite(rate), f"{flow_id} rate is {rate}"
        assert rate >= 0.0
    load = network.link_load(final_rates)
    for link, capacity in network.capacities.items():
        assert load[link] <= capacity * FLUID_CAPACITY_MARGIN + 1.0, (
            f"link {link} carries {load[link]:.3e} over capacity {capacity:.3e}"
        )


def _assert_completion_physics(artifacts):
    """Completions conserve bytes and their times are ordered."""
    completions = artifacts.get("completions")
    if completions is None:
        return
    arrivals = artifacts.get("arrivals") or ()
    sizes = {arrival.flow_id: arrival.size_bytes for arrival in arrivals}
    for flow in completions:
        assert flow.finish_time > flow.start_time >= 0.0
        rate = 8.0 * flow.size_bytes / (flow.finish_time - flow.start_time)
        assert math.isfinite(rate)
        assert rate > 0.0
        if flow.flow_id in sizes:
            assert flow.size_bytes == sizes[flow.flow_id]


def _assert_packet_physics(artifacts):
    """Every sized flow completes, and no port transmitted more bytes than
    its line rate allows."""
    if "arrivals" in artifacts:  # persistent (fanout) flows never complete
        assert len(artifacts["completions"]) == len(artifacts["arrivals"])
    network = artifacts.get("network")
    if network is None or not hasattr(network, "ports"):
        return
    elapsed = network.simulator.now
    assert elapsed > 0.0
    for port in network.ports:
        budget = port.rate_bps * elapsed / 8.0
        assert port.bytes_transmitted <= budget * 1.01 + 1e4, (
            f"port {port.name} transmitted {port.bytes_transmitted} bytes, "
            f"line-rate budget is {budget:.0f}"
        )
