"""One contract: no single-path Oracle solve imports scipy.

Every single-path solve -- cold ``solve_num``, the persistent solver,
every dynamic run, sweep worker and agent -- minimises with the in-repo
SPG loop and certifies its own answer; nothing falls back to a scipy
solve, not even on a network SPG does not converge on.  Only
``solve_num_multipath`` calls scipy.  Importing scipy costs more than the
rest of ``import repro`` together, so it must stay out of the import graph
and out of single-path runs -- and the function-local import must still
find it.  All checks need a fresh interpreter: this one has long imported
scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Prepended to a fresh interpreter's code: any ``import scipy`` raises.
BLOCK_SCIPY = (
    "import sys\n"
    "class _NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'scipy' or name.startswith('scipy.'):\n"
    "            raise ImportError(f'{name} is blocked')\n"
    "sys.meta_path.insert(0, _NoScipy())\n"
)


def run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_repro_leaves_scipy_unimported():
    done = run_fresh(
        "import repro, repro.fluid.oracle, repro.scenarios.runner, repro.sweep, sys; "
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
    )
    assert done.returncode == 0, done.stderr


def test_cold_solve_num_leaves_scipy_to_multipath():
    done = run_fresh(
        "import sys\n"
        "from repro.core.utility import LogUtility\n"
        "from repro.fluid.network import FlowGroup, FluidFlow, FluidNetwork\n"
        "from repro.fluid.oracle import solve_num, solve_num_multipath\n"
        "result = solve_num(FluidNetwork.single_link(10e9, 4))\n"
        "assert 'scipy' not in sys.modules and result.converged\n"
        "assert all(abs(rate - 2.5e9) <= 2.5e3 for rate in result.rates.values())\n"
        # Badly scaled: SPG stops at its cap uncertified, and that is the answer.
        "from repro.core.utility import AlphaFairUtility\n"
        "from repro.fluid.oracle import PersistentDualSolver\n"
        "hard = FluidNetwork({'a': 10e9, 'b': 3e9, 'c': 7e9})\n"
        "hard.add_flow(FluidFlow(1, ('a', 'b'), LogUtility()))\n"
        "hard.add_flow(FluidFlow(2, ('b', 'c'), AlphaFairUtility(alpha=2.0)))\n"
        "hard.add_flow(FluidFlow(3, ('a', 'c'), LogUtility(weight=2.0)))\n"
        "hard.add_flow(FluidFlow(4, ('a',), AlphaFairUtility(alpha=0.5)))\n"
        "for result in (solve_num(hard), PersistentDualSolver().solve(hard)):\n"
        "    assert not result.converged and hard.is_feasible(result.rates)\n"
        "assert 'scipy' not in sys.modules\n"
        "network = FluidNetwork({'p1': 4e9, 'p2': 6e9})\n"
        "network.add_group(FlowGroup('g', LogUtility()))\n"
        "network.add_flow(FluidFlow('s1', ('p1',), LogUtility(), group_id='g'))\n"
        "network.add_flow(FluidFlow('s2', ('p2',), LogUtility(), group_id='g'))\n"
        "network.group('g').member_ids = ('s1', 's2')\n"
        "pooled = solve_num_multipath(network)\n"
        "assert 'scipy.optimize' in sys.modules\n"
        "assert abs(sum(pooled.rates.values()) - 10e9) <= 1e8\n"
    )
    assert done.returncode == 0, done.stderr


def test_single_path_scenarios_run_without_scipy():
    """The Fig. 4 semi-dynamic scenario (a cold Oracle solve per churn
    event) and a fluid star scenario (a cold Oracle reference) complete in
    an interpreter where ``import scipy`` fails."""
    done = run_fresh(
        BLOCK_SCIPY
        + "from repro.scenarios.catalog import (\n"
        "    semidynamic_convergence_spec, star_convergence_spec)\n"
        "from repro.scenarios.runner import run_scenario\n"
        "semidynamic = run_scenario(semidynamic_convergence_spec(\n"
        "    num_paths=40, flows_per_event=5, min_active=10, max_active=20,\n"
        "    num_events=2, max_iterations=60))\n"
        "assert len(semidynamic.rows) == 2, semidynamic.rows\n"
        "star = run_scenario(star_convergence_spec(alpha=2.0, num_flows=10,\n"
        "                                          max_iterations=200))\n"
        "assert star.rows and 'oracle_rates' in star.artifacts\n"
        "assert 'scipy' not in sys.modules\n"
    )
    assert done.returncode == 0, done.stderr
