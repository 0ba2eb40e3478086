"""One contract: the runtime needs numpy alone.

The Oracle's two minimisers -- SPG on the dual and the Newton solve that
finishes it and pools multipath groups -- are in-repo numpy code, so no
module under ``src/`` imports scipy, and every solve, single-path, badly
scaled or pooled, runs and certifies where ``import scipy`` fails.
Importing scipy costs more than the rest of ``import repro`` together, so
it must also stay out of the import graph.  The interpreter checks need a
fresh process: this one has long imported scipy (the test-side L-BFGS-B
reference uses it).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

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
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", BLOCK_SCIPY + code], env=env, capture_output=True, text=True,
        timeout=120,
    )


def test_no_module_under_src_imports_scipy():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders


def test_import_repro_leaves_scipy_unimported():
    done = run_fresh(
        "import repro, repro.fluid.oracle, repro.scenarios.runner, repro.sweep\n"
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
    )
    assert done.returncode == 0, done.stderr


def test_three_solves_certify_with_scipy_blocked():
    """A single-path solve, finding 1's badly scaled network (SPG stops
    uncertified and Newton finishes it) and a pooled two-path network."""
    done = run_fresh(
        "from repro.core.utility import AlphaFairUtility, LogUtility\n"
        "from repro.fluid.network import FlowGroup, FluidFlow, FluidNetwork\n"
        "from repro.fluid.oracle import solve_num\n"
        "single = solve_num(FluidNetwork.single_link(10e9, 4))\n"
        "assert single.converged\n"
        "assert all(abs(rate - 2.5e9) <= 2.5e3 for rate in single.rates.values())\n"
        "hard = FluidNetwork({'a': 10e9, 'b': 3e9, 'c': 7e9})\n"
        "hard.add_flow(FluidFlow(1, ('a', 'b'), LogUtility()))\n"
        "hard.add_flow(FluidFlow(2, ('b', 'c'), AlphaFairUtility(alpha=2.0)))\n"
        "hard.add_flow(FluidFlow(3, ('a', 'c'), LogUtility(weight=2.0)))\n"
        "hard.add_flow(FluidFlow(4, ('a',), AlphaFairUtility(alpha=0.5)))\n"
        "finding = solve_num(hard)\n"
        "assert finding.converged and hard.is_feasible(finding.rates)\n"
        "network = FluidNetwork({'p1': 4e9, 'p2': 6e9})\n"
        "network.add_group(FlowGroup('g', LogUtility()))\n"
        "network.add_flow(FluidFlow('s1', ('p1',), LogUtility(), group_id='g'))\n"
        "network.add_flow(FluidFlow('s2', ('p2',), LogUtility(), group_id='g'))\n"
        "pooled = solve_num(network)\n"
        "assert pooled.converged\n"
        "assert abs(sum(pooled.rates.values()) - 10e9) <= 1e4\n"
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
    )
    assert done.returncode == 0, done.stderr


def test_single_path_scenarios_run_without_scipy():
    """The Fig. 4 semi-dynamic scenario (a cold Oracle solve per churn
    event) and a fluid star scenario (a cold Oracle reference) complete in
    an interpreter where ``import scipy`` fails."""
    done = run_fresh(
        "from repro.scenarios.catalog import (\n"
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
