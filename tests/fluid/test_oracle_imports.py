"""scipy is imported where it is used, not by ``import repro``.

Only the cold reference solve (``solve_num`` -> L-BFGS-B) and the SLSQP
fallbacks call scipy; every dynamic run, sweep worker and agent solves with
the in-repo SPG loop.  Importing scipy costs more than the rest of
``import repro`` together, so it must stay out of the import graph -- and the
function-local import must still find it.  Both checks need a fresh
interpreter: this one has long imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


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


def test_cold_solve_num_imports_scipy_on_first_use():
    done = run_fresh(
        "import sys\n"
        "from repro.fluid.network import FluidNetwork\n"
        "from repro.fluid.oracle import solve_num\n"
        "assert 'scipy' not in sys.modules\n"
        "result = solve_num(FluidNetwork.single_link(10e9, 4))\n"
        "assert 'scipy.optimize' in sys.modules and result.converged\n"
        "assert all(abs(rate - 2.5e9) <= 2.5e3 for rate in result.rates.values())\n"
    )
    assert done.returncode == 0, done.stderr
