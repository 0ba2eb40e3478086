"""``import repro`` pins BLAS to one thread unless the caller chose otherwise.

The Oracle's Newton directions are dense ``np.linalg.solve`` calls; with a
BLAS thread per core and another busy process on the machine they ran ~30x
slower.  The package sets the thread variables before its first import loads
numpy, so the check needs a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def threads_after_import(**preset: str) -> list:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import os, sys\n"
        "import repro\n"
        "assert 'numpy' in sys.modules\n"
        f"print(*(os.environ.get(name) for name in {THREAD_VARIABLES!r}))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_sets_one_thread():
    assert threads_after_import() == ["1", "1", "1"]


def test_a_preset_value_is_kept():
    assert threads_after_import(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]
