"""Every example script runs to completion (exit 0) on the current tree.

Each runs in a fresh interpreter from a temporary working directory, so an
example that writes files leaves nothing in the checkout.
``streaming_replay.py`` is left out: its export / stream / interrupt /
resume round trip takes ~7 s, more than all the others together, and the
streaming runner's own suites (``tests/scenarios``) cover that path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW = {"streaming_replay.py"}
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py") if path.name not in SLOW)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
