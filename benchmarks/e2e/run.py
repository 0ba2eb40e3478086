#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark; see ``README.md`` beside this file.

``python3 benchmarks/e2e/run.py`` runs every workload and prints every metric.
The work is in :mod:`e2e.harness`; this file only makes the ``e2e`` package
importable, which needs the directory *above* this one on ``sys.path`` and
this one off it (its ``trace.py`` would shadow the standard library's).
"""

import sys
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != here]
    sys.path.insert(0, str(here.parent))
    from e2e import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
