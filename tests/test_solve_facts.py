"""A fresh run of the golden solves against ``tests/golden/solve_facts.json``
(see ``solve_facts.py``): counts and traced events exactly, results to
1e-6 relative. The script runs in its own process, which it starts with one
BLAS thread."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "solve_facts.py"


def test_solve_facts_match_the_golden_file():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         timeout=600, check=False)
    assert run.returncode == 0, run.stdout + run.stderr
