"""The generated case, byte for byte, against ``tests/golden/case_bytes.json``.

For each (temperature, overpotential) point and refinement the file keeps the
sha1 of every block's arrays, of the right-hand side, of the manufactured
solution and of the ``regime`` facts. T = 600 lies below the melt
temperature, so it covers the frozen branch, which the golden solve facts
never reach. T = 625 is the melt temperature itself: the first temperature
off the frozen branch, with the melt mask at one half. Refinement 3 is the
case the benchmark builds. A change that is meant to move the case rewrites
the file with

    python tests/test_case_bytes.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from blocksolve.battery import CaseConfig, build_case

GOLDEN = Path(__file__).resolve().parent / "golden" / "case_bytes.json"
# (temperature, overpotential) points x refinements
CASES = {f"T{t:g}/eta{eta:g}/r{r}": CaseConfig(temperature=t, overpotential=eta, refinement=r)
         for t, eta in ((800.0, 2.0), (600.0, 2.0), (625.0, 2.0), (800.0, 3.0))
         for r in (0, 1, 2, 3)}


def _sha1(*arrays):
    h = hashlib.sha1()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def case_digests(config):
    """The digests of the case ``config`` builds."""
    case = build_case(config)
    system = case.system
    return {
        "blocks": {f"{rf}/{cf}": f"{M.shape} " + _sha1(M.indptr, M.indices, M.data)
                   for (rf, cf), M in sorted(system.blocks.items())},
        "rhs": _sha1(system.rhs_vector()),
        "solution": _sha1(case.solution),
        "regime": hashlib.sha1(json.dumps(case.regime, sort_keys=True).encode()).hexdigest(),
    }


@pytest.mark.parametrize("key", CASES)
def test_case_bytes_match_the_golden_file(key):
    assert case_digests(CASES[key]) == json.loads(GOLDEN.read_text())[key]


if __name__ == "__main__" and "--write" in sys.argv:
    GOLDEN.write_text(json.dumps({k: case_digests(c) for k, c in CASES.items()}, indent=1)
                      + "\n")
    print(f"wrote {GOLDEN}")
