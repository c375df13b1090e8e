import os
import subprocess
import sys
from pathlib import Path

import pytest

from mstd_chains import IntegerSet

REPO = Path(__file__).resolve().parents[1]

CONWAY = (0, 2, 3, 4, 7, 11, 12, 14)

# seed of the linear fill-in example sequence, split at n = 10
FILL2_L = (1, 3, 4, 8, 9)
FILL2_R = (12, 13, 15, 18, 19, 20)
FILL2_N = 10

# strict fringe-shift parameters reproducing the explicit non-fill sequence
THM31_STRICT = {"L": (0, 1, 2, 5, 8), "R": (0, 1, 3, 4, 8), "n": 8, "m": 10}
# generalized-mode parameters with the slowest diameter growth
THM31_GENERAL = {"L": (0, 1, 3, 7), "R": (0, 1, 2, 4, 7), "n": 7, "m": 8}


@pytest.fixture
def conway() -> IntegerSet:
    return IntegerSet(CONWAY)


@pytest.fixture
def fill2_seed() -> tuple[IntegerSet, IntegerSet, int]:
    return IntegerSet(FILL2_L), IntegerSet(FILL2_R), FILL2_N


def naive_sums(elements) -> set[int]:
    """Reference double loop, independent of the package internals."""
    els = list(elements)
    return {a + b for a in els for b in els}


def naive_diffs(elements) -> set[int]:
    els = list(elements)
    return {a - b for a in els for b in els}


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports the package from this checkout."""
    path = [str(REPO / "src")] + ([os.environ["PYTHONPATH"]]
                                  if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
