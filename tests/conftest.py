import os
from pathlib import Path

import pytest

from moduli_sys.system import classify

from helpers import f2_systems, sweep_shapes

# Tests that start `python -m moduli_sys` in a child process need the
# child to import this checkout's sources, as the test process does.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def f2_sweep():
    """All F_2 systems with n <= 2, m in {1,2}, p in {0,1,2}, classified."""
    systems = f2_systems(sweep_shapes(n_max=2))
    return [(s, classify(s)) for s in systems]
