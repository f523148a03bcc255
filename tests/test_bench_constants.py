"""The benchmark recomputes every `beta0` bound with its own constants
(`perfbench/checks.py`); a value changed on one side only would show only as
a benchmark run refused for wrong outputs. This loads the checks by path and
compares their constants with the program's.
"""

import importlib.util
from pathlib import Path

from gupsim import dynamics

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def test_constants_match_the_program():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    assert checks.HBAR == dynamics.HBAR
    assert checks.L_P == dynamics.L_P
