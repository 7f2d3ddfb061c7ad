"""Python calls per operation, counted in expann's own code.

Much of an in-process operation's time is the fixed cost of each call, so
the number of calls is a measure of its work that does not depend on the
host's speed.  Only frames whose code lives in the expann package count:
numpy's Python wrappers and the code that dataclasses and namedtuples
generate differ between versions, expann's own functions do not.  A change
that adds calls on these paths raises its bound here on purpose.
"""

import os
import sys

import pytest

import expann
from expann.detection import detect
from expann.expspace import FrequencyVector, GridSamples, sample
from expann.oracle import SplitMix64, random_symmetric_sum
from expann.subdivision import auto_refine

PACKAGE = os.path.dirname(os.path.abspath(expann.__file__)) + os.sep

# calls per operation, at most
BUDGET = {"detect-single": 27, "detect-robust": 47, "auto_refine": 40}


def _expann_calls(fn) -> int:
    """Python calls into expann's code made by one call of fn, after a first
    call that warms any cache."""
    fn()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def _operations():
    # a robust-mid-sized real window at level 3, its centre and its centre row
    f = random_symmetric_sum(SplitMix64(1), FrequencyVector(0.8, 0.3j))
    z = sample(f, 3, (-3, -3), 32, 32)
    grid = GridSamples(3, z.origin, 32, 32, z.values.real)
    centre = (grid.origin[0] + 16, grid.origin[1] + 16)
    row = grid.values[16].copy()
    return {
        "detect-single": lambda: detect(grid, centre),
        "detect-robust": lambda: detect(grid, centre, mode="robust"),
        "auto_refine": lambda: auto_refine(row, 3, 4),
    }


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_python_calls_per_operation_within_budget(name):
    run = _operations()[name]
    calls = _expann_calls(run)
    # a count of zero would mean the counter missed expann's frames
    assert 0 < calls <= BUDGET[name], f"{name} made {calls} Python calls in expann, budget {BUDGET[name]}"
    assert _expann_calls(run) == calls
