"""Python calls and C calls per operation, counted in expann's own code.

Much of an in-process operation's time is the fixed cost of each call, so
the number of calls is a measure of its work that does not depend on the
host's speed.  Only calls made from expann's code count: a Python call
whose code lives in the expann package, and a C call (a ``c_call`` profile
event: a builtin function or method, array methods and ufunc methods such
as ``np.maximum.reduce`` among them) made from a frame whose code lives
there.  A call of a ufunc itself (``np.absolute``), of a dispatched numpy
function such as ``np.concatenate``, or of one of numpy's Python helpers
(``np.errstate``) raises no ``c_call`` event, so a change that adds a
whole array pass through one of them can leave the C count unchanged.
numpy's Python wrappers and the code that dataclasses and namedtuples
generate differ between versions, expann's own functions do not.  The C
count is what a no-op conversion such as an ``astype`` to the array's own
type adds.  An older numpy, whose functions are Python wrappers, makes some
of these C calls from its own frames, so it can only lower the C count.  A
change that adds calls on these paths raises its bound here on purpose.

Both counts can rise while the work falls.  A dataclass-generated
``__init__`` runs in a ``<string>`` frame, which is not counted, and the
profiler reports no ``c_call`` for ``object.__setattr__``, a slot wrapper.
So when each frozen value came to store its fields in one write, giving
``CoshEstimate`` and ``DetectionReport`` their own ``__init__`` added a
Python call per object, and each ``__dict__.update`` that stores several
fields at once added a C call where one ``setattr`` per field had added none.

Run as a script, this prints each operation's counts.
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

# Python calls and C calls per operation, at most
BUDGET = {"detect-single": 28, "detect-robust": 50, "auto_refine": 40}
C_BUDGET = {"detect-single": 30, "detect-robust": 46, "auto_refine": 48}


def _expann_calls(fn) -> tuple[int, int]:
    """Python calls into expann's code, and C calls made from it, by one call
    of fn, after a first call that warms any cache."""
    fn()
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts and frame.f_code.co_filename.startswith(PACKAGE):
            counts[event] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return counts["call"], counts["c_call"]


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
    calls, _ = _expann_calls(run)
    # a count of zero would mean the counter missed expann's frames
    assert 0 < calls <= BUDGET[name], f"{name} made {calls} Python calls in expann, budget {BUDGET[name]}"
    assert _expann_calls(run)[0] == calls


@pytest.mark.parametrize("name", sorted(C_BUDGET))
def test_c_calls_per_operation_within_budget(name):
    run = _operations()[name]
    _, calls = _expann_calls(run)
    assert 0 < calls <= C_BUDGET[name], f"{name} made {calls} C calls from expann, budget {C_BUDGET[name]}"
    assert _expann_calls(run)[1] == calls


if __name__ == "__main__":
    for name, run in _operations().items():
        calls, c_calls = _expann_calls(run)
        print(f"{name}: {calls} Python calls (budget {BUDGET[name]}), "
              f"{c_calls} C calls (budget {C_BUDGET[name]})")
