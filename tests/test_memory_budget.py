"""Peak memory per command-line stage on a 256x256 grid, as a multiple of
the array the stage makes, or for detection of the grid it reads.

``tracemalloc`` sees numpy's buffers as well as Python objects, so its peak
over one call counts every temporary the stage holds at once, and does not
depend on the host's speed or on the allocator's reuse of freed pages.  The
input of each stage is built before tracing starts.  A change that adds
memory on these paths raises its bound here on purpose.

Run as a script, this prints each stage's ratio.
"""

import json
import tracemalloc

import numpy as np
import pytest

from expann.detection import detect
from expann.expspace import FrequencyVector, GridSamples, sample
from expann.jsonio import load_grid
from expann.operators import IntegerStep, chain_apply, reduced_chain_for_symmetric_set
from expann.oracle import SplitMix64, random_symmetric_sum

N = 256
G = FrequencyVector(0.8, 0.3j)

# peak traced bytes per byte of the stage's array, at most
BUDGET = {
    "load_grid": 5.5, "sample": 3.5, "chain_apply": 2.5,
    "detect-single": 5.5, "detect-robust": 11.5,
}


def _peak(fn):
    """fn's result and the peak bytes traced during the call, above what was
    traced when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak


def _stages():
    """Each stage as a call that returns the array its bound is relative to."""
    plain = np.random.default_rng(0).standard_normal(N * N).tolist()
    text = json.dumps({"level": 2, "origin": [-3, -3], "width": N, "height": N, "values": plain})
    f = random_symmetric_sum(SplitMix64(1), G)
    assert len(f.terms) == 5
    grid = sample(f, 2, (-3, -3), N, N)
    chain = reduced_chain_for_symmetric_set(G, (0, 1), IntegerStep(1, 1))
    # detection reads the real part of the grid, at its centre
    real = GridSamples(2, grid.origin, N, N, grid.values.real)
    centre = (real.origin[0] + N // 2, real.origin[1] + N // 2)

    def detected(mode):
        detect(real, centre, mode=mode)
        return real.values

    return {
        "load_grid": lambda: load_grid(text).values,
        "sample": lambda: sample(f, 2, (-3, -3), N, N).values,
        "chain_apply": lambda: chain_apply(chain, grid).values,
        "detect-single": lambda: detected("single"),
        "detect-robust": lambda: detected("robust"),
    }


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_peak_memory_per_stage_within_budget(name):
    values, peak = _peak(_stages()[name])
    ratio = peak / values.nbytes
    assert ratio <= BUDGET[name], f"{name} peaked at {ratio:.2f}x its array, budget {BUDGET[name]}x"


if __name__ == "__main__":
    for name, run in _stages().items():
        values, peak = _peak(run)
        print(f"{name}: {peak / values.nbytes:.2f}x its array (budget {BUDGET[name]}x)")
