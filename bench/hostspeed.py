"""The host's speed, measured with a fixed piece of work between operations.

On a shared 2-core host the same operation can take 100 ms for a minute and
160 ms the next, while the program has not changed.  The benchmark
therefore times this kernel, which never changes, next to the operations
and scales each pass's times by REFERENCE_MS / (kernel time): a time is
reported as it would read on a host that runs the kernel in REFERENCE_MS.
The kernel mixes the work expann does: complex arithmetic in Python,
frozen dataclasses, small numpy reductions, exceptions, float formatting
and JSON parsing.

A workload that starts a process per operation also times PROCESS_KERNEL,
a process that starts the interpreter and imports numpy, since process
start-up slows down in ways the in-process kernel does not follow; its
factor is the geometric mean of the two, as such an operation spends about
half its time starting up and importing.
"""

from __future__ import annotations

import cmath
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

# The kernels' median times on the 2-core machine that set the bounds.
REFERENCE_MS = 1.4
PROCESS_REFERENCE_MS = 160.0
PROCESS_KERNEL = [sys.executable, "-c", "import numpy"]
# A pass runs the kernel again once this much operation time has gone by.
INTERVAL_S = 0.01

_GRID = np.linspace(0.0, 1.0, 1600).reshape(40, 40) * (1 + 1j)


@dataclass(frozen=True)
class _Point:
    value: complex
    size: float


def kernel() -> float:
    acc = 0j
    points = []
    for i in range(300):
        z = complex(i * 1e-3, 2e-3)
        p = _Point(cmath.exp(z), abs(z))
        points.append(p)
        acc += p.value / (1.0 + p.size)
        if i % 6 == 0:
            acc += float(np.max(np.abs(_GRID[i % 40 :])))
        if i % 25 == 0:
            try:
                raise ValueError(i)
            except ValueError:
                acc += 1.0
    text = ", ".join(f"{p.value.real:.17g}" for p in points)
    return abs(acc) + len(json.loads("[" + text + "]"))


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(kernel_times: list[float], process_times: list[float] = ()) -> float:
    """Multiplier from measured seconds to seconds at reference speed."""
    f = REFERENCE_MS * 1e-3 / statistics.median(kernel_times)
    if process_times:
        f = math.sqrt(f * PROCESS_REFERENCE_MS * 1e-3 / statistics.median(process_times))
    return f
