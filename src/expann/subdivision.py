"""Level-dependent interpolatory refinement reproducing span{1, e^(gz), e^(-gz)}.

Refinement rules for exponential data must change with the level: the
quantity that drives them is c_k = cosh(2^-k * g), which obeys the
half-argument recursion c_{k+1} = sqrt((c_k + 1) / 2).  The inserted-point
weights follow from two exactness conditions (constants and the symmetric
exponential pair), whose solution has the closed form w = -1/(8c(c + 1)),
u = 1/2 - w per level (Dyn, Levin & Luzzatto, Found. Comput. Math. 3, 2003).
A rate is a ``Frequency``, real or imaginary, so every c_k is real: the
driver is a float, the weights are floats, and real data is refined in real
arithmetic, as ``expspace`` keeps real samples real.  A round turns n samples
into 2n - 5, so more than one round needs at least 5.
``refine`` applies the four-point formula to array slices, from the pair of
weights ``synthesize_rule`` returns.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator as _op

import numpy as np

from .detection import detect_univariate
from .errors import InputError, NumericalError
from .expspace import Frequency, _check_window, _series

__all__ = [
    "refine_parameter",
    "synthesize_rule",
    "refine",
    "refine_rounds",
    "auto_refine",
]


def _real_driver(c) -> float:
    """c as a float, or ``TypeError`` unless c is a ``numbers.Real`` (no complex,
    string or bytes is); callers skip it for a float, so a round makes no call."""
    if not isinstance(c, numbers.Real):
        raise TypeError(f"a cosh value must be real, got {c}")
    return float(c)


def refine_parameter(c: float) -> float:
    """Advance the rule driver one level: c_{k+1} = sqrt((c_k + 1)/2), the
    positive root.  A driver not above -1, NaN included, raises
    ``NumericalError``, naming the value in complex form; a driver that is
    not a real number raises ``TypeError``."""
    c = c if type(c) is float else _real_driver(c)
    if not c > -1.0:
        raise NumericalError(f"cosh value {complex(c)} is not above -1")
    return math.sqrt((c + 1.0) / 2.0)


def synthesize_rule(c_half: float) -> tuple[float, float]:
    """Insertion weights (outer, inner) exact on constants and on the
    exponential pair, where ``c_half`` is the cosh of the rate at the
    half-step of insertion; the rule weighs four samples (outer, inner,
    inner, outer).

    Exactness demands 2w + 2u = 1 and 2w*cosh(3x) + 2u*cosh(x) = 1 with
    c = cosh(x).  The second condition minus c times the first shares a
    factor (c - 1) with its right-hand side; cancelling it leaves
    8c(c + 1) w = -1, so w = -1/(8c(c + 1)) and u = 1/2 - w, exact through
    the polynomial limit c = 1 and singular only at c in {0, -1}.  A c near
    0 or -1, or not finite, raises ``NumericalError``, naming c in complex
    form; a c that is not a real number raises ``TypeError``.
    """
    c = c_half if type(c_half) is float else _real_driver(c_half)
    if not 1e-12 < abs(c) < math.inf or abs(c + 1.0) <= 1e-12:
        raise NumericalError(f"insertion weights undefined at cosh value {complex(c)}")
    w = -1.0 / (8.0 * c * (c + 1.0))
    return w, 0.5 - w


def refine(values, c_half: float) -> np.ndarray:
    """One step of binary interpolatory refinement, inserting with the rule
    of the level parameter ``c_half`` = c_{k+1} of the finer level.

    Even outputs copy the inputs; odd outputs insert midpoints.  Boundary
    stencils are truncated rather than extrapolated, so n inputs yield
    2(n - 3) + 1 outputs and the result starts half a coarse step after the
    first retained input.  Midpoints take ``synthesize_rule``'s weights; the
    output is real when the data and weights are real.
    """
    f = _series(values)
    n = f.size
    outer, inner = synthesize_rule(c_half)
    odd = outer * (f[0 : n - 3] + f[3:n]) + inner * (f[1 : n - 2] + f[2 : n - 1])
    out = np.empty(2 * (n - 3) + 1, dtype=odd.dtype)
    out[0::2] = f[1 : n - 1]
    out[1::2] = odd
    return out


def refine_rounds(values, g: Frequency | complex, level: int, rounds: int):
    """Refine data at ``level`` ``rounds`` times with the rules of rate g,
    starting from the level parameter c_level = cosh(2^-level * g).  The
    rate goes through ``Frequency`` unless it is one, and the series is
    checked once, zero rounds included: a round turns n samples into 2n - 5,
    so more than one round needs at least 5.  A level outside 0..MAX_LEVEL or
    a negative round count is a ``ValueError``."""
    level = _check_window(level, 1, 1)[0]
    if _op.index(rounds) < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")
    rate = (g if isinstance(g, Frequency) else Frequency(g)).value
    try:
        # the real part alone: a real or imaginary rate leaves an imaginary part of +-0
        c = cmath.cosh(math.ldexp(1.0, -level) * rate).real
    except OverflowError as exc:
        raise NumericalError(f"cosh of rate {rate} overflows at level {level}") from exc
    # short data is an input error even where c is not above -1
    values = _series(values)
    if rounds > 1 and values.size < 5:  # 4 samples refine to 3
        raise InputError(f"need at least 5 samples for {rounds} rounds, got {values.size}")
    for _ in range(rounds):
        c = refine_parameter(c)
        values = refine(values, c)
    return values


def auto_refine(values, level: int, rounds: int) -> tuple[np.ndarray, Frequency]:
    """Detect the rate of the data at its leftmost full stencil (base index
    1), then refine it ``rounds`` times; returns the data and the level-0 rate.
    ``detect_univariate`` checks the series first, so a short or 2-D series
    fails here as it fails ``refine``."""
    g = detect_univariate(values, level, alpha=1)
    return refine_rounds(values, g, level, rounds), g
