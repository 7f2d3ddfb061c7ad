"""Level-dependent interpolatory refinement reproducing span{1, e^(gz), e^(-gz)}.

Refinement rules for exponential data must change with the level: the
quantity that drives them is c_k = cosh(2^-k * g), which obeys the
half-argument recursion c_{k+1} = sqrt((c_k + 1) / 2).  The inserted-point
weights follow from two exactness conditions (constants and the symmetric
exponential pair), whose solution has the closed form w = -1/(8c(c + 1)),
u = 1/2 - w per level (Dyn, Levin & Luzzatto, Found. Comput. Math. 3, 2003).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .detection import detect_univariate
from .errors import (
    InvalidParameterError,
    RangeOverflowError,
    SingularRuleError,
    TooShortError,
)
from .expspace import Frequency

__all__ = [
    "InsertionRule",
    "refine_parameter",
    "synthesize_rule",
    "refine",
    "refine_rounds",
    "auto_refine",
]


@dataclass(frozen=True)
class InsertionRule:
    """Symmetric four-point insertion weights (outer, inner, inner, outer)."""

    outer: complex
    inner: complex

    def __post_init__(self) -> None:
        # inner = 1/2 - outer rounds with an error of about |outer| * eps
        if abs(2 * self.outer + 2 * self.inner - 1.0) > 1e-12 * max(1.0, abs(self.outer)):
            raise ValueError("insertion weights must sum to 1")

    def insert(self, f0, f1, f2, f3):
        """The value inserted between f1 and f2; elementwise on arrays."""
        return self.outer * (f0 + f3) + self.inner * (f1 + f2)


def refine_parameter(c: complex) -> complex:
    """Advance the rule driver one level: c_{k+1} = sqrt((c_k + 1)/2),
    principal root (positive for every admissible rate)."""
    c = complex(c)
    if c.real <= -1.0:
        raise InvalidParameterError(f"cosh value {c} is not above -1")
    return cmath.sqrt((c + 1.0) / 2.0)


def synthesize_rule(c_half: complex) -> InsertionRule:
    """Insertion weights exact on constants and on the exponential pair,
    where ``c_half`` is the cosh of the rate at the half-step of insertion.

    Exactness demands 2w + 2u = 1 and 2w*cosh(3x) + 2u*cosh(x) = 1 with
    c = cosh(x).  The second condition minus c times the first shares a
    factor (c - 1) with its right-hand side; cancelling it leaves
    8c(c + 1) w = -1, so w = -1/(8c(c + 1)) and u = 1/2 - w, exact through
    the polynomial limit c = 1 and singular only at c in {0, -1}.
    """
    c = complex(c_half)
    if abs(c) <= 1e-12 or abs(c + 1.0) <= 1e-12:
        raise SingularRuleError(f"insertion weights undefined at cosh value {c}")
    w = -1.0 / (8.0 * c * (c + 1.0))
    return InsertionRule(outer=w, inner=0.5 - w)


def _samples(values) -> np.ndarray:
    f = np.asarray(values, dtype=np.complex128)
    if f.size < 4:
        raise TooShortError(f"need at least 4 samples, got {f.size}")
    return f


def refine(values, c_half: complex) -> np.ndarray:
    """One step of binary interpolatory refinement, inserting with the rule
    of the level parameter ``c_half`` = c_{k+1} of the finer level.

    Even outputs copy the inputs; odd outputs insert midpoints.  Boundary
    stencils are truncated rather than extrapolated, so n inputs yield
    2(n - 3) + 1 outputs and the result starts half a coarse step after the
    first retained input.
    """
    f = _samples(values)
    n = f.size
    rule = synthesize_rule(c_half)
    out = np.empty(2 * (n - 3) + 1, dtype=np.complex128)
    out[0::2] = f[1 : n - 1]
    out[1::2] = rule.insert(f[0 : n - 3], f[1 : n - 2], f[2 : n - 1], f[3:n])
    return out


def refine_rounds(values, g: Frequency | complex, level: int, rounds: int):
    """Refine data at ``level`` ``rounds`` times with the rules of rate g,
    starting from the level parameter c_level = cosh(2^-level * g)."""
    rate = g.value if isinstance(g, Frequency) else complex(g)
    try:
        c = cmath.cosh(math.ldexp(1.0, -level) * rate)
    except OverflowError as exc:
        raise RangeOverflowError(f"cosh of rate {rate} overflows at level {level}") from exc
    for _ in range(rounds):
        # short data is an input error even where c is not above -1
        values = _samples(values)
        c = refine_parameter(c)
        values = refine(values, c)
    return values


def auto_refine(values, level: int, rounds: int) -> tuple[np.ndarray, Frequency]:
    """Detect the rate of the data at its leftmost full stencil (base index
    1), then refine it ``rounds`` times; returns the data and the level-0 rate."""
    f = _samples(values)
    g = detect_univariate(f, level, alpha=1)
    return refine_rounds(f, g, level, rounds), g
