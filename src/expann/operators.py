"""Differential and finite-difference operators whose kernels are exponential spaces.

An operator is an ``AnnihilatorChain`` of one factor, a product of them a
chain of several, and ``chain_apply`` the one way to apply either: exactly
on an ``ExponentialSum`` (term by term, each coefficient times every
factor's multiplier in list order, on mantissas scaled by powers of two so
that the answer does not depend on that order; membership questions reduce
to exact coefficient arithmetic) and, for difference factors, on
``GridSamples``.  Both actions take one difference weight,
exp(gamma . h tv) at h = 1 on a sum and at the physical step h = 2^-k on a
level-k grid, and raise ``NumericalError`` when it or a coefficient
overflows, or an output sample is not finite.
"""

from __future__ import annotations

import cmath
import math
import operator as _op
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .expspace import ExponentialSum, FrequencyVector, GridSamples

__all__ = [
    "Direction",
    "IntegerStep",
    "AnnihilatorChain",
    "chain_apply",
    "annihilates",
    "grid_residual",
    "reduced_chain_for_symmetric_set",
]

ZERO_COEFF_REL_TOL = 1e-12


@dataclass(frozen=True, init=False)
class Direction:
    """A unit direction in the plane.  A pair whose length is subnormal or past
    the float range is scaled by a power of two, exactly, before it is
    normalized; any other pair is divided by its ``math.hypot`` as it is."""

    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"direction must be finite, got ({x}, {y})")
        m = math.hypot(x, y)
        if m == 0.0:
            raise ValueError("direction must be nonzero")
        if not sys.float_info.min <= m < math.inf:
            z = _split(complex(x, y))[0]  # exact: the larger part to [1/2, 1)
            x, y, m = z.real, z.imag, abs(z)
        self.__dict__.update(x=x / m, y=y / m)


@dataclass(frozen=True, init=False)
class IntegerStep:
    """A nonzero integer step vector tv.  Its hash, the dataclass's hash of
    (dx, dy), is taken once: steps key the per-call difference tables."""

    dx: int
    dy: int

    def __init__(self, dx: int, dy: int) -> None:
        dx, dy = _op.index(dx), _op.index(dy)
        if dx == 0 and dy == 0:
            raise ValueError("step must be nonzero")
        self.__dict__.update(dx=dx, dy=dy, _hash=hash((dx, dy)))

    def __hash__(self) -> int:
        return self._hash


Factor = tuple[FrequencyVector, "IntegerStep | Direction"]


@dataclass(frozen=True, init=False)
class AnnihilatorChain:
    """An ordered product of difference or differential factors.

    Factors with an ``IntegerStep`` act on sums and grids; factors with a
    ``Direction`` act symbolically on sums only.  Application order is the
    list order; the factors commute, so the order only fixes reproducible
    floating-point results.
    """

    factors: tuple[Factor, ...]

    def __init__(self, factors: tuple[Factor, ...]) -> None:
        factors = tuple((g, s) for g, s in factors)
        if not factors:
            raise ValueError("chain must have at least one factor")
        for g, s in factors:
            if not isinstance(g, FrequencyVector):
                raise TypeError("chain factor frequency must be a FrequencyVector")
            if not isinstance(s, (IntegerStep, Direction)):
                raise TypeError("chain factor step must be IntegerStep or Direction")
        self.__dict__["factors"] = factors


def _weight(gamma: FrequencyVector, step: IntegerStep, spacing: float) -> complex:
    """exp(gamma . (spacing * tv)), the weight of a difference factor."""
    try:
        w = cmath.exp(gamma.dot(step.dx * spacing, step.dy * spacing))
        if not cmath.isfinite(w):  # an infinite real exponent, which cmath.exp passes through
            raise OverflowError(w)
    except (OverflowError, ValueError) as exc:  # ValueError: an infinite imaginary exponent
        raise NumericalError("a difference weight overflows the floating-point range") from exc
    return w


def _multiplier(gamma: FrequencyVector, s, m: FrequencyVector) -> complex:
    """The number one factor multiplies the coefficient of frequency m by:
    (m - gamma).v for a Direction v, exp(m.tv) - exp(gamma.tv) for a step tv."""
    if isinstance(s, Direction):
        return (m.g1.value - gamma.g1.value) * s.x + (m.g2.value - gamma.g2.value) * s.y
    return _weight(m, s, 1.0) - _weight(gamma, s, 1.0)


def _window_shift(values, dx: int, dy: int):
    """Views of ``values`` (rows along the second index) at alpha + (dx, dy)
    and at alpha over every alpha where both exist, possibly none, and the
    (column, row) offset of that window in ``values``."""
    h, w = values.shape
    rows, cols = max(h - abs(dy), 0), max(w - abs(dx), 0)
    r1, c1 = (-dy if dy < 0 else 0), (-dx if dx < 0 else 0)
    shifted = values[r1 + dy : r1 + dy + rows, c1 + dx : c1 + dx + cols]
    base = values[r1 : r1 + rows, c1 : c1 + cols]
    return shifted, base, (c1, r1)


def _step_shift(values, dx: int, dy: int):
    """``_window_shift`` for a difference along (dx, dy), which must fit."""
    if values.shape[0] <= abs(dy) or values.shape[1] <= abs(dx):
        raise InputError(f"step ({dx}, {dy}) exhausts a {values.shape[1]}x{values.shape[0]} window")
    return _window_shift(values, dx, dy)


def _apply_factors(factors, values, spacing: float):
    """Apply difference factors in list order to a raw sample array: the output
    array, and its (column, row) offset in ``values``.  A non-finite output
    sample raises ``NumericalError``."""
    out, c, r = values, 0, 0
    # an overflowing sample is caught by the check below, not by numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        for gamma, step in factors:
            if not isinstance(step, IntegerStep):
                raise TypeError("differential factors cannot act on grid samples")
            shifted, base, (c1, r1) = _step_shift(out, step.dx, step.dy)
            # shifted - w * base, subtracted into the product's own buffer
            t = _weight(gamma, step, spacing) * base
            out, c, r = np.subtract(shifted, t, out=t), c + c1, r + r1
    if not np.logical_and.reduce(np.isfinite(out), None):
        raise NumericalError("a chain's output sample is not finite")
    return out, (c, r)


def _split(z: complex) -> tuple[complex, int]:
    """z as a mantissa times 2^k, k the ``math.frexp`` exponent of its larger part."""
    k = math.frexp(max(abs(z.real), abs(z.imag)))[1]
    return complex(math.ldexp(z.real, -k), math.ldexp(z.imag, -k)), k


def _scaled_product(c: complex, ws) -> complex:
    """c * w1 * w2 * ..., taken in list order on the mantissas of ``_split``,
    with the powers of two applied once at the end.  Each mantissa's modulus
    lies in [1/2, sqrt(2)), so no running value of a chain of fewer than a
    thousand factors overflows or underflows: the product is free of the
    factor order up to rounding, and keeps the bits of the plain product
    wherever that one's running value stays normal.  A product past the
    float range is inf."""
    acc, e = _split(c)
    for w in ws:
        m, k = _split(w)
        acc, e = acc * m, e + k
    try:
        return complex(math.ldexp(acc.real, e), math.ldexp(acc.imag, e))
    except OverflowError:
        return complex(math.inf)


def _sum_output(chain: AnnihilatorChain, f: ExponentialSum) -> tuple[ExponentialSum, bool]:
    """The chain applied to f term by term, unchecked, and whether every
    coefficient is finite.  Each term takes every factor's multiplier, in list
    order; a finite coefficient with an exactly-zero multiplier is annihilated,
    and any other keeps the scaled product of c, w1, w2, ..."""
    terms = []
    for c, m in f.terms:
        ws = [_multiplier(gamma, s, m) for gamma, s in chain.factors]
        if not (0 in ws and cmath.isfinite(c)):
            terms.append((_scaled_product(c, ws), m))
    out = ExponentialSum(tuple(terms))
    return out, all(cmath.isfinite(c) for c, _ in out.terms)


def chain_apply(chain: AnnihilatorChain, data):
    """Apply every factor of the chain in list order.

    Accepts an ``ExponentialSum`` (difference and differential factors) or
    ``GridSamples`` (difference factors only) and returns the same kind.  A
    coefficient of a sum that overflows raises ``NumericalError``.
    """
    if isinstance(data, ExponentialSum):
        out, finite = _sum_output(chain, data)
        if not finite:
            raise NumericalError("a coefficient overflows the floating-point range")
        return out
    if isinstance(data, GridSamples):
        out, (c, r) = _apply_factors(chain.factors, data.values, data.spacing)
        h, w = out.shape
        return GridSamples(data.level, (data.origin[0] + c, data.origin[1] + r), w, h, out)
    raise TypeError(f"cannot apply chain to {type(data).__name__}")


def annihilates(chain: AnnihilatorChain, f: ExponentialSum) -> bool:
    """True when the chain maps f to zero, up to ZERO_COEFF_REL_TOL of f's
    largest coefficient (chains of a few factors lose at most ~3 digits).  A
    coefficient that overflows is not zero, so it answers False.  A modulus
    past the float range is compared at half scale, where none overflows."""
    out, finite = _sum_output(chain, f)
    if not finite:
        return False
    top, bound = out.max_coefficient(), f.max_coefficient()
    if math.inf in (top, bound):  # both sums are finite here, so their halves fit
        top, bound = (0.5 * out).max_coefficient(), (0.5 * f).max_coefficient()
    return top <= ZERO_COEFF_REL_TOL * bound


def _residual(out, sup: float) -> float:
    """max|out| / sup: a chain output's sup-norm relative to sup, the sup-norm
    of the samples it was applied to (an all-zero window gives zero)."""
    return float(np.maximum.reduce(abs(out), None)) / sup if sup != 0.0 else 0.0


def grid_residual(chain: AnnihilatorChain, s: GridSamples) -> float:
    """Sup-norm of the chain output divided by the sup-norm of the input
    (zero input gives zero)."""
    return _residual(_apply_factors(chain.factors, s.values, s.spacing)[0], s.max_abs())


_ZERO = FrequencyVector(0.0, 0.0)
# The axes and their unit steps, in the order detection visits them.
_AXIS_STEPS = {(1, 0): IntegerStep(1, 0), (0, 1): IntegerStep(0, 1)}


def _axis_step(e) -> IntegerStep:
    """The unit step of axis e, which must be (1, 0) or (0, 1)."""
    step = _AXIS_STEPS.get(tuple(e))
    if step is None:
        raise ValueError("axis must be (1, 0) or (0, 1)")
    return step


def reduced_chain_for_symmetric_set(
    g: FrequencyVector, e: tuple[int, int], extra: IntegerStep
) -> AnnihilatorChain:
    """Three-factor annihilator for the symmetric family generated by g.

    Along an axis the difference weights for g and mirror(g) coincide, so
    the pair of axis factors (rates g and -g) plus one plain difference in
    any direction annihilates the whole 5-member family; each output value
    touches at most 6 grid points (offsets extra*{0,1} + e*{0,1,2}).
    """
    e_step = _axis_step(e)
    return AnnihilatorChain(((_ZERO, extra), (g, e_step), (-g, e_step)))

