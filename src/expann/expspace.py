"""Exact representation, evaluation, and sampling of bivariate exponential sums.

A frequency is a complex exponent rate that is either purely real or purely
imaginary with imaginary part inside (-pi, pi); this keeps z -> exp(g*z)
injective on unit grid steps.  Sums of such exponentials are kept in a
canonical form (distinct frequencies, no zero coefficients) so that symbolic
operator algebra on them stays exact.
"""

from __future__ import annotations

import cmath
import math
import operator as _op
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "Frequency",
    "FrequencyVector",
    "ExponentialSum",
    "GridSamples",
    "sample",
    "symmetric_set",
]

# Beyond this level the grid step 2^-level rounds to zero.
MAX_LEVEL = 1074


def _check_window(level: int, width: int, height: int) -> tuple[int, int, int]:
    """The ints ``operator.index`` gives for the arguments; ``ValueError`` for a level
    outside 0..MAX_LEVEL or an empty window, ``TypeError`` for a non-integer."""
    level, width, height = _op.index(level), _op.index(width), _op.index(height)
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must lie in 0..{MAX_LEVEL}, got {level}")
    if width < 1 or height < 1:
        raise ValueError("window must be at least 1x1")
    return level, width, height


@dataclass(frozen=True, init=False)
class Frequency:
    """A single admissible exponent rate: real, or imaginary in i(-pi, pi)."""

    value: complex

    def __init__(self, value: complex) -> None:
        # + 0j turns a -0.0 part into +0.0: equal frequencies have one representation
        v = complex(value) + 0j
        if not cmath.isfinite(v):
            raise ValueError(f"frequency must be finite, got {v}")
        if v.imag != 0.0:
            if v.real != 0.0:
                raise ValueError(f"frequency must be real or purely imaginary, got {v}")
            if not -math.pi < v.imag < math.pi:
                raise ValueError(f"imaginary frequency must lie in i(-pi, pi), got {v}")
        self.__dict__["value"] = v

    def in_restricted_domain(self) -> bool:
        """True for the non-redundant half: real >= 0, or imaginary in i(0, pi)."""
        v = self.value
        if v.imag == 0.0:
            return v.real >= 0.0
        return v.real == 0.0 and 0.0 < v.imag < math.pi

    def __neg__(self) -> "Frequency":
        return Frequency(-self.value)

    def conjugate(self) -> "Frequency":
        return Frequency(self.value.conjugate())


@dataclass(frozen=True, init=False)
class FrequencyVector:
    """A pair of admissible exponent rates, one per grid axis; each may be
    given as a ``Frequency`` or as a number."""

    g1: Frequency
    g2: Frequency

    def __init__(self, g1: Frequency | complex, g2: Frequency | complex) -> None:
        self.__dict__.update(
            g1=g1 if isinstance(g1, Frequency) else Frequency(g1),
            g2=g2 if isinstance(g2, Frequency) else Frequency(g2),
        )

    def as_pair(self) -> tuple[complex, complex]:
        return (self.g1.value, self.g2.value)

    def dot(self, x: float, y: float) -> complex:
        return self.g1.value * x + self.g2.value * y

    def mirror(self) -> "FrequencyVector":
        """Flip the sign of the second component."""
        return FrequencyVector(self.g1, -self.g2)

    def conjugate(self) -> "FrequencyVector":
        return FrequencyVector(self.g1.conjugate(), self.g2.conjugate())

    def __neg__(self) -> "FrequencyVector":
        return FrequencyVector(-self.g1, -self.g2)

    @property
    def is_zero(self) -> bool:
        return self.g1.value == 0 and self.g2.value == 0

    def in_restricted_domain(self) -> bool:
        return self.g1.in_restricted_domain() and self.g2.in_restricted_domain()


def _canonical_terms(
    terms,
) -> tuple[tuple[complex, FrequencyVector], ...]:
    merged: dict[tuple[complex, complex], tuple[complex, FrequencyVector]] = {}
    for coeff, freq in terms:
        if not isinstance(freq, FrequencyVector):
            raise TypeError("a term's frequency must be a FrequencyVector")
        key = freq.as_pair()
        c = complex(coeff)
        if key in merged:
            c = merged[key][0] + c
        merged[key] = (c, freq)
    out = [(c, f) for (c, f) in merged.values() if c != 0]
    out.sort(key=lambda t: (t[1].g1.value.real, t[1].g1.value.imag,
                            t[1].g2.value.real, t[1].g2.value.imag))
    return tuple(out)


@dataclass(frozen=True, init=False)
class ExponentialSum:
    """A finite sum  sum_l c_l * exp(g_l . z)  in canonical form.

    ``terms`` holds ``(coefficient, FrequencyVector)`` pairs; a frequency of
    any other type raises ``TypeError``.  Construction merges exactly-equal
    frequencies and drops zero coefficients, so ``is_zero()`` is simply
    emptiness and two sums built from the same terms in any order compare
    equal.
    """

    terms: tuple[tuple[complex, FrequencyVector], ...]

    def __init__(self, terms=()) -> None:
        self.__dict__["terms"] = _canonical_terms(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def max_coefficient(self) -> float:
        """The largest coefficient modulus; inf when one passes the float range."""
        try:
            return max((abs(c) for c, _ in self.terms), default=0.0)
        except OverflowError:  # finite parts whose modulus no float holds
            return math.inf

    def evaluate(self, z) -> complex:
        """Value at the real point z; one point of the kernel ``sample`` uses."""
        x, y = z
        return complex(_exp_sum(self.terms, np.array([float(x)]), np.array([float(y)]))[0, 0])

    def conjugate(self) -> "ExponentialSum":
        return ExponentialSum(
            tuple((c.conjugate(), f.conjugate()) for c, f in self.terms)
        )

    def __add__(self, other: "ExponentialSum") -> "ExponentialSum":
        return ExponentialSum(self.terms + other.terms)

    def __mul__(self, scalar) -> "ExponentialSum":
        return ExponentialSum(tuple((complex(scalar) * c, f) for c, f in self.terms))

    __rmul__ = __mul__


_SAMPLE_DTYPES = (np.dtype(np.float64), np.dtype(np.complex128))


def _sample_array(values) -> np.ndarray:
    """values as an array of float64 when they are real (float, int or bool),
    of complex128 otherwise, so real data is computed on in real arithmetic.
    An array already of either type is returned as it is."""
    arr = np.asarray(values)
    if arr.dtype in _SAMPLE_DTYPES:
        return arr
    return arr.astype(np.float64 if arr.dtype.kind in "biuf" else np.complex128)


def _series(values) -> np.ndarray:
    """``_sample_array`` of a series, which must be one-dimensional and hold the
    four samples that the 1-D annihilator and the insertion rule each read."""
    arr = _sample_array(values)
    if arr.ndim != 1:
        raise InputError(f"a series must be one-dimensional, got an array of shape {arr.shape}")
    if arr.size < 4:
        raise InputError(f"need at least 4 samples, got {arr.size}")
    return arr


@dataclass(frozen=True, eq=False, init=False)
class GridSamples:
    """Samples of a function on the dyadic grid 2^-level * Z^2, stored as a
    read-only float64 array for real input (float, int or bool) and as
    complex128 otherwise.

    ``values[j, i]`` holds the sample at integer index
    ``(origin[0] + i, origin[1] + j)``; the flattened array is therefore
    row-major with rows along the second coordinate.
    """

    level: int
    origin: tuple[int, int]
    width: int
    height: int
    values: np.ndarray

    def __init__(
        self, level: int, origin: tuple[int, int], width: int, height: int, values
    ) -> None:
        level, width, height = _check_window(level, width, height)
        arr = _sample_array(values)
        if arr.size != width * height:
            raise ValueError(f"expected {width * height} values, got {arr.size}")
        arr = arr.reshape(height, width).copy()
        arr.flags.writeable = False
        o1, o2 = map(_op.index, origin)
        self.__dict__.update(level=level, origin=(o1, o2), width=width, height=height, values=arr)

    @property
    def spacing(self) -> float:
        return math.ldexp(1.0, -self.level)

    def _contains(self, i: int, j: int) -> bool:
        # the window test for an index already coerced to integers
        return 0 <= i - self.origin[0] < self.width and 0 <= j - self.origin[1] < self.height

    def value_at(self, alpha: tuple[int, int]) -> complex:
        i, j = map(_op.index, alpha)
        if not self._contains(i, j):
            raise InputError(
                f"index {(i, j)} outside window "
                f"[{self.origin[0]}, {self.origin[0] + self.width}) x "
                f"[{self.origin[1]}, {self.origin[1] + self.height})"
            )
        return complex(self.values[j - self.origin[1], i - self.origin[0]])

    def max_abs(self) -> float:
        return float(np.maximum.reduce(np.abs(self.values), None))


# Real parts at the overflow boundary, where cmath.exp returns a finite value
# and np.exp gives inf: above log(DBL_MAX / 4) ~ 708.4 cmath.exp takes
# exp(re - 1) * e, so exp(re) may overflow while exp(re) * cos(im) does not,
# and past ~710.2 both overflow.  The band is wide enough to hold that interval.
_RESCALED = (708.0, 711.0)


def _cmath_exp(z: complex) -> complex:
    try:
        return cmath.exp(z)
    except OverflowError:
        return complex(math.inf, math.inf)


def _exp_sum(terms, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The sum of c * exp(g1 x + g2 y) over ``terms`` at every point of the
    grid ``(x[i], y[j])``, as a ``(len(y), len(x))`` array.

    Terms accumulate in order from 0j in numpy's complex arithmetic, so each
    value lies within a small multiple of eps * sum |c exp(g1 x + g2 y)| of
    the exact sum.  A non-finite value raises ``NumericalError``.
    """
    acc = np.zeros((y.size, x.size), dtype=np.complex128)
    e = np.empty_like(acc)  # every term's exponent, exponential and product
    with np.errstate(all="ignore"):
        for c, f in terms:
            g1, g2 = f.as_pair()
            np.add.outer(g2 * y, g1 * x, out=e)
            band = None
            # a NaN exponent fails the test, but it makes the sum non-finite anyway
            if e.real.max() > _RESCALED[0]:
                band = (e.real > _RESCALED[0]) & (e.real < _RESCALED[1])
                rescaled = [_cmath_exp(z) for z in e[band].tolist()]
            np.exp(e, out=e)
            if band is not None:
                e[band] = rescaled
            acc += np.multiply(c, e, out=e)
    if not np.isfinite(acc).all():
        raise NumericalError("a sample overflows the floating-point range")
    return acc


def sample(
    f: ExponentialSum, level: int, origin: tuple[int, int], width: int, height: int
) -> GridSamples:
    """Sample f on the index window [origin, origin + (width, height)) at
    the given dyadic level; entry alpha holds f(2^-level * alpha).

    Raises ``ValueError`` for an empty window or a level outside
    0..MAX_LEVEL, ``NumericalError`` when a sample overflows, and
    ``InputError`` when the window does not fit in memory.
    """
    level, width, height = _check_window(level, width, height)
    h = math.ldexp(1.0, -level)
    o1, o2 = map(_op.index, origin)
    try:
        # float(index) * h, each index rounded once as Python rounds an int
        x = np.array(range(o1, o1 + width), dtype=np.float64) * h
        y = np.array(range(o2, o2 + height), dtype=np.float64) * h
        return GridSamples(level, (o1, o2), width, height, _exp_sum(f.terms, x, y))
    except OverflowError as exc:  # an index beyond the float range
        raise NumericalError("a sample overflows the floating-point range") from exc
    except MemoryError as exc:
        raise InputError(f"a {width}x{height} window does not fit in memory") from exc


def symmetric_set(g: FrequencyVector) -> tuple[FrequencyVector, ...]:
    """The symmetric frequency family {0, g, -g, mirror(g), -mirror(g)}.

    Coinciding members collapse (e.g. mirror(g) == g when the second
    component vanishes) to the first of them, so the tuple has 5 or 3
    members, in the order 0, g, -g, mirror(g), -mirror(g).
    """
    if g.is_zero:
        raise ValueError("generator must be nonzero")
    if not g.in_restricted_domain():
        raise ValueError(
            "generator components must be real >= 0 or imaginary in i(0, pi)"
        )
    candidates = [FrequencyVector(0.0, 0.0), g, -g, g.mirror(), -g.mirror()]
    return tuple(dict.fromkeys(candidates))  # first of equal members
