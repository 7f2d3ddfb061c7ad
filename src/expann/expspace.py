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
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "Frequency",
    "FrequencyVector",
    "FrequencySet",
    "ExponentialSum",
    "GridSamples",
    "sample",
    "symmetric_set",
]

# Beyond this level the grid step 2^-level rounds to zero.
MAX_LEVEL = 1074


def _check_window(level: int, width: int, height: int) -> None:
    """Raise ``ValueError`` for a level outside 0..MAX_LEVEL or an empty window,
    and ``TypeError`` for an argument that is not an integer."""
    level, width, height = _op.index(level), _op.index(width), _op.index(height)
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level must lie in 0..{MAX_LEVEL}, got {level}")
    if width < 1 or height < 1:
        raise ValueError("window must be at least 1x1")


def _clean(value: complex) -> complex:
    # normalize -0.0 parts so equal frequencies have one representation
    re = value.real if value.real != 0.0 else 0.0
    im = value.imag if value.imag != 0.0 else 0.0
    return complex(re, im)


@dataclass(frozen=True)
class Frequency:
    """A single admissible exponent rate: real, or imaginary in i(-pi, pi)."""

    value: complex

    def __post_init__(self) -> None:
        v = _clean(complex(self.value))
        object.__setattr__(self, "value", v)
        if not cmath.isfinite(v):
            raise ValueError(f"frequency must be finite, got {v}")
        if v.imag != 0.0:
            if v.real != 0.0:
                raise ValueError(f"frequency must be real or purely imaginary, got {v}")
            if not -math.pi < v.imag < math.pi:
                raise ValueError(f"imaginary frequency must lie in i(-pi, pi), got {v}")

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


def _as_frequency(x) -> Frequency:
    return x if isinstance(x, Frequency) else Frequency(complex(x))


@dataclass(frozen=True)
class FrequencyVector:
    """A pair of admissible exponent rates, one per grid axis; each may be
    given as a ``Frequency`` or as a number."""

    g1: Frequency
    g2: Frequency

    def __post_init__(self) -> None:
        object.__setattr__(self, "g1", _as_frequency(self.g1))
        object.__setattr__(self, "g2", _as_frequency(self.g2))

    @classmethod
    def zero(cls) -> "FrequencyVector":
        return cls(0.0, 0.0)

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


@dataclass(frozen=True)
class FrequencySet:
    """An ordered collection of pairwise-distinct frequency vectors."""

    members: tuple[FrequencyVector, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        seen = set()
        for m in members:
            key = m.as_pair()
            if key in seen:
                raise ValueError(f"duplicate frequency vector {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


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


@dataclass(frozen=True)
class ExponentialSum:
    """A finite sum  sum_l c_l * exp(g_l . z)  in canonical form.

    ``terms`` holds ``(coefficient, FrequencyVector)`` pairs; a frequency of
    any other type raises ``TypeError``.  Construction merges exactly-equal
    frequencies and drops zero coefficients, so ``is_zero()`` is simply
    emptiness and two sums built from the same terms in any order compare
    equal.
    """

    terms: tuple[tuple[complex, FrequencyVector], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _canonical_terms(self.terms))

    def is_zero(self) -> bool:
        return not self.terms

    def max_coefficient(self) -> float:
        return max((abs(c) for c, _ in self.terms), default=0.0)

    def evaluate(self, z) -> complex:
        """Value at the real point z; one point of the kernel ``sample`` uses."""
        x, y = np.array([float(z[0])]), np.array([float(z[1])])
        return complex(_exp_sum(self.terms, x, y)[0, 0])

    def map_coefficients(self, fn) -> "ExponentialSum":
        """New sum with coefficient c of frequency g replaced by fn(c, g)."""
        return ExponentialSum(tuple((fn(c, f), f) for c, f in self.terms))

    def conjugate(self) -> "ExponentialSum":
        return ExponentialSum(
            tuple((c.conjugate(), f.conjugate()) for c, f in self.terms)
        )

    def __add__(self, other: "ExponentialSum") -> "ExponentialSum":
        return ExponentialSum(self.terms + other.terms)

    def __mul__(self, scalar) -> "ExponentialSum":
        return ExponentialSum(tuple((complex(scalar) * c, f) for c, f in self.terms))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class GridSamples:
    """Complex samples of a function on the dyadic grid 2^-level * Z^2.

    ``values[j, i]`` holds the sample at integer index
    ``(origin[0] + i, origin[1] + j)``; the flattened array is therefore
    row-major with rows along the second coordinate.
    """

    level: int
    origin: tuple[int, int]
    width: int
    height: int
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_window(self.level, self.width, self.height)
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.size != self.width * self.height:
            raise ValueError(
                f"expected {self.width * self.height} values, got {arr.size}"
            )
        arr = arr.reshape(self.height, self.width).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "origin", (_op.index(self.origin[0]), _op.index(self.origin[1])))

    @property
    def spacing(self) -> float:
        return math.ldexp(1.0, -self.level)

    def contains(self, alpha: tuple[int, int]) -> bool:
        i = alpha[0] - self.origin[0]
        j = alpha[1] - self.origin[1]
        return 0 <= i < self.width and 0 <= j < self.height

    def value_at(self, alpha: tuple[int, int]) -> complex:
        if not self.contains(alpha):
            raise InputError(
                f"index {tuple(alpha)} outside window "
                f"[{self.origin[0]}, {self.origin[0] + self.width}) x "
                f"[{self.origin[1]}, {self.origin[1] + self.height})"
            )
        return complex(self.values[alpha[1] - self.origin[1], alpha[0] - self.origin[0]])

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


# Real parts where cmath.exp rounds differently from np.exp: above
# log(DBL_MAX / 4) ~ 708.4 it takes exp(re - 1) * e, and past ~710.2 both
# overflow.  The band is wide enough to hold that interval.
_RESCALED = (708.0, 711.0)


def _cmath_exp(z: complex) -> complex:
    try:
        return cmath.exp(z)
    except OverflowError:
        return complex(math.inf, math.inf)


def _exp_sum(terms, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The sum of c * exp(g1 x + g2 y) over ``terms`` at every point of the
    grid ``(x[i], y[j])``, as a ``(len(y), len(x))`` array.

    Every value is bitwise what CPython computes for
    ``sum(c * cmath.exp(g1 * x + g2 * y) for ..., 0j)``: complex products are
    done in real arithmetic in CPython's operand order, where numpy's complex
    multiply differs in the last bit, and terms accumulate in order from
    0j.  A non-finite value raises ``NumericalError``.
    """
    acc = np.zeros((y.size, x.size), dtype=np.complex128)
    arg = np.empty_like(acc)
    with np.errstate(all="ignore"):
        for c, f in terms:
            g1, g2 = f.as_pair()
            # complex * float as CPython does it: (g.re t - g.im 0, g.re 0 + g.im t)
            np.add((g1.real * x - g1.imag * 0.0)[None, :],
                   (g2.real * y - g2.imag * 0.0)[:, None], out=arg.real)
            np.add((g1.real * 0.0 + g1.imag * x)[None, :],
                   (g2.real * 0.0 + g2.imag * y)[:, None], out=arg.imag)
            e = np.exp(arg)
            # a NaN exponent fails the test, but it makes the sum non-finite anyway
            if arg.real.max() > _RESCALED[0]:
                band = (arg.real > _RESCALED[0]) & (arg.real < _RESCALED[1])
                e[band] = [_cmath_exp(z) for z in arg[band].tolist()]
            acc.real += c.real * e.real - c.imag * e.imag
            acc.imag += c.real * e.imag + c.imag * e.real
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
    _check_window(level, width, height)
    h = math.ldexp(1.0, -level)
    o1, o2 = _op.index(origin[0]), _op.index(origin[1])
    try:
        # float(index) * h, each index rounded once as Python rounds an int
        x = np.array(range(o1, o1 + width), dtype=np.float64) * h
        y = np.array(range(o2, o2 + height), dtype=np.float64) * h
        return GridSamples(level, (o1, o2), width, height, _exp_sum(f.terms, x, y))
    except OverflowError as exc:  # an index beyond the float range
        raise NumericalError("a sample overflows the floating-point range") from exc
    except MemoryError as exc:
        raise InputError(f"a {width}x{height} window does not fit in memory") from exc


def symmetric_set(g: FrequencyVector) -> FrequencySet:
    """The symmetric frequency family {0, g, -g, mirror(g), -mirror(g)}.

    Coinciding members collapse (e.g. mirror(g) == g when the second
    component vanishes), so the result has 5 or 3 members.
    """
    if g.is_zero:
        raise ValueError("generator must be nonzero")
    if not g.in_restricted_domain():
        raise ValueError(
            "generator components must be real >= 0 or imaginary in i(0, pi)"
        )
    candidates = [FrequencyVector.zero(), g, -g, g.mirror(), -g.mirror()]
    return FrequencySet(tuple(dict.fromkeys(candidates)))  # first of equal members
