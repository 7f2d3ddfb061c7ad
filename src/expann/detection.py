"""Automatic identification of the unknown frequency pair from grid samples.

The workhorse is a six-point quotient: with D(b) = S(b + tv) - S(b), the
ratio (D(a + 2e) + D(a)) / (2 D(a + e)) equals cosh of the frequency
component along axis e (at the grid's physical step).  When a step tv makes
the denominator vanish, the next step from a fixed fallback list is tried;
if every step fails, the component along that axis is taken as zero.  The
annihilator residual is the one judge of every answer: an axis taken as
zero is checked with the plain difference along it, which fails on data
that varies along it.  ``_six_point`` computes D and the quotient at every
base point at once; every mode reads its entries from it.  The 1-D
detector ``detect_univariate`` is a view over the same kernel: a series is
a grid of one row, and its four-term relation is the quotient along x.
"""

from __future__ import annotations

import enum
import math
import operator as _op
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .expspace import Frequency, FrequencyVector, GridSamples, _check_window
from .operators import (
    _AXIS_STEPS,
    IntegerStep,
    _apply_factors,
    _axis_step,
    _residual,
    _window_shift,
    reduced_chain_for_symmetric_set,
)

__all__ = [
    "StencilDirectionSet",
    "CoshEstimate",
    "Classification",
    "DetectionReport",
    "cosh_to_frequency",
    "detect",
    "detect_univariate",
]

DEFAULT_TOL_DEN = 1e-10
DEFAULT_TOL_IM = 1e-9
DEFAULT_TOL_RES = 1e-8

def _steps(*pairs) -> tuple[IntegerStep, ...]:
    return tuple(IntegerStep(*p) for p in pairs)


@dataclass(frozen=True)
class StencilDirectionSet:
    """Fallback step vectors per axis, drawn from the butterfly stencil union,
    tried in list order."""

    set_x = _steps((0, 1), (1, 1), (0, -1), (-1, -1))
    set_y = _steps((1, 0), (1, 1), (-1, 0), (-1, -1))

    def for_axis(self, e: tuple[int, int]) -> tuple[IntegerStep, ...]:
        return self.set_x if _axis_step(e).dx else self.set_y


DEFAULT_STENCILS = StencilDirectionSet()


@dataclass(frozen=True)
class CoshEstimate:
    """One cosh value extracted from a six-point stencil."""

    axis: tuple[int, int]
    value: complex
    base: tuple[int, int]
    step_used: IntegerStep
    denominator_magnitude: float

    def __post_init__(self) -> None:
        if self.denominator_magnitude <= 0.0:
            raise ValueError("denominator magnitude must be positive")


class Classification(enum.Enum):
    CONSTANT = "Constant"
    FREQUENCY = "Frequency"
    INCONSISTENT = "Inconsistent"


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of frequency detection at one base point."""

    classification: Classification
    frequency: FrequencyVector | None
    estimates: tuple[CoshEstimate, ...]
    residual: float
    reason: str = ""


def _threshold(sup: float) -> float:
    """The denominator threshold DEFAULT_TOL_DEN * sup, for sup the window's
    sup|S|: a denominator at or below it counts as vanishing."""
    return DEFAULT_TOL_DEN * sup


def _six_point(values: np.ndarray, origin, e: tuple[int, int], step: IntegerStep):
    """The six-point quotient at every base point, for axis e and one step.

    With D(b) = S(b + step) - S(b) at every b where both samples exist,
    returns ``(origin, num, den)``: D(a + 2e) + D(a) and D(a + e) at every a
    whose six samples exist.  Given values[0, 0] at grid index origin, both
    arrays start at the grid index returned.
    """
    shifted, base, (c, r) = _window_shift(values, step.dx, step.dy)
    d = shifted - base
    d2, d0, _ = _window_shift(d, 2 * e[0], 2 * e[1])
    d1 = d[e[1] : e[1] + d0.shape[0], e[0] : e[0] + d0.shape[1]]
    return (origin[0] + c, origin[1] + r), d2 + d0, d1


def _entry(arr: np.ndarray, origin, p) -> complex:
    i, j = p[0] - origin[0], p[1] - origin[1]
    if not (0 <= i < arr.shape[1] and 0 <= j < arr.shape[0]):
        raise InputError(f"the stencil at {tuple(p)} leaves the sample window")
    return complex(arr[j, i])


def _estimate(kernel, alpha, e, step, tol: float) -> CoshEstimate | None:
    """The quotient at alpha, or None when |D(alpha + e)| <= tol."""
    origin, num, den = kernel
    d1 = _entry(den, origin, alpha)
    if abs(d1) <= tol:
        return None
    return CoshEstimate(e, _entry(num, origin, alpha) / (2.0 * d1), alpha, step, abs(d1))


def _real_quotients(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Real parts of num / (2.0 * den), rounded as CPython's complex division
    rounds them (numpy's differs in the last bit): scale by the divisor part of
    larger magnitude, the real part on a tie; swapping parts swaps branches."""
    b = 2.0 * den
    br, bi, ar, ai = b.real, b.imag, num.real, num.imag
    out = np.empty(br.shape)
    m = np.abs(br) >= np.abs(bi)
    for k, p, q, x, y in ((m, br, bi, ar, ai), (~m, bi, br, ai, ar)):
        ratio = q[k] / p[k]
        out[k] = (x[k] + y[k] * ratio) / (p[k] + q[k] * ratio)
    return out


def _median(x: np.ndarray) -> float:
    """The middle entry, or the mean of the two middle ones; np.median would
    import numpy.ma, a megabyte of resident memory, on its first call."""
    k = x.size // 2
    p = np.partition(x, [k] if x.size % 2 else [k - 1, k])
    return float(p[k]) if x.size % 2 else (float(p[k - 1]) + float(p[k])) / 2


def _robust_estimate(kernels, alpha, e, steps, tol: float) -> CoshEstimate | None:
    """Median of the quotient over every admissible base point and step,
    reported with the first step that has an admissible base point."""
    num, den = (np.concatenate([k[i].ravel() for k in kernels]) for i in (1, 2))
    mags = np.abs(den)
    keep = mags > tol
    if not keep.any():
        return None
    first = int(keep.argmax())  # the first admissible entry, in step order
    for step, k in zip(steps, kernels):
        if first < k[2].size:
            break
        first -= k[2].size
    value = complex(_median(_real_quotients(num[keep], den[keep])), 0.0)
    return CoshEstimate(e, value, alpha, step, _median(mags[keep]))


def cosh_to_frequency(c: complex, scale: float) -> Frequency:
    """Invert a cosh estimate taken at physical step ``scale`` to the
    level-0 frequency component.

    An imaginary part above DEFAULT_TOL_IM * (1 + |c|) is rejected as
    non-real.  Values >= 1 map to nonnegative real rates, values in (-1, 1)
    to imaginary rates; anything else (including rates that would land on or
    beyond i*pi) is rejected as outside the admissible domain.
    """
    c = complex(c)
    if abs(c.imag) > DEFAULT_TOL_IM * (1.0 + abs(c)):
        raise NumericalError(f"cosh estimate {c} has a non-real part")
    x = c.real
    if x >= 1.0:
        rate = math.acosh(x) / scale
        if rate == math.inf:
            raise NumericalError(f"real rate from estimate {x} overflows")
        return Frequency(rate)
    if x > -1.0:
        rate = math.acos(x) / scale
        if rate >= math.pi:
            raise NumericalError(
                f"imaginary rate {rate} from estimate {x} is not below pi"
            )
        return Frequency(complex(0.0, rate))
    raise NumericalError(f"cosh estimate {x} is not above -1")


def detect(
    s: GridSamples,
    alpha: tuple[int, int],
    mode: str = "single",
    tol_res: float = DEFAULT_TOL_RES,
) -> DetectionReport:
    """Identify the frequency pair of grid data assumed to lie in a
    symmetric exponential family.

    Per axis, fallback steps are tried in order and the first stencil with
    a usable denominator wins ("single" mode); "robust" mode instead takes
    the median over all base points and steps.  Axes whose denominators all
    vanish contribute a zero component.  The combined frequency is accepted
    only if its annihilator leaves a relative residual below ``tol_res`` on
    both axes: the reduced three-factor chain along an estimated axis, the
    plain difference along an axis taken as zero.  ``tol_res`` is the one
    tolerance a caller sets; the denominator threshold (``_threshold``) and
    the imaginary-part bound (``cosh_to_frequency``) are fixed.  A base
    point outside the window raises ``InputError`` in both modes.
    """
    if mode not in ("single", "robust"):
        raise ValueError(f"unknown mode {mode!r}")
    sup = s.max_abs()
    tol = _threshold(sup)
    if not tol_res >= 0.0:  # NaN fails too; inf accepts everything
        raise InputError(f"tol_res must be a non-negative number, got {tol_res}")
    alpha = (_op.index(alpha[0]), _op.index(alpha[1]))
    if not s.contains(alpha):
        raise InputError(f"the stencil at {alpha} leaves the sample window")
    estimates: list[CoshEstimate] = []
    components: list[Frequency] = []

    def inconsistent(residual: float, reason: str) -> DetectionReport:
        return DetectionReport(
            Classification.INCONSISTENT, None, tuple(estimates), residual, reason
        )

    for e in _AXIS_STEPS:
        steps = DEFAULT_STENCILS.for_axis(e)
        if mode == "single":
            kernels = (_six_point(s.values, s.origin, e, st) for st in steps)
            tried = (_estimate(k, alpha, e, st, tol) for k, st in zip(kernels, steps))
            est = next((t for t in tried if t is not None), None)
        else:
            kernels = [_six_point(s.values, s.origin, e, st) for st in steps]
            est = _robust_estimate(kernels, alpha, e, steps, tol)
        if est is None:
            components.append(Frequency(0.0))
            continue
        estimates.append(est)
        try:
            components.append(cosh_to_frequency(est.value, s.spacing))
        except NumericalError as exc:
            return inconsistent(math.nan, f"axis {e}: {exc}")

    g = FrequencyVector(components[0], components[1])
    used = {est.axis: est.step_used for est in estimates}
    # along an axis taken as zero, the plain difference annihilates the family
    chains = (
        reduced_chain_for_symmetric_set(g, e, used[e]).factors if e in used
        else ((FrequencyVector.zero(), step),) for e, step in _AXIS_STEPS.items()
    )
    residual = max(_residual(_apply_factors(c, s.values, s.spacing)[0], sup) for c in chains)
    if not residual <= tol_res:  # a NaN residual is not accepted either
        return inconsistent(
            residual, f"annihilator residual {residual:.3e} exceeds {tol_res:.3e}"
        )
    if not estimates:
        return DetectionReport(Classification.CONSTANT, None, (), residual)
    return DetectionReport(Classification.FREQUENCY, g, tuple(estimates), residual)


def detect_univariate(samples, level: int, alpha: int) -> Frequency:
    """Recover the rate of 1-D data in span{1, exp(g z), exp(-g z)} from the
    four consecutive samples alpha-1 .. alpha+2.

    A 1-D view of the grid quotient: the samples form a 1xn grid, and the
    four-term relation (2c + 1) (f(a+1) - f(a)) = f(a+2) - f(a-1) is the
    six-point quotient along x with step (1, 0) at base alpha - 1, which
    gives c = cosh(2^-level * g).  When the denominator vanishes, the series
    maps to rate zero only if the plain difference along the whole series
    passes detect's residual test; otherwise it is an error.
    """
    row = np.asarray(samples, dtype=np.complex128).reshape(1, -1)
    _check_window(level, row.size, 1)
    sup = float(abs(row).max())
    tol = _threshold(sup)
    e, step = (1, 0), _AXIS_STEPS[(1, 0)]
    h = math.ldexp(1.0, -level)
    est = _estimate(_six_point(row, (0, 0), e, step), (alpha - 1, 0), e, step, tol)
    if est is not None:
        return cosh_to_frequency(est.value, h)
    delta = _apply_factors(((FrequencyVector.zero(), step),), row, h)[0]
    if _residual(delta, sup) <= DEFAULT_TOL_RES:
        return Frequency(0.0)
    raise NumericalError(f"f({alpha + 1}) - f({alpha}) vanishes on non-constant data")
