"""Automatic identification of the unknown frequency pair from grid samples.

The workhorse is a six-point quotient: with D(b) = S(b + tv) - S(b), the
ratio (D(a + 2e) + D(a)) / (2 D(a + e)) equals cosh of the frequency
component along axis e (at the grid's physical step).  The relation holds
exactly on the family, so a denominator needs no threshold.  A step tv is
passed over for the next one in a fixed fallback list, one step per
direction, when its denominator is exactly zero or the window is flat
along it (its differences D pass the residual test, so a residual chain
built on tv would pass any estimate); if every step is passed over, the
component along that axis is taken as zero.  The annihilator residual is
the one judge of every answer.  Along an estimated axis it is the reduced
three-factor chain's output D(a + 2e) - 2c D(a + e) + D(a), the quotient's
numerator less 2c times its denominator; an axis taken as zero is checked
with the plain difference along it, which fails on data that varies along
it.  ``_six_point`` computes D, numerator and denominator at every base
point at once, and ``_axis`` reads one axis's estimate and residual from
it, for both modes.  The 1-D detector ``detect_univariate`` is a view over
the same routine: a series is a grid of one row, and its four-term
relation is the quotient along x.
"""

from __future__ import annotations

import enum
import math
import operator as _op
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .expspace import Frequency, FrequencyVector, GridSamples, _check_window
from .operators import _AXIS_STEPS, IntegerStep, _axis_step, _residual, _step_shift, _window_shift

__all__ = [
    "StencilDirectionSet",
    "CoshEstimate",
    "Classification",
    "DetectionReport",
    "cosh_to_frequency",
    "detect",
    "detect_univariate",
]

DEFAULT_TOL_IM = 1e-9
DEFAULT_TOL_RES = 1e-8


@dataclass(frozen=True)
class StencilDirectionSet:
    """Fallback step vectors per axis, drawn from the butterfly stencil union,
    tried in list order.  No step -v: it reads v's stencils one step over,
    with D, numerator and denominator negated, so it adds no quotient."""

    set_x = (IntegerStep(0, 1), IntegerStep(1, 1))
    set_y = (IntegerStep(1, 0), IntegerStep(1, 1))

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


def _six_point(values: np.ndarray, origin, e: tuple[int, int], step: IntegerStep):
    """The six-point quotient at every base point, for axis e and one step.

    With D(b) = S(b + step) - S(b) at every b where both samples exist,
    returns ``(origin, num, den, d)``: D(a + 2e) + D(a) and D(a + e) at every
    a whose six samples exist, and D itself.  Given values[0, 0] at grid
    index origin, num and den start at the grid index returned.
    """
    shifted, base, (c, r) = _window_shift(values, step.dx, step.dy)
    d = shifted - base
    d2, d0, _ = _window_shift(d, 2 * e[0], 2 * e[1])
    d1 = d[e[1] : e[1] + d0.shape[0], e[0] : e[0] + d0.shape[1]]
    return (origin[0] + c, origin[1] + r), d2 + d0, d1, d


def _entry(arr: np.ndarray, origin, p) -> complex:
    i, j = p[0] - origin[0], p[1] - origin[1]
    if not (0 <= i < arr.shape[1] and 0 <= j < arr.shape[0]):
        raise InputError(f"the stencil at {tuple(p)} leaves the sample window")
    return complex(arr[j, i])


def _flat(d: np.ndarray, sup: float) -> bool:
    """True when the differences D along a step pass the residual test: a
    residual chain built on that step then annihilates the window whatever
    the estimate, so the step cannot give one that the residual judges."""
    return d.size == 0 or _residual(d, sup) <= DEFAULT_TOL_RES


def _estimate(kernel, alpha, e, step, sup: float) -> CoshEstimate | None:
    """The quotient at alpha, or None when D(alpha + e) is zero or the
    window is flat along the step."""
    origin, num, den, d = kernel
    d1 = _entry(den, origin, alpha)
    if d1 == 0 or _flat(d, sup):
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


def _robust_estimate(kernels, alpha, e, sup: float) -> CoshEstimate | None:
    """Median of the quotient over every base point and step with a non-zero
    denominator, over the steps along which the window is not flat, reported
    with the first step that has one.  ``kernels`` maps each step to its
    kernel.  A median of -0.0 is reported as +0.0."""
    live = [(step, k) for step, k in kernels.items() if not _flat(k[3], sup)]
    step = next((st for st, k in live if k[2].any()), None)
    if step is None:
        return None
    num, den = (np.concatenate([k[i].ravel() for _, k in live]) for i in (1, 2))
    keep = den != 0
    value = complex(_median(_real_quotients(num[keep], den[keep])) + 0.0, 0.0)
    return CoshEstimate(e, value, alpha, step, _median(np.abs(den[keep])))


def _axis(values, origin, alpha, e, steps, mode: str, sup: float):
    """Axis e's cosh estimate at alpha, or None for an axis taken as zero, and
    its annihilator residual: num - 2c den = D(b + 2e) - 2c D(b + e) + D(b) of
    the kernel the estimate came from, the reduced chain's output for cosh c,
    or the plain difference along e for an axis taken as zero."""
    if mode == "single":
        for step in steps:
            kernel = _six_point(values, origin, e, step)
            est = _estimate(kernel, alpha, e, step, sup)
            if est is not None:
                break
    else:
        kernels = {st: _six_point(values, origin, e, st) for st in steps}
        est = _robust_estimate(kernels, alpha, e, sup)
        kernel = kernels[est.step_used] if est else None
    if est is not None:
        return est, _residual(kernel[1] - 2.0 * est.value.real * kernel[2], sup)
    shifted, base, _ = _step_shift(values, *e)
    return None, _residual(shifted - base, sup)


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

    Per axis, the fallback steps of ``DEFAULT_STENCILS`` (one per
    direction) are tried in order and the first stencil with a non-zero
    denominator wins ("single" mode); "robust" mode instead takes the
    median over all base points and steps.  Both modes pass over a step
    along which the window is flat, and an axis left without a denominator
    contributes a zero component.  The combined frequency is accepted only
    if its annihilator leaves a relative residual below ``tol_res`` on both
    axes: the reduced three-factor chain along an estimated axis, read from
    the kernel of the step its estimate came from, and the plain difference
    along an axis taken as zero.  ``tol_res`` is the one
    tolerance a caller sets; flatness is judged at DEFAULT_TOL_RES, the
    imaginary-part bound (``cosh_to_frequency``) is fixed, and a denominator
    has no threshold.
    A base point outside the window raises ``InputError`` in both modes.
    """
    if mode not in ("single", "robust"):
        raise ValueError(f"unknown mode {mode!r}")
    sup = s.max_abs()
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

    residuals = []
    for e in _AXIS_STEPS:
        est, r = _axis(s.values, s.origin, alpha, e, DEFAULT_STENCILS.for_axis(e), mode, sup)
        residuals.append(r)
        if est is None:
            components.append(Frequency(0.0))
            continue
        estimates.append(est)
        try:
            components.append(cosh_to_frequency(est.value, s.spacing))
        except NumericalError as exc:
            return inconsistent(math.nan, f"axis {e}: {exc}")

    g = FrequencyVector(components[0], components[1])
    residual = float(np.max(residuals))  # max() would drop a NaN on the second axis
    if not residual <= tol_res:  # a NaN residual is not accepted either
        return inconsistent(residual, f"annihilator residual {residual:.3e} exceeds {tol_res:.3e}")
    if not estimates:
        return DetectionReport(Classification.CONSTANT, None, (), residual)
    return DetectionReport(Classification.FREQUENCY, g, tuple(estimates), residual)


def detect_univariate(samples, level: int, alpha: int) -> Frequency:
    """Recover the rate of 1-D data in span{1, exp(g z), exp(-g z)} from the
    four consecutive samples alpha-1 .. alpha+2.

    A 1-D view of the grid quotient: the samples form a 1xn grid, and the
    four-term relation (2c + 1) (f(a+1) - f(a)) = f(a+2) - f(a-1) is the
    six-point quotient along x with step (1, 0) at base alpha - 1, which
    gives c = cosh(2^-level * g).  Estimate and residual come from detect's
    per-axis routine with that one step: the reduced chain's output at b is
    D(b + 2) - 2c D(b + 1) + D(b), with D the plain difference, which is
    itself the output for rate zero, taken when the denominator is zero or
    the series is flat.  A rate that fails the test is an error.
    """
    row = np.asarray(samples, dtype=np.complex128).reshape(1, -1)
    _check_window(level, row.size, 1)
    alpha = _op.index(alpha)
    sup = float(abs(row).max())
    est, residual = _axis(row, (0, 0), (alpha - 1, 0), (1, 0), (_AXIS_STEPS[1, 0],), "single", sup)
    if est is None:
        if residual <= DEFAULT_TOL_RES:
            return Frequency(0.0)
        raise NumericalError(f"f({alpha + 1}) - f({alpha}) vanishes on non-constant data")
    g = cosh_to_frequency(est.value, math.ldexp(1.0, -level))
    if not residual <= DEFAULT_TOL_RES:
        raise NumericalError(
            f"rate {g.value} leaves annihilator residual {residual:.3e} above {DEFAULT_TOL_RES:.3e}"
        )
    return g
