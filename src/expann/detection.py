"""Automatic identification of the unknown frequency pair from grid samples.

The workhorse is a six-point quotient: with D(b) = S(b + tv) - S(b), the
ratio (D(a + 2e) + D(a)) / (2 D(a + e)) equals cosh of the frequency
component along axis e (at the grid's physical step).  The relation holds
exactly on the family, so a denominator needs no threshold.  A step tv is
passed over for the next one in a fixed fallback list, one step per
direction, when its denominator is exactly zero or the window is flat along
it (its differences D pass the residual test, so a residual chain built on
tv would pass any estimate); if every step is passed over, the component
along that axis is taken as zero.  The annihilator residual is the one
judge of every answer.  Along an estimated axis it is the reduced
three-factor chain's output D(a + 2e) - 2c D(a + e) + D(a), the quotient's
numerator less 2c times its denominator; an axis taken as zero is checked
with the plain difference along it, which fails on data that varies along
it.  ``_Differences`` takes each step's D once per call for both axes, from
two slices of the window, and its residual only where one difference cannot
decide flatness (``_flat``) or for an axis taken as zero; the plain
difference along an axis is D of its unit step.  ``_six_point`` computes
numerator and denominator from D at every base point at once, and ``_axis``
alone decides one axis from them, for both modes and the 1-D detector: its
``_Decision`` record holds the estimate, the rate (``cosh_to_frequency``'s,
or zero for an axis taken as zero), a refusal as the ``NumericalError``
itself, and the residual.  All of it runs in the samples' own arithmetic:
real for real samples, complex otherwise.  Whole-array maxima and tests
call numpy's reductions (``np.maximum.reduce``, and ``np.fmin.reduce`` of
``np.absolute`` for robust mode's zero-denominator test) without the array
methods' Python wrappers.  The 1-D detector
``detect_univariate`` is a view over the same routine: a series is a grid
of one row, and its four-term relation is the quotient along x.
"""

from __future__ import annotations

import enum
import math
import operator as _op
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError
from .expspace import Frequency, FrequencyVector, GridSamples, _check_window, _series
from .operators import _AXIS_STEPS, IntegerStep, _residual, _step_shift

__all__ = [
    "CoshEstimate",
    "Classification",
    "DetectionReport",
    "cosh_to_frequency",
    "detect",
    "detect_univariate",
]

DEFAULT_TOL_IM = 1e-9
DEFAULT_TOL_RES = 1e-8
# Detection's arrays hold differences of at most 2 sup, six-point sums and
# doubled denominators of at most 4 sup, and residual terms of at most
# 4 (|c| + 1) sup, so none overflows while sup, or (|c| + 1) sup before a
# residual, is at most this bound; only past it does ``_axis`` enter
# ``np.errstate``, so that an overflow leaves inf or NaN to the tests that
# refuse it instead of a numpy warning.
_SUP_BOUND = sys.float_info.max / 8


# Fallback steps per axis, from the butterfly stencil union, tried in order:
# the transverse unit step, then the diagonal, one object per step, since
# per-call tables find steps by identity.  No step -v: it reads v's stencils
# one step over, negated, so it adds no quotient.
_DIAGONAL = IntegerStep(1, 1)
_FALLBACK = {(1, 0): (_AXIS_STEPS[0, 1], _DIAGONAL), (0, 1): (_AXIS_STEPS[1, 0], _DIAGONAL)}
_AXES = tuple(_FALLBACK.items())
# kept only for bench/run.py, which counts robust-mode stencils through it
DEFAULT_STENCILS = SimpleNamespace(for_axis=_FALLBACK.__getitem__)


@dataclass(frozen=True, init=False)
class CoshEstimate:
    """One axis's cosh value and the step of the six-point stencils it came from."""

    axis: tuple[int, int]
    value: complex
    step_used: IntegerStep

    def __init__(self, axis: tuple[int, int], value: complex, step_used: IntegerStep) -> None:
        self.__dict__.update(axis=axis, value=value, step_used=step_used)


class Classification(enum.Enum):
    CONSTANT = "Constant"
    FREQUENCY = "Frequency"
    INCONSISTENT = "Inconsistent"


@dataclass(frozen=True, init=False)
class DetectionReport:
    """Outcome of frequency detection at one base point."""

    classification: Classification
    frequency: FrequencyVector | None
    estimates: tuple[CoshEstimate, ...]
    residual: float
    reason: str = ""

    def __init__(
        self,
        classification: Classification,
        frequency: FrequencyVector | None,
        estimates: tuple[CoshEstimate, ...],
        residual: float,
        reason: str = "",
    ) -> None:
        self.__dict__.update(
            classification=classification, frequency=frequency, estimates=estimates,
            residual=residual, reason=reason,
        )


class _Differences(dict):
    """D(b) = S(b + step) - S(b) per step, taken on first use and kept for one
    call, so both axes share it: maps a step to D at every b where both
    samples exist (possibly none).  Every step detection takes has
    non-negative components (others raise ``ValueError``), so D is two slices
    of ``values`` and d[0, 0] is D at values[0, 0], grid index ``origin``.
    ``res`` keeps each residual that ``residual`` takes."""

    __slots__ = ("values", "origin", "sup", "res")

    def __init__(self, values: np.ndarray, origin, sup: float):
        self.values, self.origin, self.sup, self.res = values, origin, sup, {}

    def __missing__(self, step: IntegerStep):
        if step.dx < 0 or step.dy < 0:
            raise ValueError(f"step ({step.dx}, {step.dy}) has a negative component")
        shifted = self.values[step.dy :, step.dx :]
        self[step] = d = shifted - self.values[: shifted.shape[0], : shifted.shape[1]]
        return d

    def residual(self, step: IntegerStep) -> float:
        """max|D| / sup of the step's D, zero when D is empty, taken once."""
        if step not in self.res:
            self.res[step] = _residual(self[step], self.sup) if self[step].size else 0.0
        return self.res[step]


def _six_point(d, e: tuple[int, int]):
    """The six-point quotient's parts at every base point, for axis e, from one
    step's differences d: returns ``(num, den)``, D(a + 2e) + D(a) and
    D(a + e) at every a whose six samples exist.  e is a unit axis, so the
    three parts are slices of D at offsets 0, e and 2e, and num and den start
    where D does."""
    if e[0]:
        return d[:, 2:] + d[:, :-2], d[:, 1:-1]
    return d[2:] + d[:-2], d[1:-1]


def _flat(diffs: _Differences, step: IntegerStep, probe=None) -> bool:
    """True when the differences D along ``step`` pass the residual test, so a
    residual chain built on that step would pass any estimate.  ``probe``, a
    difference of D the call holds (D's first by default), says "not flat"
    alone when the larger of its |re| and |im| over sup exceeds DEFAULT_TOL_RES:
    that is at most max|D| as numpy rounds it, and division by sup keeps order."""
    if probe is None:
        d = diffs[step]
        probe = d.item(0) if d.size else 0.0
    p = complex(probe)
    if diffs.sup and max(abs(p.real), abs(p.imag)) / diffs.sup > DEFAULT_TOL_RES:
        return False
    return diffs.residual(step) <= DEFAULT_TOL_RES


def _median(x: np.ndarray) -> float | complex:
    """The middle entry, or the mean of the two middle ones, of the array's kind
    (numpy orders complex values by real, then imaginary part).  It consumes
    ``x``: the array is partitioned in place, so every caller passes an array
    it owns.  np.partition would copy it first, and np.median would import
    numpy.ma, a megabyte of resident memory, on its first call."""
    k = x.size // 2
    x.partition(k if x.size % 2 else [k - 1, k])
    return x[k].item() if x.size % 2 else (x[k - 1].item() + x[k].item()) / 2


def _robust_estimate(kernels, e, sup: float) -> tuple:
    """Median of the quotient over every base point and step with a non-zero
    denominator, with the first step that has one and its kernel, which gives
    the residual; ``(None, None)`` when no denominator is non-zero.
    ``kernels`` lists ``(step, kernel)`` for each step along which the window
    is not flat, in fallback order, and is not empty.  The joined numerators
    and denominators, masked first only when some denominator is exactly zero,
    are fresh arrays this call owns: the denominators are doubled and the
    numerators divided by them in place, in the samples' own arithmetic
    (under ``np.errstate`` only where the bound below lets a quotient
    overflow: ``cosh_to_frequency`` refuses an inf median as it refuses
    single mode's quotient), and ``_median`` partitions the quotients where
    they lie.  A complex median keeps its imaginary part for
    ``cosh_to_frequency`` to judge, as single mode's quotient does.  A real
    part of -0.0 is reported as +0.0."""
    num = np.concatenate([k[0] for _, k in kernels], axis=None)
    den = np.concatenate([k[1] for _, k in kernels], axis=None)
    low = den.size and np.fmin.reduce(np.absolute(den), None)  # NaN only when all are
    for step, kernel in kernels:
        # when every denominator is non-zero, the first step with one is the
        # first whose kernel is not empty
        if (kernel[1].size if low != 0 else kernel[1].any()):
            break
    else:
        return None, None
    if low == 0:
        keep = den != 0
        num, den = num[keep], den[keep]
    den *= 2.0
    # |num| <= 4 sup and |2 den| >= 2 low: while sup and 1 are both at most
    # low * _SUP_BOUND, no quotient overflows, nor the reciprocal that
    # complex division takes (low times it could overflow, so divide sup)
    if low >= 1.0 / _SUP_BOUND and sup / _SUP_BOUND <= low:
        num /= den
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            num /= den
    return CoshEstimate(e, complex(_median(num)) + 0.0, step), kernel


class _Decision(NamedTuple):
    """One axis's decision, which ``_axis`` alone makes: the cosh estimate
    (None for an axis taken as zero), the rate it gives (``Frequency(0.0)``
    for an axis taken as zero, None when refused), the annihilator residual
    (NaN when refused) and the ``NumericalError`` of a refused estimate,
    kept whole so the 1-D view re-raises it with its message and cause."""

    estimate: CoshEstimate | None
    rate: Frequency | None
    residual: float
    error: NumericalError | None = None


def _axis(
    diffs: _Differences, alpha, e, steps, mode: str, scale: float, guarded: bool = False
) -> _Decision:
    """Axis e's decision at alpha, at physical step ``scale``: its cosh
    estimate, the rate ``cosh_to_frequency`` gives it (or its refusal), and
    its annihilator residual: num - 2c den = D(b + 2e) - 2c D(b + e) + D(b) of
    the kernel the estimate came from, the reduced chain's output for cosh c,
    or the plain difference along e for an axis taken as zero.  Single mode
    takes the quotient at alpha from the first step whose denominator there
    is non-zero and along which the window is not flat.  A refused estimate
    has no residual taken.  A sup past ``_SUP_BOUND``, or NaN, makes the whole
    decision under ``np.errstate`` (``guarded``), and so does an estimate
    whose residual terms, of at most 4 (|c| + 1) sup, could pass it."""
    if not (guarded or diffs.sup <= _SUP_BOUND):
        with np.errstate(over="ignore", invalid="ignore"):
            return _axis(diffs, alpha, e, steps, mode, scale, True)
    est = None
    if mode == "single":
        i, j = alpha[0] - diffs.origin[0], alpha[1] - diffs.origin[1]
        for step in steps:
            num, den = kernel = _six_point(diffs[step], e)
            if not (0 <= i < den.shape[1] and 0 <= j < den.shape[0]):
                raise InputError(f"the stencil at {alpha} leaves the sample window")
            d1 = complex(den[j, i])
            if d1 != 0 and not _flat(diffs, step, d1):
                est = CoshEstimate(e, complex(num[j, i]) / (2.0 * d1), step)
                break
    else:
        live = [(st, _six_point(diffs[st], e)) for st in steps if not _flat(diffs, st)]
        est, kernel = _robust_estimate(live, e, diffs.sup) if live else (None, None)
    if est is None:
        _step_shift(diffs.values, *e)  # raises when the plain difference along e does not fit
        return _Decision(None, Frequency(0.0), diffs.residual(_AXIS_STEPS[e]))
    try:
        rate = cosh_to_frequency(est.value, scale)
    except NumericalError as exc:
        return _Decision(est, None, math.nan, exc)
    c2 = 2.0 * est.value.real  # an inf here fails the bound below
    if not (guarded or (0.5 * abs(c2) + 1.0) * diffs.sup <= _SUP_BOUND):
        with np.errstate(over="ignore", invalid="ignore"):
            return _axis(diffs, alpha, e, steps, mode, scale, True)
    return _Decision(est, rate, _residual(kernel[0] - c2 * kernel[1], diffs.sup))


def cosh_to_frequency(c: complex, scale: float) -> Frequency:
    """Invert a cosh estimate taken at physical step ``scale`` to the
    level-0 frequency component.

    The estimate is rejected as non-real when its imaginary part is above
    DEFAULT_TOL_IM * (1 + |c|), and as outside the domain of the inverse when
    its real part is not above -1 (NaN included).  Values >= 1 map to
    nonnegative real rates, values in (-1, 1) to imaginary rates, and
    ``Frequency`` alone judges the rate: one that overflows, or an imaginary
    one on or beyond i*pi, raises ``NumericalError`` with its message after
    the estimate's.  A scale that is not positive and finite, NaN included,
    raises ``InputError``.
    """
    if not 0.0 < scale < math.inf:
        raise InputError(f"scale must be positive and finite, got {scale}")
    c = complex(c)
    try:
        non_real = abs(c.imag) > DEFAULT_TOL_IM * (1.0 + abs(c))
    except OverflowError:  # |c| passes the float range: compare the halves
        non_real = 0.5 * abs(c.imag) > DEFAULT_TOL_IM * (0.5 + abs(0.5 * c))
    if non_real:
        raise NumericalError(f"cosh estimate {c} has a non-real part")
    x = c.real
    if not x > -1.0:
        raise NumericalError(f"cosh estimate {x} is not above -1")
    rate = math.acosh(x) / scale if x >= 1.0 else complex(0.0, math.acos(x) / scale)
    try:
        return Frequency(rate)
    except ValueError as exc:
        raise NumericalError(f"cosh estimate {x}: {exc}") from exc


def detect(
    s: GridSamples,
    alpha: tuple[int, int],
    mode: str = "single",
    tol_res: float = DEFAULT_TOL_RES,
) -> DetectionReport:
    """Identify the frequency pair of grid data assumed to lie in a
    symmetric exponential family.

    Per axis, the fallback steps of ``_FALLBACK`` (one per
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
    if not tol_res >= 0.0:  # NaN fails too; inf accepts everything
        raise InputError(f"tol_res must be a non-negative number, got {tol_res}")
    i, j = map(_op.index, alpha)
    alpha = (i, j)
    if not s._contains(i, j):
        raise InputError(f"the stencil at {alpha} leaves the sample window")
    diffs = _Differences(s.values, s.origin, s.max_abs())
    spacing = s.spacing
    axes: list[_Decision] = []
    for e, steps in _AXES:
        axes.append(_axis(diffs, alpha, e, steps, mode, spacing))
        if axes[-1].error is not None:  # the first refused axis decides the report
            break
    estimates = tuple([a.estimate for a in axes if a.estimate is not None])
    if axes[-1].error is not None:
        reason = f"axis {e}: {axes[-1].error}"
        return DetectionReport(Classification.INCONSISTENT, None, estimates, math.nan, reason)
    x, y = axes
    rx, ry = x.residual, y.residual
    residual = rx if rx >= ry or rx != rx else ry  # max() would drop a NaN on y
    if not residual <= tol_res:  # a NaN residual is not accepted either
        reason = f"annihilator residual {residual:.3e} exceeds {tol_res:.3e}"
        return DetectionReport(Classification.INCONSISTENT, None, estimates, residual, reason)
    if not estimates:
        return DetectionReport(Classification.CONSTANT, None, (), residual)
    g = FrequencyVector(x.rate, y.rate)
    return DetectionReport(Classification.FREQUENCY, g, estimates, residual)


def detect_univariate(samples, level: int, alpha: int) -> Frequency:
    """Recover the rate of 1-D data in span{1, exp(g z), exp(-g z)} from the
    four consecutive samples alpha-1 .. alpha+2.

    A 1-D view of the grid quotient: the samples form a 1xn grid, and the
    four-term relation (2c + 1) (f(a+1) - f(a)) = f(a+2) - f(a-1) is the
    six-point quotient along x with step (1, 0) at base alpha - 1, which
    gives c = cosh(2^-level * g).  Estimate, rate, refusal and residual are
    the record that detect's per-axis routine ``_axis`` makes with that one
    step: the reduced chain's output at b is D(b + 2) - 2c D(b + 1) + D(b),
    with D the plain difference, which is itself the output for rate zero,
    taken when the denominator is zero or the series is flat.  A refused
    estimate raises its ``NumericalError``, message and cause as
    ``cosh_to_frequency`` made them.  As in ``detect``, one residual test
    judges the rate, zero included: a residual above DEFAULT_TOL_RES, or
    NaN, raises ``NumericalError``.  An alpha whose four samples are not all
    in the series raises ``InputError`` naming alpha and the series length.
    """
    row = _series(samples).reshape(1, -1)
    level = _check_window(level, row.size, 1)[0]
    alpha = _op.index(alpha)
    if not 0 < alpha < row.size - 2:
        raise InputError(f"the stencil at {alpha} leaves the sample window of {row.size} samples")
    diffs = _Differences(row, (0, 0), float(np.maximum.reduce(abs(row), None)))
    scale = math.ldexp(1.0, -level)
    rec = _axis(diffs, (alpha - 1, 0), (1, 0), (_AXIS_STEPS[1, 0],), "single", scale)
    if rec.error is not None:
        raise rec.error
    if not rec.residual <= DEFAULT_TOL_RES:
        bound = f"{rec.residual:.3e} above {DEFAULT_TOL_RES:.3e}"
        raise NumericalError(f"rate {rec.rate.value} leaves annihilator residual {bound}")
    return rec.rate
