"""Differential and finite-difference operators whose kernels are exponential spaces.

Two actions are provided for each operator: an exact symbolic action on
``ExponentialSum`` (each factor rescales term coefficients, so membership
questions reduce to exact coefficient arithmetic) and a grid action on
``GridSamples`` for the difference operators.  On a level-k grid the
difference weight uses the physical step 2^-k * tv so that sampled data and
frequencies interact at the correct scale.
"""

from __future__ import annotations

import cmath
import math
import operator as _op
from dataclasses import dataclass

from .errors import InputError, NumericalError
from .expspace import (
    ExponentialSum,
    FrequencySet,
    FrequencyVector,
    GridSamples,
)

__all__ = [
    "Direction",
    "IntegerStep",
    "AnnihilatorChain",
    "diff_apply",
    "delta_apply_sum",
    "delta_apply_grid",
    "chain_apply",
    "annihilates",
    "grid_residual",
    "reduced_chain_for_symmetric_set",
]

ZERO_COEFF_REL_TOL = 1e-12


@dataclass(frozen=True)
class Direction:
    """A unit direction in the plane."""

    x: float
    y: float

    def __post_init__(self) -> None:
        m = math.hypot(self.x, self.y)
        if m == 0.0:
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "x", self.x / m)
        object.__setattr__(self, "y", self.y / m)


@dataclass(frozen=True)
class IntegerStep:
    """A nonzero integer step vector tv."""

    dx: int
    dy: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dx", _op.index(self.dx))
        object.__setattr__(self, "dy", _op.index(self.dy))
        if self.dx == 0 and self.dy == 0:
            raise ValueError("step must be nonzero")


Factor = tuple[FrequencyVector, "IntegerStep | Direction"]


@dataclass(frozen=True)
class AnnihilatorChain:
    """An ordered product of difference or differential factors.

    Factors with an ``IntegerStep`` act on sums and grids; factors with a
    ``Direction`` act symbolically on sums only.  Application order is the
    list order; the factors commute, so the order only fixes reproducible
    floating-point results.
    """

    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        factors = tuple((g, s) for g, s in self.factors)
        if not factors:
            raise ValueError("chain must have at least one factor")
        for g, s in factors:
            if not isinstance(g, FrequencyVector):
                raise TypeError("chain factor frequency must be a FrequencyVector")
            if not isinstance(s, (IntegerStep, Direction)):
                raise TypeError("chain factor step must be IntegerStep or Direction")
        object.__setattr__(self, "factors", factors)

    @classmethod
    def over_set(cls, gamma_set: FrequencySet, steps) -> "AnnihilatorChain":
        """Discrete chain with one factor per member of ``gamma_set``.

        ``steps`` is either one ``IntegerStep`` applied to every factor or a
        sequence of ``IntegerStep``s matching the set's length.
        """
        if isinstance(steps, IntegerStep):
            steps = [steps] * len(gamma_set)
        # the constructor checks each step before the count, so a pair of
        # ints raises its TypeError
        chain = cls(tuple(zip(gamma_set, steps)))
        if len(steps) != len(gamma_set):
            raise ValueError("need one step per frequency")
        return chain


def diff_apply(
    gamma: FrequencyVector, direction: Direction, f: ExponentialSum
) -> ExponentialSum:
    """Directional-derivative-minus-rate operator applied symbolically.

    Each term c*exp(m.z) becomes c*((m - gamma).v)*exp(m.z); a term is
    annihilated exactly when its frequency equals gamma.
    """
    vx, vy = direction.x, direction.y

    def rescale(c: complex, m: FrequencyVector) -> complex:
        w = (m.g1.value - gamma.g1.value) * vx + (m.g2.value - gamma.g2.value) * vy
        return c * w

    return f.map_coefficients(rescale)


def _delta_weight(gamma: FrequencyVector, mu: FrequencyVector, sx: float, sy: float) -> complex:
    return cmath.exp(mu.dot(sx, sy)) - cmath.exp(gamma.dot(sx, sy))


def delta_apply_sum(
    gamma: FrequencyVector, step: IntegerStep, f: ExponentialSum
) -> ExponentialSum:
    """Difference operator F(z + tv) - exp(gamma.tv) F(z), symbolically.

    Each term c*exp(m.z) becomes c*(exp(m.tv) - exp(gamma.tv))*exp(m.z).
    """
    if isinstance(step, Direction):
        raise TypeError("a difference factor takes an IntegerStep, not a Direction")
    return chain_apply(AnnihilatorChain(((gamma, step),)), f)


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
    array, and its (column, row) offset in ``values``."""
    out, c, r = values, 0, 0
    for gamma, step in factors:
        if not isinstance(step, IntegerStep):
            raise TypeError("differential factors cannot act on grid samples")
        shifted, base, (c1, r1) = _step_shift(out, step.dx, step.dy)
        try:
            weight = cmath.exp(gamma.dot(step.dx * spacing, step.dy * spacing))
        except OverflowError as exc:
            msg = "a difference weight overflows the floating-point range"
            raise NumericalError(msg) from exc
        out, c, r = shifted - weight * base, c + c1, r + r1
    return out, (c, r)


def delta_apply_grid(
    gamma: FrequencyVector, step: IntegerStep, s: GridSamples
) -> GridSamples:
    """Difference operator on grid samples.

    Output at alpha is S(alpha + tv) - exp(gamma . (2^-k tv)) * S(alpha),
    defined on the window where both lookups exist; the level is preserved.
    """
    return chain_apply(AnnihilatorChain(((gamma, step),)), s)


def chain_apply(chain: AnnihilatorChain, data):
    """Apply every factor of the chain in list order.

    Accepts an ``ExponentialSum`` (difference and differential factors) or
    ``GridSamples`` (difference factors only) and returns the same kind.
    """
    if isinstance(data, ExponentialSum):
        out = data
        for gamma, s in chain.factors:
            if isinstance(s, Direction):
                out = diff_apply(gamma, s, out)
            else:
                sx, sy = float(s.dx), float(s.dy)
                out = out.map_coefficients(lambda c, m: c * _delta_weight(gamma, m, sx, sy))
        return out
    if isinstance(data, GridSamples):
        out, (c, r) = _apply_factors(chain.factors, data.values, data.spacing)
        h, w = out.shape
        return GridSamples(data.level, (data.origin[0] + c, data.origin[1] + r), w, h, out)
    raise TypeError(f"cannot apply chain to {type(data).__name__}")


def annihilates(chain: AnnihilatorChain, f: ExponentialSum) -> bool:
    """True when the chain maps f to zero, up to ZERO_COEFF_REL_TOL of f's
    largest coefficient (chains of a few factors lose at most ~3 digits)."""
    ref = f.max_coefficient()
    if ref == 0.0:
        return True
    out = chain_apply(chain, f)
    return out.max_coefficient() <= ZERO_COEFF_REL_TOL * ref


def _residual(out, sup: float) -> float:
    """max|out| / sup: a chain output's sup-norm relative to sup, the sup-norm
    of the samples it was applied to (an all-zero window gives zero)."""
    return float(abs(out).max()) / sup if sup != 0.0 else 0.0


def grid_residual(chain: AnnihilatorChain, s: GridSamples) -> float:
    """Sup-norm of the chain output divided by the sup-norm of the input
    (zero input gives zero)."""
    return _residual(_apply_factors(chain.factors, s.values, s.spacing)[0], s.max_abs())


_ZERO = FrequencyVector.zero()
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

