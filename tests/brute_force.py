"""Brute-force validators that the tests check expann's operators against.

Each one computes its answer a slower, independent way: a forward
difference quotient for the directional derivative, a closed-form scan
over every step tuple for the discrete characterization, and a recursive
one-point chain evaluation whose lookups can be counted.
"""

import cmath
import math

from expann.expspace import ExponentialSum, FrequencyVector
from expann.operators import AnnihilatorChain, Direction, IntegerStep


def finite_difference_directional(
    f: ExponentialSum, z, v: Direction, h: float
) -> complex:
    """Forward difference quotient (f(z + h v) - f(z)) / h."""
    if h <= 0:
        raise ValueError("step must be positive")
    z1, z2 = float(z[0]), float(z[1])
    return (f.evaluate((z1 + h * v.x, z2 + h * v.y)) - f.evaluate((z1, z2))) / h


def _all_steps(bound: int) -> list[IntegerStep]:
    return [
        IntegerStep(dx, dy)
        for dx in range(-bound, bound + 1)
        for dy in range(-bound, bound + 1)
        if (dx, dy) != (0, 0)
    ]


def exhaustive_annihilation_check(
    f: ExponentialSum,
    gamma_set: tuple[FrequencyVector, ...],
    step_bound: int,
    rel_tol: float = 1e-12,
) -> bool:
    """Does the difference chain over gamma_set annihilate f for EVERY tuple
    of steps with components in [-bound, bound]^2 \\ {0}?

    Each factor multiplies a term's coefficient by
    exp(mu . s) - exp(gamma_i . s) and never mixes terms, so the largest
    output coefficient over the full Cartesian product of step tuples is,
    per term, |c| times the product over factors of the per-factor maximum.
    That closed form is evaluated here; it equals scanning all tuples.
    """
    if step_bound < 1 or step_bound > 3:
        raise ValueError("step bound must be 1, 2, or 3")
    ref = f.max_coefficient()
    if ref == 0.0:
        return True
    steps = _all_steps(step_bound)
    for coeff, mu in f.terms:
        worst = abs(coeff)
        for gamma in gamma_set:
            worst *= max(
                abs(
                    cmath.exp(mu.dot(s.dx, s.dy))
                    - cmath.exp(gamma.dot(s.dx, s.dy))
                )
                for s in steps
            )
        if worst > rel_tol * ref:
            return False
    return True


def apply_chain_pointwise(
    chain: AnnihilatorChain, lookup, alpha: tuple[int, int], level: int
) -> complex:
    """Evaluate a discrete chain at one point through a raw lookup callable.

    Recurses on the factor list instead of shifting whole windows, so a
    counting ``lookup`` wrapper reveals exactly which grid points one
    output value touches.
    """
    factors = chain.factors
    h = math.ldexp(1.0, -level)

    def rec(i: int, a: tuple[int, int]) -> complex:
        if i == 0:
            return lookup(a)
        gamma, step = factors[i - 1]
        if not isinstance(step, IntegerStep):
            raise TypeError("pointwise application needs a discrete chain")
        weight = cmath.exp(gamma.dot(step.dx * h, step.dy * h))
        return rec(i - 1, (a[0] + step.dx, a[1] + step.dy)) - weight * rec(i - 1, a)

    return rec(len(factors), (int(alpha[0]), int(alpha[1])))
