"""Independent brute-force validators and deterministic test-instance generation.

The generator is SplitMix64 (Steele, Lea & Flood's 64-bit mixer) so that a
seed produces bit-identical instances in any language: state advances by
0x9E3779B97F4A7C15, and the output mix is xor-shift 30 / multiply
0xBF58476D1CE4E5B9 / xor-shift 27 / multiply 0x94D049BB133111EB /
xor-shift 31.  Uniform doubles take the top 53 bits.
"""

from __future__ import annotations

import cmath
import math

from .expspace import (
    ExponentialSum,
    FrequencySet,
    FrequencyVector,
    GridSamples,
    sample,
    symmetric_set,
)
from .operators import AnnihilatorChain, Direction, IntegerStep

__all__ = [
    "SplitMix64",
    "finite_difference_directional",
    "exhaustive_annihilation_check",
    "random_instance",
    "random_frequency_vector",
    "random_symmetric_sum",
    "apply_chain_pointwise",
]

_MASK = (1 << 64) - 1


class SplitMix64:
    """Portable 64-bit generator; same seed, same stream, everywhere."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = self.next_u64() >> 11
        return lo + (hi - lo) * (u * 2.0**-53)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def sign(self) -> float:
        return 1.0 if self.next_u64() & 1 else -1.0


# Ranges of generated instances; equal seeds give equal instances.
_REAL_RANGE = (0.0, 2.0)
_IMAG_RANGE = (0.0, 0.9 * math.pi)
_COEFF_RANGE = (0.1, 10.0)
_MIN_WINDOW = 7
_MAX_WINDOW = 12
_MAX_LEVEL = 3


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
    gamma_set: FrequencySet,
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


def random_frequency_vector(rng: SplitMix64) -> FrequencyVector:
    """A nonzero frequency pair in the restricted domain, each component
    drawn real or imaginary with equal probability."""
    while True:
        comps = []
        for _ in range(2):
            if rng.below(2) == 0:
                comps.append(complex(rng.uniform(*_REAL_RANGE), 0.0))
            else:
                lo, hi = _IMAG_RANGE
                y = 0.0
                while y == 0.0:
                    y = rng.uniform(lo, hi)
                comps.append(complex(0.0, y))
        g = FrequencyVector.of(*comps)
        if not g.is_zero:
            return g


def random_symmetric_sum(rng: SplitMix64, g: FrequencyVector) -> ExponentialSum:
    """Real-valued member of the symmetric family generated by g, with
    random coefficients conjugate-paired across the family."""
    members = symmetric_set(g)
    lo, hi = _COEFF_RANGE
    terms = tuple((rng.sign() * rng.uniform(lo, hi), m) for m in members)
    f = ExponentialSum(terms)
    # the family is closed under conjugation, so averaging realifies
    f = 0.5 * (f + f.conjugate())
    return f


def random_instance(seed: int) -> tuple[FrequencyVector, ExponentialSum, GridSamples]:
    """A planted frequency pair, a real-valued symmetric-family member with
    that pair, and its samples on a random dyadic window."""
    rng = SplitMix64(seed)
    g = random_frequency_vector(rng)
    f = random_symmetric_sum(rng, g)
    level = rng.below(_MAX_LEVEL + 1)
    width = _MIN_WINDOW + rng.below(_MAX_WINDOW - _MIN_WINDOW + 1)
    height = _MIN_WINDOW + rng.below(_MAX_WINDOW - _MIN_WINDOW + 1)
    origin = (rng.below(7) - 3, rng.below(7) - 3)
    return g, f, sample(f, level, origin, width, height)


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
