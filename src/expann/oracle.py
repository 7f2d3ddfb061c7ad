"""The seeded random test instance that ``expann generate`` emits.

The generator is SplitMix64 (Steele, Lea & Flood's 64-bit mixer) so that a
seed produces bit-identical instances in any language: state advances by
0x9E3779B97F4A7C15, and the output mix is xor-shift 30 / multiply
0xBF58476D1CE4E5B9 / xor-shift 27 / multiply 0x94D049BB133111EB /
xor-shift 31.  Uniform doubles take the top 53 bits.
"""

from __future__ import annotations

import math

from .expspace import ExponentialSum, FrequencyVector, GridSamples, sample, symmetric_set

__all__ = [
    "SplitMix64",
    "random_instance",
    "random_frequency_vector",
    "random_symmetric_sum",
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
        g = FrequencyVector(*comps)
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
