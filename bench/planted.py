"""Seeded planted inputs and their exact values, computed without expann.

Every 2-D input is a real-valued member of the symmetric exponential family
{0, g, -g, g~, -g~} with g~ = (g1, -g2) and a planted generator g; every
1-D input lies in span{1, e^(gz), e^(-gz)}.  Values are evaluated here with
numpy, so the checks never compare expann with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Component magnitudes are kept away from zero: a zero component sends
# detection down its constancy fallback, which misreports some grids (see
# the FOUND line on `Constant` in CHANGES.md), and acosh loses precision as
# the rate goes to zero.
REAL_RANGE = (0.2, 2.0)
IMAG_RANGE = (0.2, 0.9 * math.pi)
COEFF_RANGE = (0.5, 5.0)


def family_members(g: tuple[complex, complex]) -> list[tuple[complex, complex]]:
    """{0, g, -g, g~, -g~} for a generator with both components nonzero."""
    g1, g2 = complex(g[0]), complex(g[1])
    return [(0j, 0j), (g1, g2), (-g1, -g2), (g1, -g2), (-g1, g2)]


@dataclass(frozen=True)
class Family:
    """sum_m c_m exp(m . z) over the members m of one symmetric family."""

    g: tuple[complex, complex]
    terms: tuple[tuple[complex, tuple[complex, complex]], ...]

    def evaluate(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return sum(c * np.exp(m1 * x + m2 * y) for c, (m1, m2) in self.terms)

    def magnitude(self, x, y) -> np.ndarray:
        """sum_m |c_m| |exp(m . z)|, the scale of rounding error at z."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return sum(
            abs(c) * np.exp(m1.real * x + m2.real * y) for c, (m1, m2) in self.terms
        )

    def grid(self, level: int, origin, width: int, height: int):
        """(values, magnitudes) on the index window, rows along the second axis."""
        h = math.ldexp(1.0, -level)
        x = (origin[0] + np.arange(width)) * h
        y = (origin[1] + np.arange(height)) * h
        xx, yy = np.meshgrid(x, y)
        return self.evaluate(xx, yy), self.magnitude(xx, yy)


@dataclass(frozen=True)
class Series:
    """c0 + c1 exp(g z) + c2 exp(-g z) sampled at 2^-level (origin + i)."""

    rate: complex
    coeffs: tuple[float, float, float]

    def evaluate(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        c0, c1, c2 = self.coeffs
        return c0 + c1 * np.exp(self.rate * z) + c2 * np.exp(-self.rate * z)

    def magnitude(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        c0, c1, c2 = (abs(c) for c in self.coeffs)
        r = self.rate.real
        return c0 + c1 * np.exp(r * z) + c2 * np.exp(-r * z)


def real_family(g, coeffs) -> Family:
    """The family with real coefficient ``coeffs[k]`` on member k, averaged
    with its complex conjugate so that its values are real."""
    members = family_members(g)
    index = {m: k for k, m in enumerate(members)}
    terms = []
    for k, m in enumerate(members):
        partner = index[(m[0].conjugate(), m[1].conjugate())]
        terms.append((complex((coeffs[k] + coeffs[partner]) / 2.0), m))
    return Family((complex(g[0]), complex(g[1])), tuple(terms))


def draw_component(rng: np.random.Generator, real: bool | None = None,
                   real_range=REAL_RANGE) -> complex:
    """A real or imaginary rate; which one is drawn too unless ``real`` says."""
    if real is None:
        real = rng.integers(2) == 0
    if real:
        return complex(rng.uniform(*real_range), 0.0)
    return complex(0.0, rng.uniform(*IMAG_RANGE))


def draw_family(rng: np.random.Generator, real=(None, None), real_range=REAL_RANGE) -> Family:
    """A planted generator and real coefficients.  ``real`` fixes, per
    component, whether it is real (True) or imaginary (False).  Conjugate
    members share a sign, so no member's realified coefficient cancels below
    COEFF_RANGE[0]."""
    g = tuple(draw_component(rng, r, real_range) for r in real)
    members = family_members(g)
    signs = {}
    coeffs = []
    for m in members:
        key = frozenset({m, (m[0].conjugate(), m[1].conjugate())})
        if key not in signs:
            signs[key] = 1.0 if rng.integers(2) else -1.0
        coeffs.append(signs[key] * rng.uniform(*COEFF_RANGE))
    return real_family(g, coeffs)


@dataclass(frozen=True)
class Window:
    level: int
    origin: tuple[int, int]
    width: int
    height: int

    @property
    def centre(self) -> tuple[int, int]:
        """The base point `expann detect` uses when none is given."""
        return (
            self.origin[0] + max(0, self.width // 2 - 1),
            self.origin[1] + max(0, self.height // 2 - 1),
        )


def draw_small_window(rng: np.random.Generator) -> Window:
    """The window shape of `expann.oracle.RandomSpec`: 7..12 wide, levels
    0..3, origin in [-3, 3]^2."""
    level = int(rng.integers(0, 4))
    width, height = (int(v) for v in rng.integers(7, 13, size=2))
    origin = tuple(int(v) for v in rng.integers(-3, 4, size=2))
    return Window(level, origin, width, height)


def refined_positions(origin: int, level: int, count: int, rounds: int):
    """Positions of `count` samples after `rounds` refinement rounds of a
    series that started at (origin, level): origin -> 2 (origin + 1) and
    level -> level + 1 per round."""
    for _ in range(rounds):
        origin = 2 * (origin + 1)
        level += 1
    return (origin + np.arange(count)) * math.ldexp(1.0, -level), origin, level


def grid_doc(values: np.ndarray, window: Window) -> dict:
    """A grid file for real-valued samples, floats written by repr."""
    return {
        "level": window.level,
        "origin": list(window.origin),
        "width": window.width,
        "height": window.height,
        "values": [float(v) for v in np.real(values).ravel()],
    }


def sum_doc(f: Family) -> dict:
    return {
        "terms": [
            {"coeff": [c.real, c.imag], "freq": [[m1.real, m1.imag], [m2.real, m2.imag]]}
            for c, (m1, m2) in f.terms
        ]
    }


def rate_token(v: complex) -> str:
    """A command-line frequency component: '0.8' real, '0.3i' imaginary."""
    return repr(v.imag) + "i" if v.imag != 0.0 else repr(v.real)
