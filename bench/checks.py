"""Property checks on expann outputs.

Each check returns None when the output is right and a one-line reason when
it is wrong.  Expected values come from `planted`, never from a stored copy
of an earlier expann output.
"""

from __future__ import annotations

import numpy as np

from planted import Family, Window, family_members, refined_positions

# The recovered frequency is compared with the planted one component by
# component, relative to max(1, |g|).  Exact data recovers it to about 1e-12.
FREQ_TOL = 1e-6
# Values are compared point by point, relative to sum_m |c_m e^(m.z)|.
# Exact refinement and sampling agree to about 1e-14.
VALUE_TOL = 1e-9
# expann's default acceptance threshold for annihilator residuals.
TOL_RES = 1e-8


def frequency_error(classification: str, gamma, planted) -> str | None:
    if classification != "Frequency":
        return f"classified {classification}, planted {planted}"
    for got, want in zip(gamma, planted):
        if abs(complex(got) - complex(want)) > FREQ_TOL * max(1.0, abs(want)):
            return f"frequency {tuple(gamma)} is not the planted {tuple(planted)}"
    return None


def values_error(got, exact, magnitude, what: str) -> str | None:
    got = np.asarray(got, dtype=np.complex128)
    exact = np.asarray(exact, dtype=np.complex128)
    if got.shape != exact.shape:
        return f"{what}: shape {got.shape}, expected {exact.shape}"
    err = np.abs(got - exact) / np.asarray(magnitude)
    worst = int(np.argmax(err))
    if not err.flat[worst] <= VALUE_TOL:
        return f"{what}: relative error {err.flat[worst]:.3e} at entry {worst}"
    return None


def refined_error(values, start, rounds: int, exact, magnitude, header=None) -> str | None:
    """Refined samples against the exact function at the positions the
    origin and level rules give.  ``start`` is (origin, level) before
    refinement; ``exact`` and ``magnitude`` take a position array;
    ``header`` is the (origin, level) an output file reports."""
    z, origin, level = refined_positions(start[0], start[1], len(values), rounds)
    if header is not None and tuple(header) != (origin, level):
        return f"refined origin/level {tuple(header)}, expected ({origin}, {level})"
    return values_error(values, exact(z), magnitude(z), "refined series")


def parse_value(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def grid_values(doc: dict) -> np.ndarray:
    vals = np.array([parse_value(v) for v in doc["values"]], dtype=np.complex128)
    return vals.reshape(doc["height"], doc["width"])


def grid_error(doc: dict, f: Family, window: Window) -> str | None:
    """A grid file against the family evaluated on the window."""
    got = (doc["level"], tuple(doc["origin"]), doc["width"], doc["height"])
    want = (window.level, window.origin, window.width, window.height)
    if got != want:
        return f"grid header {got}, expected {want}"
    exact, magnitude = f.grid(window.level, window.origin, window.width, window.height)
    return values_error(grid_values(doc), exact, magnitude, "grid")


def annihilate_error(doc: dict, window: Window, axis: str, input_sup: float) -> str | None:
    """The reduced chain with the true gamma (extra step (1, 1)) leaves a
    residual grid of the shape the steps give, below TOL_RES."""
    if not doc["residual"] <= TOL_RES:
        return f"residual {doc['residual']:.3e} above {TOL_RES:.0e}"
    out = doc["residual_grid"]
    ex, ey = (1, 0) if axis == "x" else (0, 1)
    want = (window.width - 1 - 2 * ex, window.height - 1 - 2 * ey)
    if (out["width"], out["height"]) != want or out["level"] != window.level:
        return f"residual grid {out['width']}x{out['height']}, expected {want[0]}x{want[1]}"
    sup = float(np.max(np.abs(grid_values(out))))
    if not sup <= TOL_RES * input_sup:
        return f"residual grid sup {sup:.3e} is not below tol_res times the input sup"
    return None


def generate_error(doc: dict) -> str | None:
    """The emitted sum is the symmetric family of the emitted frequency and
    the emitted grid is that sum on the grid points."""
    g = tuple(parse_value(c) for c in doc["frequency"])
    terms = []
    for t in doc["sum"]["terms"]:
        terms.append((parse_value(t["coeff"]), tuple(parse_value(c) for c in t["freq"])))
    if {_key(m) for _, m in terms} != {_key(m) for m in family_members(g)}:
        return f"sum frequencies are not the symmetric family of {g}"
    grid = doc["grid"]
    window = Window(grid["level"], tuple(grid["origin"]), grid["width"], grid["height"])
    return grid_error(grid, Family(g, tuple(terms)), window)


def _key(m) -> tuple[float, float, float, float]:
    # + 0.0 folds -0.0 into 0.0
    return (m[0].real + 0.0, m[0].imag + 0.0, m[1].real + 0.0, m[1].imag + 0.0)
