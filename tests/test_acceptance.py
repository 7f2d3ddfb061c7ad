"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every tolerance is pinned here; run with  pytest tests/test_acceptance.py -v -s
to see the per-criterion lines.
"""

import cmath
import json
import math

import numpy as np

from expann.cli import main as cli_main
from expann.detection import Classification, detect
from expann.expspace import (
    ExponentialSum,
    FrequencyVector,
    GridSamples,
    sample,
    symmetric_set,
)
from expann.jsonio import dump_series
from expann.operators import (
    Direction,
    IntegerStep,
    delta_apply_grid,
    delta_apply_sum,
    diff_apply,
    grid_residual,
    reduced_chain_for_symmetric_set,
)
from expann.oracle import (
    SplitMix64,
    apply_chain_pointwise,
    exhaustive_annihilation_check,
    finite_difference_directional,
    random_frequency_vector,
    random_instance,
    random_symmetric_sum,
)
from expann.subdivision import auto_refine, synthesize_rule


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _draw_scalar_rate(rng: SplitMix64) -> complex:
    if rng.below(2) == 0:
        return complex(rng.uniform(0.1, 2.0), 0.0)
    return complex(0.0, rng.uniform(0.1, 0.9 * math.pi))


def test_criterion_1_univariate_four_term_identity():
    rng = SplitMix64(101)
    worst = 0.0
    for draw in range(30):
        a = rng.sign() * rng.uniform(0.1, 10.0)
        b = rng.sign() * rng.uniform(0.1, 10.0)
        g = _draw_scalar_rate(rng)
        for k in range(5):
            h = math.ldexp(1.0, -k)
            f = np.array(
                [1.0 + a * cmath.exp(g * i * h) + b * cmath.exp(-g * i * h)
                 for i in range(12)]
            )
            c = cmath.cosh(h * g).real
            res = f[:-3] - (2 * c + 1) * f[1:-2] + (2 * c + 1) * f[2:-1] - f[3:]
            rel = np.max(np.abs(res)) / np.max(np.abs(f))
            worst = max(worst, rel)
    report(1, "univariate four-term identity", worst <= 1e-11, f"worst rel {worst:.2e}")


def _symmetric_five_set(rng: SplitMix64):
    while True:
        g = random_frequency_vector(rng)
        gam = symmetric_set(g)
        if len(gam) == 5:
            return g, gam


def test_criterion_2_exhaustive_discrete_characterization():
    rng = SplitMix64(202)
    failures = 0
    for _ in range(30):
        g, gam = _symmetric_five_set(rng)
        f = random_symmetric_sum(rng, g)
        if not exhaustive_annihilation_check(f, gam, 2):
            failures += 1
        mu = random_frequency_vector(rng)
        while any(mu.as_pair() == m.as_pair() for m in gam):
            mu = random_frequency_vector(rng)
        perturbed = f + ExponentialSum.single(f.max_coefficient(), mu)
        if exhaustive_annihilation_check(perturbed, gam, 2):
            failures += 1
    report(2, "exhaustive discrete characterization, bound 2", failures == 0,
           f"{failures} failures")


def test_criterion_3_reduced_three_factor_annihilator():
    extras = [IntegerStep(1, 1), IntegerStep(-1, -1), IntegerStep(0, 1), IntegerStep(1, 0)]
    worst = 0.0
    footprint_ok = True
    for i in range(30):
        g, f, s = random_instance(1000 + i)
        extra = extras[i % len(extras)]
        for e in ((1, 0), (0, 1)):
            chain = reduced_chain_for_symmetric_set(g, e, extra)
            worst = max(worst, grid_residual(chain, s))
            touched: set = set()

            def lookup(alpha, _s=s, _t=touched):
                _t.add(alpha)
                return _s.value_at(alpha)

            base = (s.origin[0] + max(0, -extra.dx), s.origin[1] + max(0, -extra.dy))
            apply_chain_pointwise(chain, lookup, base, s.level)
            predicted = {
                (base[0] + lam * extra.dx + mu * e[0],
                 base[1] + lam * extra.dy + mu * e[1])
                for lam in (0, 1) for mu in (0, 1, 2)
            }
            footprint_ok &= len(touched) <= 6 and touched == predicted
    report(3, "reduced three-factor annihilator", worst <= 1e-11 and footprint_ok,
           f"worst residual {worst:.2e}, footprint<=6 {footprint_ok}")


def test_criterion_4_frequency_identification():
    rng = SplitMix64(2024)
    worst = 0.0
    ok = True
    for i in range(50):
        kind, level = i % 4, i % 4
        if kind == 0:
            g = FrequencyVector.of(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
        elif kind == 1:
            g = FrequencyVector.of(1j * rng.uniform(0.1, 0.9 * math.pi),
                                   1j * rng.uniform(0.1, 0.9 * math.pi))
        elif kind == 2:
            g = FrequencyVector.of(rng.uniform(0.1, 2.0),
                                   1j * rng.uniform(0.1, 0.9 * math.pi))
        else:
            g = FrequencyVector.of(1j * rng.uniform(0.1, 0.9 * math.pi),
                                   rng.uniform(0.1, 2.0))
        f = random_symmetric_sum(rng, g)
        s = sample(f, level, (-3, -3), 8, 8)
        rep = detect(s, (0, 0))
        if rep.classification is not Classification.FREQUENCY:
            ok = False
            continue
        for got, want in zip(rep.frequency.as_pair(), g.as_pair()):
            err = abs(got - want) / (1.0 + abs(want))
            worst = max(worst, err)
    ok = ok and worst <= 1e-8

    const = sample(ExponentialSum.single(3.0, FrequencyVector.zero()), 0, (-3, -3), 8, 8)
    ok = ok and detect(const, (0, 0)).classification is Classification.CONSTANT

    xs = np.arange(-4, 5, dtype=float)
    gauss = GridSamples(0, (-4, -4), 9, 9,
                        np.exp(-np.add.outer(xs**2, xs**2) / 4.0).ravel())
    ok = ok and detect(gauss, (0, 0)).classification is Classification.INCONSISTENT
    report(4, "frequency identification", ok, f"worst componentwise err {worst:.2e}")


def test_criterion_5_axis_symmetry_identities():
    rng = SplitMix64(505)
    ok = True
    ex, ey = IntegerStep(1, 0), IntegerStep(0, 1)
    for _ in range(20):
        g = random_frequency_vector(rng)
        f = ExponentialSum(
            tuple((rng.uniform(-4, 4), m) for m in symmetric_set(g))
        )
        s = sample(f, rng.below(3), (-2, -2), 6, 6)
        gm = g.mirror()
        for ga, gb, step in ((g, gm, ex), (g, -gm, ey), (-g, -gm, ex), (-g, gm, ey)):
            a = delta_apply_grid(ga, step, s)
            b = delta_apply_grid(gb, step, s)
            ok &= bool(np.array_equal(a.values, b.values))
    report(5, "axis symmetry identities, bitwise", ok)


def test_criterion_6_commutativity():
    rng = SplitMix64(606)
    ok = True
    for _ in range(20):
        ga = random_frequency_vector(rng)
        gb = random_frequency_vector(rng)
        sa = IntegerStep(rng.below(5) - 2 or 1, rng.below(5) - 2)
        sb = IntegerStep(rng.below(5) - 2, rng.below(5) - 2 or 1)
        f = ExponentialSum(
            tuple(
                (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                 random_frequency_vector(rng))
                for _ in range(4)
            )
        )
        ab = delta_apply_sum(ga, sa, delta_apply_sum(gb, sb, f))
        ba = delta_apply_sum(gb, sb, delta_apply_sum(ga, sa, f))
        ca = {g.as_pair(): c for c, g in ab.terms}
        cb = {g.as_pair(): c for c, g in ba.terms}
        scale = max(ab.max_coefficient(), ba.max_coefficient(), 1e-300)
        ok &= all(
            abs(ca.get(k, 0j) - cb.get(k, 0j)) <= 1e-13 * scale
            for k in set(ca) | set(cb)
        )
    report(6, "difference-factor commutativity", ok)


def test_criterion_7_finite_difference_consistency():
    rng = SplitMix64(707)
    checked = 0
    ok = True
    while checked < 10:
        g = random_frequency_vector(rng)
        f = ExponentialSum(
            ((rng.uniform(0.5, 2), g),
             (rng.uniform(0.5, 2), FrequencyVector.of(0.3, 0.1)))
        )
        v = Direction(rng.uniform(0.2, 1), rng.uniform(0.2, 1))
        z = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        sym = diff_apply(g, v, f).evaluate(z)
        gv = g.dot(v.x, v.y)
        errs = [
            abs(finite_difference_directional(f, z, v, h) - gv * f.evaluate(z) - sym)
            for h in (1e-2, 5e-3, 2.5e-3)
        ]
        if min(errs) < 1e-12:
            continue
        checked += 1
        ok &= 1.8 <= errs[0] / errs[1] <= 2.2
        ok &= 1.8 <= errs[1] / errs[2] <= 2.2
    report(7, "finite-difference ratio halving", ok)


def test_criterion_8_subdivision_reproduction():
    rng = SplitMix64(808)
    worst_data = 0.0
    worst_rate = 0.0
    for _ in range(10):
        g = _draw_scalar_rate(rng)
        a = rng.sign() * rng.uniform(0.5, 3.0)
        b = rng.sign() * rng.uniform(0.5, 3.0)
        f = lambda z: 1.0 + a * cmath.exp(g * z) + b * cmath.exp(-g * z)
        vals = [f(float(i)) for i in range(12)]
        out, detected = auto_refine(vals, 0, 4)
        worst_rate = max(worst_rate, abs(detected.value - g))
        start, h, n = 0.0, 1.0, 12
        for _ in range(4):
            start += h
            h /= 2.0
            n = 2 * (n - 3) + 1
        exact = np.array([f(start + h * i) for i in range(n)])
        rel = np.max(np.abs(out - exact)) / np.max(np.abs(exact))
        worst_data = max(worst_data, rel)
    rule = synthesize_rule(1.0)
    classical = rule.outer == -1.0 / 16.0 and rule.inner == 9.0 / 16.0
    ok = worst_data <= 1e-10 and worst_rate <= 1e-9 and classical
    report(8, "subdivision reproduction", ok,
           f"data {worst_data:.2e}, rate {worst_rate:.2e}, classical weights {classical}")


def test_criterion_9_seeded_determinism(tmp_path, capsys):
    def pipeline() -> str:
        chunks = []
        code = cli_main(["generate", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        chunks.append(out)
        doc = json.loads(out)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(doc["grid"]), encoding="utf-8")
        code = cli_main(["detect", str(grid_path)])
        rep = capsys.readouterr().out
        chunks.append(rep)

        rng = SplitMix64(0)
        rate = rng.uniform(0.1, 1.5)
        series = [1 + math.exp(rate * z) + math.exp(-rate * z) for z in range(10)]
        series_path = tmp_path / "series.json"
        series_path.write_text(dump_series(series, 0, 0), encoding="utf-8")
        code = cli_main(["refine", str(series_path), "--rounds", "3", "--auto"])
        refined = capsys.readouterr().out
        assert code == 0
        chunks.append(refined)
        return "".join(chunks)

    first = pipeline()
    second = pipeline()
    ok = first == second and len(first) > 0
    report(9, "seeded golden determinism", ok, f"{len(first)} bytes compared")
