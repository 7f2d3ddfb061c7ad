import cmath
import math

import numpy as np
import pytest

from expann.errors import (
    InvalidParameterError,
    RangeOverflowError,
    SingularRuleError,
    TooShortError,
)
from expann import subdivision
from expann.subdivision import (
    InsertionRule,
    auto_refine,
    refine,
    refine_parameter,
    refine_rounds,
    synthesize_rule,
)


def hyperbolic(a, b, g):
    return lambda z: 1.0 + a * math.exp(g * z) + b * math.exp(-g * z)


_VALS = np.array([0.3, 1.7, -2.2, 0.9, 4.4, -0.1, 2.0])


class TestLevelParameter:
    """``refine_rounds`` starts from the level parameter c_k = cosh(2^-k g)
    and inserts with the rule of c_{k+1}."""

    def test_from_real_frequency(self):
        assert cmath.cosh(0.8).real == pytest.approx(1.3374349463048447, rel=1e-15)
        for level, c in ((0, cmath.cosh(0.8)), (2, cmath.cosh(0.2))):
            expected = refine(_VALS, refine_parameter(c))
            assert np.array_equal(refine_rounds(_VALS, 0.8, level, 1), expected)

    def test_from_imaginary_frequency(self):
        assert cmath.cosh(2.0j).real == pytest.approx(-0.4161468365471424, rel=1e-14)
        expected = refine(_VALS, refine_parameter(cmath.cosh(2.0j)))
        assert np.array_equal(refine_rounds(_VALS, 2.0j, 0, 1), expected)

    def test_each_parameter_computed_once(self, monkeypatch):
        calls = []
        advance = subdivision.refine_parameter
        monkeypatch.setattr(subdivision, "refine_parameter", lambda c: calls.append(c) or advance(c))
        auto_refine([1.0 + math.cosh(0.5 * z) for z in range(12)], 0, 4)
        assert len(calls) == 4

    def test_short_data_fails_before_the_parameter(self):
        # cosh(3.14159265i) rounds to -1, where refine_parameter raises
        with pytest.raises(TooShortError):
            refine_rounds([1.0, 2.0, 3.0], 3.14159265j, 0, 1)

    def test_overflow(self):
        with pytest.raises(RangeOverflowError, match="^cosh of rate"):
            refine_rounds(_VALS, 800.0, 0, 1)


class TestRefineParameter:
    def test_fixed_point_at_one(self):
        assert refine_parameter(1.0) == 1.0

    def test_hyperbolic_halving(self):
        c = refine_parameter(1.3374349463048447)
        assert c.real == pytest.approx(1.081072371838455, rel=1e-14)

    def test_trigonometric_halving(self):
        c = refine_parameter(-0.4161468365471424)
        assert c.real == pytest.approx(0.5403023058681398, rel=1e-14)

    def test_rejects_at_minus_one(self):
        with pytest.raises(InvalidParameterError):
            refine_parameter(-1.0)

    def test_doubling_inverse(self):
        for c in [1.0, 1.5, 3.2, 0.3, -0.8, complex(0.9, 0.0)]:
            nxt = refine_parameter(c)
            assert abs(2 * nxt * nxt - 1 - c) <= 1e-14 * (1 + abs(c))


class TestSynthesizeRule:
    def test_classical_four_point_weights(self):
        rule = synthesize_rule(1.0)
        assert rule.outer == -1.0 / 16.0
        assert rule.inner == 9.0 / 16.0

    def test_polynomial_limit(self):
        rule = synthesize_rule(1.0 + 1e-10)
        assert abs(rule.outer - (-1.0 / 16.0)) < 1e-6
        assert abs(rule.inner - 9.0 / 16.0) < 1e-6

    def test_singular_points(self):
        with pytest.raises(SingularRuleError):
            synthesize_rule(0.0)
        with pytest.raises(SingularRuleError):
            synthesize_rule(-1.0)

    @pytest.mark.parametrize("g", [0.7, 0.35, 1.4])
    def test_reproduces_hyperbolic_midpoint(self, g):
        # four samples at unit spacing, midpoint between the middle two
        c_half = math.cosh(g / 2.0)
        rule = synthesize_rule(c_half)
        f = lambda z: math.exp(g * z)
        got = rule.insert(f(-1.0), f(0.0), f(1.0), f(2.0))
        assert got.real == pytest.approx(f(0.5), rel=1e-13)
        got_neg = rule.insert(f(1.0), f(0.0), f(-1.0), f(-2.0))
        assert got_neg.real == pytest.approx(math.exp(-g * 0.5), rel=1e-13)

    def test_reproduces_trigonometric_midpoint(self):
        y = 0.8
        rule = synthesize_rule(math.cos(y / 2.0))
        f = lambda z: 1.0 + 2.0 * math.cos(y * z)
        got = rule.insert(f(-1.0), f(0.0), f(1.0), f(2.0))
        assert got.real == pytest.approx(f(0.5), rel=1e-13)

    def test_exactness_conditions_hold_to_a_few_ulp(self):
        # 2w + 2u = 1 and 2w cosh(3x) + 2u cosh(x) = 1, cosh(3x) = 4c^3 - 3c,
        # over 12,000 level parameters c = cosh(x), real and imaginary rates;
        # each error is in ulps of the largest term it sums
        rng = np.random.default_rng(11)
        eps = 2.0**-52
        for k in range(12000):
            rate = rng.uniform(0.0, 6.0) if k % 2 else 1j * rng.uniform(0.0, math.pi)
            c = cmath.cosh(math.ldexp(1.0, -int(rng.integers(1, 14))) * rate)
            rule = synthesize_rule(c)
            w, u = 2 * rule.outer, 2 * rule.inner
            assert abs(w + u - 1) <= 4 * eps * max(abs(w), abs(u))
            wc3, uc = w * c * (4 * c * c - 3), u * c
            assert abs(wc3 + uc - 1) <= 4 * eps * max(abs(wc3), abs(uc))

    def test_weight_sum_validated(self):
        with pytest.raises(ValueError):
            InsertionRule(outer=0.3, inner=0.3)

    def test_weights_near_rate_i_pi_are_accepted(self):
        # towards rate i*pi the half-step cosh nears 0 and |w| grows like its
        # inverse; rounding u = 1/2 - w costs about |w| * eps in 2w + 2u, so
        # the rule's check must scale with |w| (|w| is about 8.2e3 at 3.14156...)
        eps = 2.0**-52
        rates = [3.141562135589793, *(math.pi - np.geomspace(1e-7, 1.0, 4000))]
        for rate in rates:
            rule = synthesize_rule(refine_parameter(cmath.cosh(1j * rate)))
            w, u = 2 * rule.outer, 2 * rule.inner
            assert abs(w + u - 1) <= 4 * eps * max(1.0, abs(w))


class TestRefine:
    def test_constant_preserved(self):
        out = refine(np.full(6, 2.5), math.cosh(0.2))
        assert np.allclose(out, 2.5, rtol=1e-14)
        assert out.size == 2 * (6 - 3) + 1

    def test_too_short(self):
        with pytest.raises(TooShortError):
            refine([1.0, 2.0, 3.0], 1.0)

    def test_interpolation_bitwise(self):
        vals = np.array([0.3, 1.7, -2.2, 0.9, 4.4, -0.1])
        out = refine(vals, 1.2)
        assert np.array_equal(out[0::2], vals[1:-1].astype(complex))

    def test_hyperbolic_reproduction(self):
        f = hyperbolic(1.0, 1.0, 0.9)
        vals = [f(z) for z in range(8)]
        out = refine(vals, cmath.cosh(0.45))
        # output starts at position 1 with spacing 1/2
        expected = [f(1.0 + 0.5 * i) for i in range(out.size)]
        assert np.allclose(out, expected, rtol=1e-12)

    def test_trigonometric_reproduction(self):
        g = 1.2
        f = lambda z: 2.0 + math.cos(g * z)
        h = 0.5  # level 1 spacing
        vals = [f(i * h) for i in range(8)]
        out = refine(vals, cmath.cosh(0.5j * g * h))
        expected = [f((1.0 + 0.5 * i) * h) for i in range(out.size)]
        assert np.allclose(out, expected, rtol=1e-12)

    def test_four_term_relation_after_refinement(self):
        g = 0.75
        f = hyperbolic(0.8, 1.3, g)
        vals = np.array([f(z) for z in range(10)])
        c = refine_parameter(cmath.cosh(g)).real
        out = refine(vals, c)
        res = out[:-3] - (2 * c + 1) * out[1:-2] + (2 * c + 1) * out[2:-1] - out[3:]
        assert np.max(np.abs(res)) <= 1e-11 * np.max(np.abs(out))


class TestAutoRefine:
    def test_end_to_end_hyperbolic(self):
        g = 0.5
        f = hyperbolic(1.0, 1.0, g)
        vals = [f(z) for z in range(12)]
        out, detected = auto_refine(vals, 0, 4)
        assert abs(detected.value - g) <= 1e-9
        # after 4 rounds: spacing 1/16, start position walks in one coarse
        # step per round
        start = 0.0
        h = 1.0
        n = len(vals)
        for _ in range(4):
            start += h
            h /= 2.0
            n = 2 * (n - 3) + 1
        expected = [f(start + h * i) for i in range(n)]
        assert np.allclose(out, expected, rtol=1e-10)

    def test_constant_data(self):
        out, detected = auto_refine([4.0] * 8, 0, 3)
        assert detected.value == 0.0
        assert np.allclose(out, 4.0, rtol=1e-14)

    def test_single_exponential_in_span(self):
        g = 0.8
        f = lambda z: math.exp(g * z)
        vals = [f(z) for z in range(10)]
        out, detected = auto_refine(vals, 0, 2)
        assert abs(detected.value - g) <= 1e-9
        start, h, n = 0.0, 1.0, len(vals)
        for _ in range(2):
            start += h
            h /= 2.0
            n = 2 * (n - 3) + 1
        expected = [f(start + h * i) for i in range(n)]
        assert np.allclose(out, expected, rtol=1e-10)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            auto_refine([1.0, 2.0, 3.0], 0, 1)
