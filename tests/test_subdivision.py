import cmath
import math
import re

import numpy as np
import pytest

from expann.detection import detect_univariate
from expann.errors import InputError, NumericalError
from expann import expspace, subdivision
from expann.subdivision import (
    auto_refine,
    refine,
    refine_parameter,
    refine_rounds,
    synthesize_rule,
)


def hyperbolic(a, b, g):
    return lambda z: 1.0 + a * math.exp(g * z) + b * math.exp(-g * z)


_VALS = np.array([0.3, 1.7, -2.2, 0.9, 4.4, -0.1, 2.0])
# drivers that are not real numbers: numpy's complex types that do not derive
# from complex, whose float() drops the imaginary part with only a warning,
# and numeric text, which float() parses; a refusal names the driver as an
# f-string formats it, which for numpy's complex64 is not str()'s text
_NOT_REAL = [np.complex64(0.9), np.clongdouble(0.9), "0.9", b"0.9"]


def _driver_id(c):
    """A ``_NOT_REAL`` row's type name as its test id; pytest's own id otherwise."""
    return type(c).__name__ if any(c is x for x in _NOT_REAL) else None


class TestLevelParameter:
    """``refine_rounds`` starts from the level parameter c_k = cosh(2^-k g)
    and inserts with the rule of c_{k+1}."""

    def test_from_real_frequency(self):
        assert cmath.cosh(0.8).real == pytest.approx(1.3374349463048447, rel=1e-15)
        for level, c in ((0, cmath.cosh(0.8).real), (2, cmath.cosh(0.2).real)):
            expected = refine(_VALS, refine_parameter(c))
            assert np.array_equal(refine_rounds(_VALS, 0.8, level, 1), expected)

    def test_from_imaginary_frequency(self):
        assert cmath.cosh(2.0j).real == pytest.approx(-0.4161468365471424, rel=1e-14)
        expected = refine(_VALS, refine_parameter(cmath.cosh(2.0j).real))
        assert np.array_equal(refine_rounds(_VALS, 2.0j, 0, 1), expected)

    def test_each_parameter_computed_once(self, monkeypatch):
        calls = []
        advance = subdivision.refine_parameter
        monkeypatch.setattr(subdivision, "refine_parameter", lambda c: calls.append(c) or advance(c))
        auto_refine([1.0 + math.cosh(0.5 * z) for z in range(12)], 0, 4)
        assert len(calls) == 4

    def test_refine_called_once_per_round(self, monkeypatch):
        # each round goes through the module's public refine
        calls = []
        step = subdivision.refine
        monkeypatch.setattr(subdivision, "refine", lambda v, c: calls.append(c) or step(v, c))
        refine_rounds(np.linspace(0.0, 1.0, 12), 0.5, 0, 4)
        assert len(calls) == 4

    def test_short_data_fails_before_the_parameter(self):
        # cosh(3.14159265i) rounds to -1, where refine_parameter raises
        with pytest.raises(InputError, match="need at least 4 samples"):
            refine_rounds([1.0, 2.0, 3.0], 3.14159265j, 0, 1)

    def test_more_than_one_round_needs_five_samples(self):
        # 4 samples refine to 3, which a second round cannot read: the
        # refusal names the caller's length, not the first round's output
        want = "^need at least 5 samples for 2 rounds, got 4$"
        with pytest.raises(InputError, match=want):
            refine_rounds([1, 2, 3, 4], 0.3, 0, 2)
        with pytest.raises(InputError, match=want):
            auto_refine([1.0, 2.0, 3.0, 4.0], 0, 2)
        assert refine_rounds([1, 2, 3, 4], 0.3, 0, 1).size == 3
        assert refine_rounds([1, 2, 3, 4, 5], 0.3, 0, 3).size == 5

    def test_real_driver_stays_real(self, monkeypatch):
        # every Frequency rate gives a real c_k, which each round receives as a float
        seen = []
        step = subdivision.refine
        monkeypatch.setattr(subdivision, "refine", lambda v, c: seen.append(type(c)) or step(v, c))
        for g in (0.8, 2.0j, expspace.Frequency(-1.5j), 0.0):
            refine_rounds(_VALS, g, 1, 3)
        assert seen == [float] * 12

    def test_a_refused_driver_keeps_its_complex_form(self):
        # cosh(+-3.14159265i) rounds to -1, named in complex form whatever
        # the sign of the imaginary part cmath.cosh leaves
        for g in (-3.14159265j, 3.14159265j):
            with pytest.raises(NumericalError, match=r"^cosh value \(-1\+0j\) is not above -1$"):
                refine_rounds(_VALS, expspace.Frequency(g), 0, 1)

    @pytest.mark.parametrize("g", [0.3 + 0.2j, 4j, complex(math.nan, 0.0)])
    def test_the_rate_is_a_frequency(self, g):
        # a plain rate goes through Frequency, as FrequencyVector's does
        with pytest.raises(ValueError) as want:
            expspace.FrequencyVector(g, 0.0)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            refine_rounds(_VALS, g, 0, 1)

    def test_overflow(self):
        with pytest.raises(NumericalError, match="^cosh of rate"):
            refine_rounds(_VALS, 800.0, 0, 1)

    def test_zero_rounds_checks_the_series(self):
        # as one round does: a short or two-dimensional series is an error
        with pytest.raises(InputError, match="need at least 4 samples"):
            refine_rounds([1, 2, 3], 0.8, 0, 0)
        with pytest.raises(InputError, match="must be one-dimensional"):
            refine_rounds(np.ones((3, 4)), 0.8, 0, 0)
        out = refine_rounds([1, 2, 3, 4], 0.8, 0, 0)
        assert isinstance(out, np.ndarray) and (out.dtype, out.shape) == (np.float64, (4,))
        assert np.array_equal(out, [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("level", [-1, 1075])
    def test_rejects_a_level_outside_the_range(self, level):
        # the levels detect_univariate rejects
        with pytest.raises(ValueError, match=rf"^level must lie in 0\.\.1074, got {level}$"):
            refine_rounds(_VALS, 0.8, level, 1)

    def test_rejects_a_negative_round_count(self):
        with pytest.raises(ValueError, match="^rounds must be non-negative, got -1$"):
            refine_rounds(list(_VALS), 0.8, 0, -1)
        with pytest.raises(TypeError):  # an integer argument, as the level is
            refine_rounds(_VALS, 0.8, 0, 2.0)


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
        with pytest.raises(NumericalError, match="is not above -1"):
            refine_parameter(-1.0)

    def test_doubling_inverse(self):
        for c in [1.0, 1.5, 3.2, 0.3, -0.8, np.float64(0.9)]:
            nxt = refine_parameter(c)
            assert abs(2 * nxt * nxt - 1 - c) <= 1e-14 * (1 + abs(c))

    @pytest.mark.parametrize("c", [math.nan])
    def test_rejects_nan(self, c):
        with pytest.raises(NumericalError, match="is not above -1"):
            refine_parameter(c)

    @pytest.mark.parametrize(
        "c", [complex(math.nan, 0.0), complex(math.nan, 1.0), complex(math.inf), np.complex128(1.0),
              *_NOT_REAL],
        ids=_driver_id,
    )
    def test_rejects_a_complex_driver(self, c):
        # every admissible rate gives a real driver; float() would pass
        # numpy's complex with only a warning, and complex inf gave (inf+nanj)
        with pytest.raises(TypeError, match=f"^a cosh value must be real, got {re.escape(format(c))}$"):
            refine_parameter(c)


def _outcome(call, c):
    """What call(c) gives: a tuple of the hex forms of its floats (the real
    parts of a complex), or the type and message of the error it raises."""
    try:
        out = call(c)
    except NumericalError as exc:
        return type(exc), str(exc)
    return tuple(complex(x).real.hex() for x in (out if isinstance(out, tuple) else (out,)))


# the complex driver that refinement computed on before every rate was a
# Frequency: the reference the float driver is held to, bit for bit
def _complex_root(c):
    z = complex(c)
    if not z.real > -1.0:
        raise NumericalError(f"cosh value {z} is not above -1")
    return cmath.sqrt((z + 1.0) / 2.0)


def _complex_rule(c):
    z = complex(c)
    if not 1e-12 < abs(z) < math.inf or abs(z + 1.0) <= 1e-12:
        raise NumericalError(f"insertion weights undefined at cosh value {z}")
    z = z.real if z.imag == 0.0 else z  # 8z(z + 1) overflows to inf, not to inf+nanj
    w = -1.0 / (8.0 * z * (z + 1.0))
    return w, 0.5 - w


class TestFloatDriver:
    """``refine_parameter`` and ``synthesize_rule`` compute with ``math`` on a
    float and return floats, bit for bit the real parts of the complex
    driver's results, and refuse with its messages."""

    @staticmethod
    def _sweep():
        rng = np.random.default_rng(41)
        bits = rng.integers(0, 2**63, 20000, dtype=np.uint64, endpoint=True).view(np.float64)
        parts = [
            bits[(bits > -1.0) & (bits < 1e308)],  # every binade, subnormals included
            rng.uniform(-1.0, 1.0, 10000),
            -1.0 + np.ldexp(rng.uniform(0.5, 1.0, 2000), rng.integers(-53, 0, 2000)),
            10.0 ** rng.uniform(0.0, 308.0, 10000),
        ]
        c = np.concatenate(parts)
        return [-1.0 + 2.0**-53, 1.0, 1e308, *c[c > -1.0].tolist()]

    def test_float_driver_is_the_complex_driver(self):
        sweep = self._sweep()
        assert len(sweep) > 30000 and all(type(c) is float and -1.0 < c <= 1e308 for c in sweep)
        for c in sweep:
            root = refine_parameter(c)
            assert type(root) is float
            assert _outcome(refine_parameter, c) == _outcome(_complex_root, c)
            rule = _outcome(synthesize_rule, c)
            assert rule == _outcome(_complex_rule, c)
            if type(rule[0]) is str:
                assert all(type(w) is float for w in synthesize_rule(c))
            # the weights of the next level, from the float root and the complex one
            assert _outcome(synthesize_rule, root) == _outcome(_complex_rule, _complex_root(c))

    @pytest.mark.parametrize(
        "c, root, weights",
        [
            (math.nan, "cosh value (nan+0j) is not above -1",
             "insertion weights undefined at cosh value (nan+0j)"),
            (-1.0, "cosh value (-1+0j) is not above -1",
             "insertion weights undefined at cosh value (-1+0j)"),
            (0.0, None, "insertion weights undefined at cosh value 0j"),
            (math.inf, None, "insertion weights undefined at cosh value (inf+0j)"),
        ],
        ids=["nan", "minus-one", "zero", "inf"],
    )
    def test_refusals_keep_their_messages(self, c, root, weights):
        if root is None:
            assert type(refine_parameter(c)) is float
            assert _outcome(refine_parameter, c) == _outcome(_complex_root, c)
        else:
            with pytest.raises(NumericalError, match=f"^{re.escape(root)}$"):
                refine_parameter(c)
        with pytest.raises(NumericalError, match=f"^{re.escape(weights)}$"):
            synthesize_rule(c)


class TestSynthesizeRule:
    def test_classical_four_point_weights(self):
        outer, inner = synthesize_rule(1.0)
        assert outer == -1.0 / 16.0
        assert inner == 9.0 / 16.0
        assert type(outer) is float and type(inner) is float

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, c):
        # NaN gave NaN weights and inf the weights (-0.0, 0.5), in silence
        with pytest.raises(NumericalError, match="^insertion weights undefined at cosh value "):
            synthesize_rule(c)

    @pytest.mark.parametrize(
        "c",
        [complex(math.nan, 0.0), complex(0.5, math.inf), complex(1.5e308, 1.5e308), np.complex128(1.0),
         *_NOT_REAL],
        ids=_driver_id,
    )
    def test_rejects_a_complex_driver(self, c):
        with pytest.raises(TypeError, match=f"^a cosh value must be real, got {re.escape(format(c))}$"):
            synthesize_rule(c)

    def test_refinement_refuses_a_non_finite_parameter(self):
        with pytest.raises(NumericalError, match=r"^insertion weights undefined at cosh value \(nan\+0j\)$"):
            refine(np.arange(6.0), math.nan)
        # a non-finite rate is not a Frequency
        with pytest.raises(ValueError, match=r"^frequency must be finite, got \(nan\+0j\)$"):
            refine_rounds(np.arange(6.0), complex(math.nan, 0.0), 0, 1)

    def test_polynomial_limit(self):
        outer, inner = synthesize_rule(1.0 + 1e-10)
        assert abs(outer - (-1.0 / 16.0)) < 1e-6
        assert abs(inner - 9.0 / 16.0) < 1e-6

    def test_singular_points(self):
        with pytest.raises(NumericalError, match="insertion weights undefined"):
            synthesize_rule(0.0)
        with pytest.raises(NumericalError, match="insertion weights undefined"):
            synthesize_rule(-1.0)

    @pytest.mark.parametrize("g", [0.7, 0.35, 1.4])
    def test_reproduces_hyperbolic_midpoint(self, g):
        # four samples at unit spacing, midpoint between the middle two
        c_half = math.cosh(g / 2.0)
        f = lambda z: math.exp(g * z)
        got = refine([f(-1.0), f(0.0), f(1.0), f(2.0)], c_half)[1]
        assert got.real == pytest.approx(f(0.5), rel=1e-13)
        got_neg = refine([f(1.0), f(0.0), f(-1.0), f(-2.0)], c_half)[1]
        assert got_neg.real == pytest.approx(math.exp(-g * 0.5), rel=1e-13)

    def test_reproduces_trigonometric_midpoint(self):
        y = 0.8
        f = lambda z: 1.0 + 2.0 * math.cos(y * z)
        got = refine([f(-1.0), f(0.0), f(1.0), f(2.0)], math.cos(y / 2.0))[1]
        assert got.real == pytest.approx(f(0.5), rel=1e-13)

    def test_exactness_conditions_hold_to_a_few_ulp(self):
        # 2w + 2u = 1 and 2w cosh(3x) + 2u cosh(x) = 1, cosh(3x) = 4c^3 - 3c,
        # over 12,000 level parameters c = cosh(x), real and imaginary rates;
        # each error is in ulps of the largest term it sums
        rng = np.random.default_rng(11)
        eps = 2.0**-52
        for k in range(12000):
            rate = rng.uniform(0.0, 6.0) if k % 2 else 1j * rng.uniform(0.0, math.pi)
            c = cmath.cosh(math.ldexp(1.0, -int(rng.integers(1, 14))) * rate).real
            outer, inner = synthesize_rule(c)
            w, u = 2 * outer, 2 * inner
            assert abs(w + u - 1) <= 4 * eps * max(abs(w), abs(u))
            wc3, uc = w * c * (4 * c * c - 3), u * c
            assert abs(wc3 + uc - 1) <= 4 * eps * max(abs(wc3), abs(uc))

    def test_weights_near_rate_i_pi_are_accepted(self):
        # towards rate i*pi the half-step cosh nears 0 and |w| grows like its
        # inverse; rounding u = 1/2 - w costs about |w| * eps in 2w + 2u, so
        # the bound scales with |w| (|w| is about 8.2e3 at 3.14156...)
        eps = 2.0**-52
        rates = [3.141562135589793, *(math.pi - np.geomspace(1e-7, 1.0, 4000))]
        for rate in rates:
            outer, inner = synthesize_rule(refine_parameter(cmath.cosh(1j * rate).real))
            w, u = 2 * outer, 2 * inner
            assert abs(w + u - 1) <= 4 * eps * max(1.0, abs(w))


def test_refine_rounds_at_a_numpy_integer_level():
    v = np.exp(0.5 * 0.25 * np.arange(8))
    want = refine_rounds(v, 0.5, 2, 1)
    assert np.array_equal(refine_rounds(v, 0.5, np.int64(2), 1), want)


class TestRefine:
    def test_constant_preserved(self):
        out = refine(np.full(6, 2.5), math.cosh(0.2))
        assert np.allclose(out, 2.5, rtol=1e-14)
        assert out.size == 2 * (6 - 3) + 1

    def test_too_short(self):
        with pytest.raises(InputError, match="need at least 4 samples"):
            refine([1.0, 2.0, 3.0], 1.0)

    def test_interpolation_bitwise(self):
        vals = np.array([0.3, 1.7, -2.2, 0.9, 4.4, -0.1])
        out = refine(vals, 1.2)
        assert np.array_equal(out[0::2], vals[1:-1].astype(complex))

    @pytest.mark.parametrize("c", [math.cosh(0.45), math.cos(1.2)])
    @pytest.mark.parametrize("vals", [_VALS, _VALS * (1 - 0.5j)], ids=["real", "complex"])
    def test_midpoints_are_the_rule_insert(self, vals, c):
        # refine's midpoints are the four-point formula on synthesize_rule's weights
        n = vals.size
        outer, inner = synthesize_rule(c)
        f0, f1, f2, f3 = vals[0 : n - 3], vals[1 : n - 2], vals[2 : n - 1], vals[3:n]
        expected = outer * (f0 + f3) + inner * (f1 + f2)
        odd = refine(vals, c)[1::2].copy()
        assert odd.dtype == expected.dtype
        assert np.array_equal(odd.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("vals", [_VALS, _VALS * (1 - 0.5j)], ids=["real", "complex"])
    def test_rejects_a_complex_driver(self, vals):
        # through synthesize_rule, whatever the data
        for c in [cmath.cosh(0.3 + 0.2j), *_NOT_REAL]:
            with pytest.raises(TypeError, match=f"^a cosh value must be real, got {re.escape(format(c))}$"):
                refine(vals, c)

    def test_hyperbolic_reproduction(self):
        f = hyperbolic(1.0, 1.0, 0.9)
        vals = [f(z) for z in range(8)]
        out = refine(vals, math.cosh(0.45))
        # output starts at position 1 with spacing 1/2
        expected = [f(1.0 + 0.5 * i) for i in range(out.size)]
        assert np.allclose(out, expected, rtol=1e-12)

    def test_trigonometric_reproduction(self):
        g = 1.2
        f = lambda z: 2.0 + math.cos(g * z)
        h = 0.5  # level 1 spacing
        vals = [f(i * h) for i in range(8)]
        out = refine(vals, math.cos(0.5 * g * h))
        expected = [f((1.0 + 0.5 * i) * h) for i in range(out.size)]
        assert np.allclose(out, expected, rtol=1e-12)

    def test_four_term_relation_after_refinement(self):
        g = 0.75
        f = hyperbolic(0.8, 1.3, g)
        vals = np.array([f(z) for z in range(10)])
        c = refine_parameter(math.cosh(g))
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
        with pytest.raises(InputError, match="need at least 4 samples"):
            auto_refine([1.0, 2.0, 3.0], 0, 1)


# a real and an imaginary rate, each with real data in its span at level 0
_SPANS = {
    0.8: [1.0 + math.exp(0.8 * z) + 2.0 * math.exp(-0.8 * z) for z in range(12)],
    2.0j: [1.0 + 2.0 * math.cos(2.0 * z) - math.sin(2.0 * z) for z in range(12)],
}
_CALLS = {
    "refine": lambda f, g: refine(f, refine_parameter(cmath.cosh(g).real)),
    "refine_rounds": lambda f, g: refine_rounds(f, g, 0, 3),
    "auto_refine": lambda f, g: auto_refine(f, 0, 3)[0],
}


class TestRealArithmetic:
    """Real data is refined in float64, to the bits of the same call on a
    complex128 copy; complex data stays complex."""

    @pytest.mark.parametrize("g", list(_SPANS), ids=["real-rate", "imaginary-rate"])
    @pytest.mark.parametrize("call", list(_CALLS))
    def test_real_data_stays_real(self, call, g):
        f = np.array(_SPANS[g])
        got, want = _CALLS[call](f, g), _CALLS[call](f.astype(np.complex128), g)
        assert (got.dtype, want.dtype) == (np.float64, np.complex128)
        assert np.array_equal(want.imag, np.zeros(want.size))
        assert np.array_equal(got.view(np.uint64), want.real.view(np.uint64))

    @pytest.mark.parametrize("call", list(_CALLS))
    def test_complex_data_stays_complex(self, call):
        f = np.array(_SPANS[0.8]) * (1.0 + 0.5j)
        assert _CALLS[call](f, 0.8).dtype == np.complex128


@pytest.mark.parametrize("shape", [(1, 6), (6, 1), (3, 4)])
@pytest.mark.parametrize("call", list(_CALLS))
def test_rejects_input_that_is_not_one_dimensional(call, shape):
    # not numpy's broadcast error, and not a flattened series
    f = np.array(_SPANS[0.8])[: shape[0] * shape[1]].reshape(shape)
    msg = f"a series must be one-dimensional, got an array of shape {shape}"
    with pytest.raises(InputError, match=f"^{re.escape(msg)}$"):
        _CALLS[call](f, 0.8)


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("call", [*_CALLS, "detect_univariate"])
def test_one_series_rule_for_every_series_call(call, n):
    # the 1-D annihilator and the insertion rule each read four samples
    f = _SPANS[0.8][:n]
    run = _CALLS.get(call, lambda f, g: detect_univariate(f, 0, 1))
    with pytest.raises(InputError, match=f"^need at least 4 samples, got {n}$"):
        run(f, 0.8)


def test_auto_refine_converts_nothing_itself(monkeypatch):
    # each series conversion is detect_univariate's or refine_rounds'
    calls = []
    convert = expspace._sample_array
    monkeypatch.setattr(expspace, "_sample_array", lambda v: calls.append(1) or convert(v))
    f = _SPANS[0.8]
    g = detect_univariate(f, 2, 1)
    refine_rounds(f, g, 2, 4)
    parts = len(calls)
    auto_refine(f, 2, 4)
    assert len(calls) == 2 * parts
