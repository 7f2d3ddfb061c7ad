import cmath
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from expann.errors import InputError, NumericalError
from expann.expspace import (
    ExponentialSum,
    Frequency,
    FrequencySet,
    FrequencyVector,
    GridSamples,
    sample,
    symmetric_set,
)

real_rates = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
imag_rates = st.floats(-3.1, 3.1, allow_nan=False, allow_infinity=False).filter(
    lambda y: -math.pi < y < math.pi
)


def freq_strategy():
    return st.one_of(
        real_rates.map(lambda x: Frequency(complex(x, 0.0))),
        imag_rates.map(lambda y: Frequency(complex(0.0, y))),
    )


def fvec_strategy():
    return st.builds(FrequencyVector, freq_strategy(), freq_strategy())


class TestFrequency:
    def test_real_accepted(self):
        assert Frequency(1.5).value == 1.5

    def test_imaginary_accepted(self):
        assert Frequency(0.5j).value == 0.5j

    @pytest.mark.parametrize(
        "bad",
        [1 + 1j, complex(0, math.pi), complex(0, -math.pi), 2j * math.pi,
         math.nan, math.inf, -math.inf, complex(0, math.nan)],
    )
    def test_rejects_outside_domain(self, bad):
        with pytest.raises(ValueError):
            Frequency(bad)

    def test_restricted_domain(self):
        assert Frequency(0.0).in_restricted_domain()
        assert Frequency(2.0).in_restricted_domain()
        assert not Frequency(-0.1).in_restricted_domain()
        assert Frequency(0.5j).in_restricted_domain()
        assert not Frequency(-0.5j).in_restricted_domain()

    def test_negative_zero_normalized(self):
        assert Frequency(complex(-0.0, 0.3)) == Frequency(complex(0.0, 0.3))


class TestFrequencyVector:
    def test_mirror(self):
        g = FrequencyVector(1.0, 0.5j)
        assert g.mirror().as_pair() == (1.0, -0.5j)

    @given(fvec_strategy())
    def test_mirror_involution(self, g):
        assert g.mirror().mirror() == g

    def test_dot(self):
        g = FrequencyVector(2.0, 0.5j)
        assert g.dot(1.0, 2.0) == 2.0 + 1.0j


class TestFrequencySet:
    def test_rejects_duplicates(self):
        g = FrequencyVector(1.0, 0.0)
        with pytest.raises(ValueError):
            FrequencySet((g, g))

    def test_membership(self):
        g = FrequencyVector(1.0, 0.5)
        s = FrequencySet((g, -g))
        assert FrequencyVector(1.0, 0.5) in s
        assert FrequencyVector(1.0, -0.5) not in s


class TestExponentialSum:
    def test_merges_duplicates(self):
        g = FrequencyVector(1.0, 0.0)
        f = ExponentialSum(((2.0, g), (3.0, g)))
        assert len(f.terms) == 1
        assert f.terms[0][0] == 5.0

    def test_drops_zero_terms(self):
        g = FrequencyVector(1.0, 0.0)
        f = ExponentialSum(((2.0, g), (-2.0, g)))
        assert f.is_zero()

    @given(
        st.lists(
            st.tuples(
                st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
                fvec_strategy(),
            ),
            max_size=6,
        )
    )
    def test_canonicalization_idempotent(self, terms):
        f = ExponentialSum(tuple(terms))
        assert ExponentialSum(f.terms) == f

    def test_order_independent(self):
        g1 = FrequencyVector(1.0, 0.0)
        g2 = FrequencyVector(0.0, 0.5j)
        assert ExponentialSum(((1, g1), (2, g2))) == ExponentialSum(((2, g2), (1, g1)))


class TestEvaluate:
    def test_constant(self):
        f = ExponentialSum(((1.0, FrequencyVector(0.0, 0.0)),))
        assert f.evaluate((3.7, -2.0)) == 1.0

    def test_real_exponential(self):
        f = ExponentialSum(((2.0, FrequencyVector(1.0, 0.0)),))
        assert f.evaluate((1.0, 5.0)) == pytest.approx(5.43656365691809, rel=1e-15)

    def test_imaginary_exponential(self):
        f = ExponentialSum(((1.0, FrequencyVector(0.0, 1j * math.pi / 2)),))
        v = f.evaluate((0.0, 1.0))
        assert abs(v - 1j) < 1e-15

    def test_overflow_raises_typed_error(self):
        # the exponential itself overflows, once bare OverflowError from cmath.exp
        f = ExponentialSum(((1.0, FrequencyVector(800.0, 0.0)),))
        with pytest.raises(NumericalError, match="overflows the floating-point range"):
            f.evaluate((1.0, 0.0))
        # the exponential fits but the product with the coefficient does not
        f = ExponentialSum(((1e308, FrequencyVector(1.0, 0.0)),))
        with pytest.raises(NumericalError, match="overflows the floating-point range"):
            f.evaluate((1.0, 0.0))

    @given(
        fvec_strategy(),
        fvec_strategy(),
        st.floats(-2, 2),
        st.floats(-2, 2),
        st.floats(-1, 1),
        st.floats(-1, 1),
    )
    def test_linearity(self, ga, gb, a, b, z1, z2):
        f = ExponentialSum(((1.3, ga),))
        g = ExponentialSum(((-0.7, gb),))
        combo = a * f + b * g
        lhs = combo.evaluate((z1, z2))
        rhs = a * f.evaluate((z1, z2)) + b * g.evaluate((z1, z2))
        assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(lhs) + abs(rhs))

    def test_conjugate_paired_terms_are_real(self):
        # c e^(g.z) + conj(c) e^(conj(g).z) with imaginary g is real-valued
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            g = FrequencyVector(1j * rng.uniform(0.1, 3), 1j * rng.uniform(0.1, 3))
            f = ExponentialSum(((c, g), (c.conjugate(), g.conjugate())))
            z = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            v = f.evaluate(z)
            assert abs(v.imag) <= 1e-13 * max(abs(v), 1e-6)


class TestSample:
    def test_constant(self):
        f = ExponentialSum(((5.0, FrequencyVector(0.0, 0.0)),))
        s = sample(f, 3, (-2, 4), 4, 3)
        assert np.allclose(s.values, 5.0)

    def test_axis_window(self):
        f = ExponentialSum(((1.0, FrequencyVector(0.6, 0.4)),))
        s = sample(f, 0, (0, 0), 1, 3)
        got = s.values.ravel()
        expected = [1.0, 1.4918246976412703, 2.225540928492468]
        assert np.allclose(got, expected, rtol=1e-15)

    def test_cosh_pair(self):
        f = ExponentialSum(
            (
                (1.0, FrequencyVector(1.0, 0.0)),
                (1.0, FrequencyVector(-1.0, 0.0)),
            )
        )
        s = sample(f, 1, (0, 0), 3, 1)
        assert s.value_at((1, 0)) == pytest.approx(2.2552519304127614, rel=1e-15)

    def test_matches_evaluate(self):
        f = ExponentialSum(
            (
                (1.5, FrequencyVector(0.3, 1j * 0.8)),
                (-0.5, FrequencyVector(0.0, 0.2)),
            )
        )
        s = sample(f, 2, (-1, -1), 4, 4)
        for y in range(s.origin[1], s.origin[1] + s.height):
            for x in range(s.origin[0], s.origin[0] + s.width):
                assert s.value_at((x, y)) == f.evaluate((x * s.spacing, y * s.spacing))

    def test_index_beyond_float_range_raises(self):
        f = ExponentialSum(((1.0, FrequencyVector(0.0, 0.0)),))
        with pytest.raises(NumericalError, match="overflows the floating-point range"):
            sample(f, 0, (10**400, 0), 1, 1)

    def test_matches_scalar_reference_bitwise(self):
        rng = np.random.default_rng(5)
        outcomes = Counter()
        for _ in range(400):
            f = _random_sum(rng)
            level = int(rng.integers(0, 9))
            origin = (int(rng.integers(-200, 201)), int(rng.integers(-200, 201)))
            size = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            outcomes[_compare(f, level, origin, size)] += 1
        assert outcomes["equal"] > 300 and outcomes["raised"] > 0

    def test_matches_scalar_reference_where_cmath_rescales(self):
        # cmath.exp takes exp(re - 1) * e above re = log(DBL_MAX / 4) ~ 708.4
        rng = np.random.default_rng(6)
        outcomes = Counter()
        for _ in range(400):
            rate = rng.uniform(0.5, 3.0)
            level = int(rng.integers(0, 9))
            target = rng.uniform(705.0, 712.0) / (rate * math.ldexp(1.0, -level))
            c = _random_coefficient(rng) * 0.5  # drawn before the component
            terms = [(c, FrequencyVector(rate, _random_component(rng)))]
            terms += _random_sum(rng).terms[:2]
            f = ExponentialSum(tuple(terms))
            origin = (int(target), int(rng.integers(-4, 5)))
            size = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            outcomes[_compare(f, level, origin, size)] += 1
        assert outcomes["equal"] > 100 and outcomes["raised"] > 100


def _random_component(rng) -> complex:
    kind = rng.integers(3)
    if kind == 0:
        return 0.0
    # real rates up to 8 overflow on some windows at levels 0..2
    return rng.uniform(-8.0, 8.0) if kind == 1 else 1j * rng.uniform(-3.1, 3.1)


def _random_coefficient(rng) -> complex:
    re, im = rng.uniform(-2.0, 2.0, 2)
    return [complex(re, im), complex(re, 0.0), complex(0.0, im)][rng.integers(3)]


def _random_sum(rng) -> ExponentialSum:
    return ExponentialSum(tuple(
        (_random_coefficient(rng), FrequencyVector(_random_component(rng), _random_component(rng)))
        for _ in range(rng.integers(1, 7))
    ))


def _scalar_reference(f, level, origin, width, height) -> np.ndarray:
    """The per-point loop the array kernel replaced: one cmath.exp per term
    and point, summed in term order from 0j."""
    h = math.ldexp(1.0, -level)
    vals = np.empty((height, width), dtype=np.complex128)
    for j in range(height):
        for i in range(width):
            z1, z2 = (origin[0] + i) * h, (origin[1] + j) * h
            vals[j, i] = sum((c * cmath.exp(g.dot(z1, z2)) for c, g in f.terms), 0j)
    if not np.isfinite(vals).all():
        raise OverflowError("a sample overflows")
    return vals


def _compare(f, level, origin, size) -> str:
    """Assert that sample and the reference agree bit for bit, or both raise."""
    try:
        want = _scalar_reference(f, level, origin, *size)
    except OverflowError:
        with pytest.raises(NumericalError, match="overflows the floating-point range"):
            sample(f, level, origin, *size)
        return "raised"
    got = sample(f, level, origin, *size).values
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (f, level, origin)
    return "equal"


class TestGridSamples:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            GridSamples(0, (0, 0), 2, 2, [1.0, 2.0, 3.0])

    def test_lookup_bounds(self):
        s = GridSamples(0, (1, 1), 2, 2, [1, 2, 3, 4])
        assert s.value_at((1, 1)) == 1
        assert s.value_at((2, 1)) == 2
        assert s.value_at((1, 2)) == 3
        with pytest.raises(InputError, match="outside window"):
            s.value_at((3, 1))
        with pytest.raises(InputError, match="outside window"):
            s.value_at((0, 1))

    def test_row_major_layout(self):
        s = GridSamples(0, (0, 0), 3, 2, [0, 1, 2, 10, 11, 12])
        assert s.value_at((2, 0)) == 2
        assert s.value_at((0, 1)) == 10

    def test_values_immutable(self):
        s = GridSamples(0, (0, 0), 2, 1, [1, 2])
        with pytest.raises(ValueError):
            s.values[0, 0] = 9

    @pytest.mark.parametrize("origin", [(-3.7, -3.2), (0, 0.5)])
    def test_float_origin_rejected(self, origin):
        # an index is coerced as IntegerStep coerces its components, so a
        # float raises instead of truncating to (-3, -3)
        with pytest.raises(TypeError):
            GridSamples(0, origin, 2, 1, [1, 2])
        with pytest.raises(TypeError):
            sample(ExponentialSum(((1.0, FrequencyVector.zero()),)), 2, origin, 9, 9)

    def test_float_level_rejected(self):
        # not stored as 2.0 only to fail later in .spacing
        with pytest.raises(TypeError):
            GridSamples(2.0, (0, 0), 2, 1, [1, 2])

    def test_numpy_integer_origin_accepted(self):
        s = GridSamples(0, (np.int64(-3), np.int32(2)), 2, 1, [1, 2])
        assert s.origin == (-3, 2) and all(type(k) is int for k in s.origin)


class TestSymmetricSet:
    def test_generic_has_five(self):
        assert len(symmetric_set(FrequencyVector(1.0, 0.5))) == 5

    def test_second_component_zero_collapses(self):
        s = symmetric_set(FrequencyVector(0.7, 0.0))
        assert len(s) == 3
        pairs = {m.as_pair() for m in s}
        assert pairs == {(0j, 0j), ((0.7 + 0j), 0j), ((-0.7 + 0j), 0j)}

    def test_first_component_zero_collapses(self):
        s = symmetric_set(FrequencyVector(0.0, 1j * math.pi / 3))
        assert len(s) == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            symmetric_set(FrequencyVector(0.0, 0.0))

    def test_rejects_outside_restricted(self):
        with pytest.raises(ValueError):
            symmetric_set(FrequencyVector(-1.0, 0.5))
