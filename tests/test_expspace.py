import cmath
import copy
import dataclasses
import inspect
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from expann import expspace
from expann.detection import Classification, CoshEstimate, DetectionReport
from expann.errors import InputError, NumericalError
from expann.expspace import (
    ExponentialSum,
    Frequency,
    FrequencyVector,
    GridSamples,
    sample,
    symmetric_set,
)
from expann.operators import AnnihilatorChain, Direction, IntegerStep

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


class TestExponentialSum:
    def test_merges_duplicates(self):
        g = FrequencyVector(1.0, 0.0)
        f = ExponentialSum(((2.0, g), (3.0, g)))
        assert len(f.terms) == 1
        assert f.terms[0][0] == 5.0

    def test_max_coefficient_past_the_float_range_is_inf(self):
        # abs() of a complex with finite parts overflows past DBL_MAX;
        # inf is that modulus rounded, and a modulus that fits keeps its bits
        g = FrequencyVector(0.5, 0.0)
        big = ExponentialSum(((complex(1.5e308, 1.5e308), g), (1.0, FrequencyVector(0.0, 0.0))))
        assert big.max_coefficient() == math.inf
        near = ExponentialSum(((complex(1.2e308, 1.2e308), g),))
        assert near.max_coefficient() == abs(complex(1.2e308, 1.2e308))

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


# Each value type with its own __init__, built from fixed arguments, with its
# pinned repr: the normalized values, and so the hash and repr, do not depend
# on how a constructor stores its fields.
_BUILT = {
    "real": (lambda: Frequency(1.2), "Frequency(value=(1.2+0j))"),
    "imaginary": (lambda: Frequency(0.5j), "Frequency(value=0.5j)"),
    "negative-zero": (lambda: Frequency(-0.0), "Frequency(value=0j)"),
    "negative-zero-imag": (lambda: Frequency(complex(0.5, -0.0)), "Frequency(value=(0.5+0j))"),
    "vector": (
        lambda: FrequencyVector(0.8, 0.3j),
        "FrequencyVector(g1=Frequency(value=(0.8+0j)), g2=Frequency(value=0.3j))",
    ),
    "vector-mixed": (
        lambda: FrequencyVector(Frequency(-0.4), 2),
        "FrequencyVector(g1=Frequency(value=(-0.4+0j)), g2=Frequency(value=(2+0j)))",
    ),
    "step": (lambda: IntegerStep(1, -2), "IntegerStep(dx=1, dy=-2)"),
    "step-bool": (lambda: IntegerStep(True, 0), "IntegerStep(dx=1, dy=0)"),
    "direction": (lambda: Direction(3.0, 4.0), "Direction(x=0.6, y=0.8)"),
    "direction-int": (lambda: Direction(-1, 0), "Direction(x=-1.0, y=0.0)"),
    "chain": (
        lambda: AnnihilatorChain([(FrequencyVector(0.8, 0.3j), IntegerStep(1, 0))]),
        "AnnihilatorChain(factors=((FrequencyVector(g1=Frequency(value=(0.8+0j)), "
        "g2=Frequency(value=0.3j)), IntegerStep(dx=1, dy=0)),))",
    ),
    "sum": (
        lambda: ExponentialSum(
            ((2, FrequencyVector(0.8, 0)), (1j, FrequencyVector(0, 0)), (-2, FrequencyVector(0.8, 0)))
        ),
        "ExponentialSum(terms=((1j, FrequencyVector(g1=Frequency(value=0j), "
        "g2=Frequency(value=0j))),))",
    ),
    "empty-sum": (lambda: ExponentialSum(), "ExponentialSum(terms=())"),
    "grid": (
        lambda: GridSamples(1, (-1, 2), 2, 1, [3, 4]),
        "GridSamples(level=1, origin=(-1, 2), width=2, height=1, values=array([[3., 4.]]))",
    ),
    "estimate": (
        lambda: CoshEstimate((1, 0), 1.25 + 0j, IntegerStep(0, 1)),
        "CoshEstimate(axis=(1, 0), value=(1.25+0j), step_used=IntegerStep(dx=0, dy=1))",
    ),
    "report": (  # reason keeps its default
        lambda: DetectionReport(
            Classification.FREQUENCY, FrequencyVector(0.8, 0.3j),
            (CoshEstimate((1, 0), 1.25 + 0j, IntegerStep(0, 1)),), 1e-12,
        ),
        "DetectionReport(classification=<Classification.FREQUENCY: 'Frequency'>, "
        "frequency=FrequencyVector(g1=Frequency(value=(0.8+0j)), g2=Frequency(value=0.3j)), "
        "estimates=(CoshEstimate(axis=(1, 0), value=(1.25+0j), step_used=IntegerStep(dx=0, dy=1)),), "
        "residual=1e-12, reason='')",
    ),
    "report-refused": (
        lambda: DetectionReport(
            Classification.INCONSISTENT, None, (), 0.5,
            reason="annihilator residual 5.000e-01 exceeds 1.000e-08",
        ),
        "DetectionReport(classification=<Classification.INCONSISTENT: 'Inconsistent'>, "
        "frequency=None, estimates=(), residual=0.5, "
        "reason='annihilator residual 5.000e-01 exceeds 1.000e-08')",
    ),
}

# expann's own constructor errors, message for message
_REFUSED = {
    "nan": (lambda: Frequency(math.nan), ValueError, "frequency must be finite, got (nan+0j)"),
    "oblique": (
        lambda: Frequency(complex(0.1, 0.2)), ValueError,
        "frequency must be real or purely imaginary, got (0.1+0.2j)",
    ),
    "beyond-pi": (
        lambda: Frequency(4j), ValueError, "imaginary frequency must lie in i(-pi, pi), got 4j"
    ),
    "vector-beyond-pi": (
        lambda: FrequencyVector(1, 4j), ValueError,
        "imaginary frequency must lie in i(-pi, pi), got 4j",
    ),
    "zero-step": (lambda: IntegerStep(0, 0), ValueError, "step must be nonzero"),
    "zero-direction": (lambda: Direction(0, 0.0), ValueError, "direction must be nonzero"),
    "empty-chain": (lambda: AnnihilatorChain(()), ValueError, "chain must have at least one factor"),
    "chain-rate": (
        lambda: AnnihilatorChain([(0.8, IntegerStep(1, 0))]), TypeError,
        "chain factor frequency must be a FrequencyVector",
    ),
    "chain-step": (
        lambda: AnnihilatorChain([(FrequencyVector(0, 0), (1, 0))]), TypeError,
        "chain factor step must be IntegerStep or Direction",
    ),
    "sum-term": (
        lambda: ExponentialSum(((1.0, 0.8),)), TypeError, "a term's frequency must be a FrequencyVector"
    ),
    "grid-size": (
        lambda: GridSamples(0, (0, 0), 2, 2, [1.0, 2.0, 3.0]), ValueError, "expected 4 values, got 3"
    ),
    "grid-level": (
        lambda: GridSamples(-1, (0, 0), 1, 1, [1.0]), ValueError, "level must lie in 0..1074, got -1"
    ),
    "grid-window": (
        lambda: GridSamples(0, (0, 0), 0, 1, []), ValueError, "window must be at least 1x1"
    ),
}


def _field_values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


class TestOneStorePerField:
    @pytest.mark.parametrize("name", sorted(_BUILT))
    def test_value_hash_and_repr_kept(self, name):
        build, text = _BUILT[name]
        obj = build()
        assert repr(obj) == text
        params = list(inspect.signature(type(obj)).parameters)
        assert params == [f.name for f in dataclasses.fields(obj)]
        if isinstance(obj, GridSamples):  # compared and hashed by identity
            assert obj == obj and obj != build() and hash(obj) == object.__hash__(obj)
            return
        assert obj == build() and hash(obj) == hash(build())
        assert hash(obj) == hash(_field_values(obj))

    @pytest.mark.parametrize("name", sorted(_BUILT))
    def test_replace_round_trips(self, name):
        obj = _BUILT[name][0]()
        twin = dataclasses.replace(obj)
        assert repr(twin) == repr(obj)
        assert type(twin) is type(obj)
        if not isinstance(obj, GridSamples):
            assert twin == obj

    @pytest.mark.parametrize("name", sorted(_BUILT))
    def test_copy_and_pickle_round_trip(self, name):
        obj = _BUILT[name][0]()
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and repr(twin) == repr(obj)
            if not isinstance(obj, GridSamples):
                assert twin == obj and hash(twin) == hash(obj)

    def test_replace_normalizes_and_validates(self):
        assert dataclasses.replace(Frequency(1.2), value=complex(-0.0, 0.5)).value.real.hex() == "0x0.0p+0"
        assert dataclasses.replace(IntegerStep(1, 2), dy=0) == IntegerStep(1, 0)
        with pytest.raises(ValueError, match="^step must be nonzero$"):
            dataclasses.replace(IntegerStep(1, 0), dx=0)
        grid = dataclasses.replace(_BUILT["grid"][0](), level=3, values=[5, 6])
        assert grid.level == 3 and grid.values.tolist() == [[5.0, 6.0]]
        assert not grid.values.flags.writeable

    @pytest.mark.parametrize("name", sorted(_REFUSED))
    def test_error_messages_kept(self, name):
        build, kind, message = _REFUSED[name]
        with pytest.raises(kind) as exc:
            build()
        assert type(exc.value) is kind and str(exc.value) == message

    @pytest.mark.parametrize(
        "value", [-0.0, complex(-0.0, -0.0), complex(0.5, -0.0), complex(-0.0, 0.5), -0.0j]
    )
    def test_negative_zero_parts_stored_positive(self, value):
        v = Frequency(value).value
        assert math.copysign(1.0, v.real) == 1.0 and math.copysign(1.0, v.imag) == 1.0


class TestSampleArray:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_array_of_a_sample_type_passes_through(self, dtype):
        base = np.arange(12.0).reshape(3, 4).astype(dtype)
        for arr in (base, base[:, ::2], base.T, base[1]):
            assert expspace._sample_array(arr) is arr

    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([1.5, -2.0, 3.25], np.float64),
            ([1, -2, 3], np.float64),
            ([True, False], np.float64),
            (7, np.float64),
            (np.arange(5, dtype=np.int32), np.float64),
            (np.array([True, False]), np.float64),
            (np.array([0.1, -2.7, 1e30], dtype=np.float32), np.float64),
            (np.array([0.1 + 2j, -3.3j], dtype=np.complex64), np.complex128),
            ([1 + 2j, 3.0], np.complex128),
            (np.arange(4.0, dtype=">f8"), np.float64),
        ],
        ids=["floats", "ints", "bools", "scalar", "int32", "bool-array", "float32",
             "complex64", "complex-list", "big-endian"],
    )
    def test_other_inputs_convert_bitwise(self, values, dtype):
        arr = expspace._sample_array(values)
        want = np.asarray(values).astype(dtype)
        assert arr.dtype == np.dtype(dtype)
        assert arr.shape == want.shape and arr.tobytes() == want.tobytes()
        if isinstance(values, np.ndarray):
            assert not np.shares_memory(arr, values)


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
    def test_numpy_integer_window_stored_as_ints(self):
        # the ints _check_window coerced are the ones stored and used
        f = ExponentialSum(((1.0, FrequencyVector(0.5, 0.0)),))
        want = sample(f, 2, (0, 0), 3, 3)
        got = sample(f, np.int64(2), (0, 0), np.int64(3), np.int32(3))
        assert all(type(k) is int for k in (got.level, got.width, got.height))
        assert (got.level, got.width, got.height) == (2, 3, 3)
        assert np.array_equal(got.values, want.values) and got.spacing == 0.25

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

    @pytest.mark.parametrize("z", [(0.0, 0.0, 5.0), (0.0,)])
    def test_evaluate_point_must_be_a_pair(self, z):
        # not truncated to its first two components, nor IndexError
        f = ExponentialSum(((1.0, FrequencyVector(0.3, 0.2)),))
        with pytest.raises(ValueError, match="values to unpack"):
            f.evaluate(z)

    def test_index_beyond_float_range_raises(self):
        f = ExponentialSum(((1.0, FrequencyVector(0.0, 0.0)),))
        with pytest.raises(NumericalError, match="overflows the floating-point range"):
            sample(f, 0, (10**400, 0), 1, 1)

    @pytest.mark.parametrize("origin", [(-3, -3, 99), (-3,)])
    def test_origin_must_be_a_pair(self, origin):
        f = ExponentialSum(((1.0, FrequencyVector(0.0, 0.0)),))
        with pytest.raises(ValueError, match="values to unpack"):
            sample(f, 2, origin, 9, 9)

    def test_window_that_does_not_fit_in_memory(self, monkeypatch):
        def out_of_memory(terms, x, y):
            raise MemoryError

        monkeypatch.setattr(expspace, "_exp_sum", out_of_memory)
        f = ExponentialSum(((1.0, FrequencyVector(0.0, 0.0)),))
        with pytest.raises(InputError, match="^a 9x7 window does not fit in memory$"):
            sample(f, 2, (0, 0), 9, 7)

    def test_matches_scalar_reference_within_bound(self):
        rng = np.random.default_rng(5)
        outcomes = Counter()
        for _ in range(400):
            f = _random_sum(rng)
            level = int(rng.integers(0, 9))
            origin = (int(rng.integers(-200, 201)), int(rng.integers(-200, 201)))
            size = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            outcomes[_compare(f, level, origin, size)] += 1
        assert outcomes["close"] > 300 and outcomes["raised"] > 0

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
        assert outcomes["close"] > 100 and outcomes["raised"] > 100

    def test_finite_where_np_exp_overflows(self):
        # exp(re) overflows while exp(re) cos(im) does not: np.exp gives inf
        # there, and the sample keeps cmath.exp's finite value
        z = complex(709.8937017787827, 0.4624801253737565)
        f = ExponentialSum(((1.0, FrequencyVector(z.real, 1j * z.imag)),))
        assert sample(f, 0, (1, 1), 1, 1).value_at((1, 1)) == cmath.exp(z)


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


def _scalar_reference(f, level, origin, width, height):
    """The per-point loop the array kernel replaced: one cmath.exp per term
    and point, summed in term order from 0j; with the sum of the terms'
    moduli at each point, the scale of the rounding error of the sum."""
    h = math.ldexp(1.0, -level)
    vals = np.empty((height, width), dtype=np.complex128)
    scale = np.empty((height, width))
    for j in range(height):
        for i in range(width):
            z1, z2 = (origin[0] + i) * h, (origin[1] + j) * h
            terms = [c * cmath.exp(g.dot(z1, z2)) for c, g in f.terms]
            vals[j, i] = sum(terms, 0j)
            # hypot, as abs() raises for a modulus past the float range
            scale[j, i] = sum(math.hypot(t.real, t.imag) for t in terms)
    if not np.isfinite(vals).all():
        raise OverflowError("a sample overflows")
    return vals, scale


def _compare(f, level, origin, size) -> str:
    """Assert that sample lies within 4 eps * sum_l |c_l exp(g_l . z)| of the
    reference at every point, or that both raise."""
    try:
        want, scale = _scalar_reference(f, level, origin, *size)
    except OverflowError:
        with pytest.raises(NumericalError, match="overflows the floating-point range"):
            sample(f, level, origin, *size)
        return "raised"
    got = sample(f, level, origin, *size).values
    assert (np.abs(got - want) <= 4 * np.finfo(float).eps * scale).all(), (f, level, origin)
    return "close"


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
            sample(ExponentialSum(((1.0, FrequencyVector(0.0, 0.0)),)), 2, origin, 9, 9)

    def test_float_level_rejected(self):
        # not stored as 2.0 only to fail later in .spacing
        with pytest.raises(TypeError):
            GridSamples(2.0, (0, 0), 2, 1, [1, 2])

    def test_numpy_and_bool_window_stored_as_ints(self):
        s = GridSamples(np.int64(2), (0, 0), True, np.uint8(2), [1, 2])
        assert (s.level, s.width, s.height) == (2, 1, 2) and s.spacing == 0.25
        assert all(type(k) is int for k in (s.level, s.width, s.height))

    def test_numpy_integer_origin_accepted(self):
        s = GridSamples(0, (np.int64(-3), np.int32(2)), 2, 1, [1, 2])
        assert s.origin == (-3, 2) and all(type(k) is int for k in s.origin)

    @pytest.mark.parametrize("origin", [(-3, -3, 7), (-3,)])
    def test_origin_must_be_a_pair(self, origin):
        # not truncated to its first two components, nor numpy's IndexError
        with pytest.raises(ValueError, match="values to unpack"):
            GridSamples(2, origin, 2, 1, [1, 2])

    @pytest.mark.parametrize("alpha", [(0, 0, 9), (0,)])
    def test_base_index_must_be_a_pair(self, alpha):
        s = GridSamples(0, (0, 0), 2, 2, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="values to unpack"):
            s.value_at(alpha)

    @pytest.mark.parametrize("alpha", [(0.5, 0), (0, 1.0), (np.float64(1.0), 0)])
    def test_float_index_rejected(self, alpha):
        # coerced as the origin is: a float is no index, even an integral one
        s = GridSamples(0, (0, 0), 2, 2, [1, 2, 3, 4])
        with pytest.raises(TypeError):
            s.value_at(alpha)

    def test_numpy_integer_index_accepted(self):
        s = GridSamples(0, (0, 0), 2, 2, [1, 2, 3, 4])
        assert s.value_at((np.int64(1), np.int32(0))) == 2
        assert s.value_at((np.int64(1), np.int32(1))) == 4

    @pytest.mark.parametrize(
        "data, dtype",
        [
            (np.array([1.5, -2.0]), np.float64),
            (np.array([1.5, -2.0], dtype=np.float32), np.float64),
            ([1, -2], np.float64),
            (np.array([1, 2], dtype=np.uint8), np.float64),
            ([True, False], np.float64),
            ([1.5, 2j], np.complex128),
            (np.array([1.5, -2.0], dtype=np.complex64), np.complex128),
        ],
    )
    def test_real_data_stored_real(self, data, dtype):
        # real input (float, int or bool) is stored as float64, anything
        # else as complex128, each as a read-only copy
        s = GridSamples(0, (0, 0), 2, 1, data)
        assert s.values.dtype == dtype
        assert not s.values.flags.writeable
        assert not np.shares_memory(s.values, data)
        assert s.values.tolist() == [[complex(v) for v in data]]


class TestSymmetricSet:
    def test_generic_has_five(self):
        assert len(symmetric_set(FrequencyVector(1.0, 0.5))) == 5

    def test_is_a_tuple_in_family_order(self):
        g = FrequencyVector(1.0, 0.5)
        assert symmetric_set(g) == (FrequencyVector(0.0, 0.0), g, -g, g.mirror(), -g.mirror())
        # mirror(h) equals h here; the tuple keeps the first of the two
        h = FrequencyVector(0.7, 0.0)
        s = symmetric_set(h)
        assert type(s) is tuple
        assert s == (FrequencyVector(0.0, 0.0), h, -h)
        assert s[1] is h

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
