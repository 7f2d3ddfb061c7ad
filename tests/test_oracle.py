import itertools

import numpy as np
import pytest

from expann.expspace import ExponentialSum, FrequencySet, FrequencyVector, sample, symmetric_set
from expann.operators import (
    AnnihilatorChain,
    Direction,
    IntegerStep,
    annihilates,
    chain_apply,
    reduced_chain_for_symmetric_set,
)
from expann.oracle import (
    SplitMix64,
    apply_chain_pointwise,
    exhaustive_annihilation_check,
    finite_difference_directional,
    random_instance,
    random_symmetric_sum,
)


class TestSplitMix64:
    def test_known_stream(self):
        # reference values for seed 1234567 from the published mixer constants
        rng = SplitMix64(1234567)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_uniform_range(self):
        rng = SplitMix64(99)
        xs = [rng.uniform(2.0, 3.0) for _ in range(100)]
        assert all(2.0 <= x < 3.0 for x in xs)


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(0)
        b = random_instance(0)
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert np.array_equal(a[2].values, b[2].values)

    def test_different_seeds_differ(self):
        a = random_instance(0)
        b = random_instance(1)
        assert a[0] != b[0] or not np.array_equal(a[2].values, b[2].values)

    def test_generated_gamma_in_restricted_domain(self):
        for seed in range(20):
            g, f, s = random_instance(seed)
            assert g.in_restricted_domain()
            assert not g.is_zero

    def test_samples_are_real(self):
        for seed in range(20):
            _, _, s = random_instance(seed)
            assert np.max(np.abs(s.values.imag)) <= 1e-12 * s.max_abs()

    def test_window_bounds(self):
        for seed in range(20):
            _, _, s = random_instance(seed)
            assert 7 <= s.width <= 12
            assert 7 <= s.height <= 12
            assert 0 <= s.level <= 3


class TestFiniteDifference:
    def test_constant_is_zero(self):
        f = ExponentialSum.single(3.0, FrequencyVector.zero())
        assert finite_difference_directional(f, (0.2, 0.4), Direction(1, 0), 1e-6) == 0.0

    def test_first_exponential(self):
        f = ExponentialSum.single(1.0, FrequencyVector.of(1.0, 0.0))
        fd = finite_difference_directional(f, (0.0, 0.0), Direction(1, 0), 1e-6)
        assert fd.real == pytest.approx(1.0, abs=1e-5)
        assert fd.real > 1.0  # forward difference overshoots for convex exp

    def test_error_scales_linearly(self):
        f = ExponentialSum(
            ((1.0, FrequencyVector.of(0.7, 0.2)), (2.0, FrequencyVector.of(0.0, 0.5)))
        )
        v = Direction(0.6, 0.8)
        z = (0.3, -0.2)
        from expann.operators import diff_apply

        exact = diff_apply(FrequencyVector.zero(), v, f).evaluate(z)
        e1 = abs(finite_difference_directional(f, z, v, 1e-3) - exact)
        e2 = abs(finite_difference_directional(f, z, v, 5e-4) - exact)
        assert 1.8 <= e1 / e2 <= 2.2


class TestExhaustiveCheck:
    def test_member_passes(self):
        gam = symmetric_set(FrequencyVector.of(0.8, 0.3))
        rng = SplitMix64(13)
        f = ExponentialSum(tuple((rng.uniform(0.5, 2), m) for m in gam))
        assert exhaustive_annihilation_check(f, gam, 2)

    def test_perturbed_fails(self):
        gam = symmetric_set(FrequencyVector.of(0.8, 0.3))
        f = ExponentialSum(tuple((1.0, m) for m in gam))
        f = f + ExponentialSum.single(1.0, FrequencyVector.of(0.37, 0.61))
        assert not exhaustive_annihilation_check(f, gam, 2)

    def test_zero_function_passes(self):
        gam = symmetric_set(FrequencyVector.of(0.8, 0.3))
        assert exhaustive_annihilation_check(ExponentialSum.zero(), gam, 2)

    def test_bounds_validated(self):
        gam = symmetric_set(FrequencyVector.of(0.8, 0.3))
        with pytest.raises(ValueError):
            exhaustive_annihilation_check(ExponentialSum.zero(), gam, 4)

    def test_agrees_with_literal_scan(self):
        # small enough to scan every tuple through the chain machinery
        g = FrequencyVector.of(0.6, 0.0)
        gam = FrequencySet((g, -g))
        steps = [
            IntegerStep(dx, dy)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            if (dx, dy) != (0, 0)
        ]
        cases = [
            ExponentialSum(((1.0, g), (2.0, -g))),
            ExponentialSum(((1.0, g), (1.0, FrequencyVector.of(0.31, 0.17)))),
            ExponentialSum.single(1.0, FrequencyVector.of(0.5, 0.8)),
            # first factor kills this term only when dy = 0, second never
            ExponentialSum.single(1.0, FrequencyVector.of(0.6, 0.9)),
        ]
        for f in cases:
            literal = all(
                annihilates(AnnihilatorChain.over_set(gam, list(tup)), f)
                for tup in itertools.product(steps, repeat=len(gam))
            )
            assert exhaustive_annihilation_check(f, gam, 1) == literal


class TestPointwiseChain:
    def test_matches_vectorized_application(self):
        g = FrequencyVector.of(0.8, 0.3)
        rng = SplitMix64(55)
        f = random_symmetric_sum(rng, g)
        s = sample(f, 1, (-3, -3), 8, 8)
        chain = reduced_chain_for_symmetric_set(g, (1, 0), IntegerStep(1, 1))
        out = chain_apply(chain, s)
        for alpha in out.indices():
            direct = apply_chain_pointwise(chain, s.value_at, alpha, s.level)
            assert direct == out.value_at(alpha)

    def test_access_counting_six_points(self):
        g = FrequencyVector.of(0.8, 0.3)
        f = ExponentialSum(tuple((1.0, m) for m in symmetric_set(g)))
        s = sample(f, 0, (-3, -3), 8, 8)
        chain = reduced_chain_for_symmetric_set(g, (1, 0), IntegerStep(1, 1))
        touched: set = set()

        def counting_lookup(alpha):
            touched.add(alpha)
            return s.value_at(alpha)

        apply_chain_pointwise(chain, counting_lookup, (0, 0), s.level)
        assert len(touched) <= 6
        assert touched == {
            (lam * 1 + mu, lam * 1) for lam in (0, 1) for mu in (0, 1, 2)
        }
