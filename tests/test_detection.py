import math
import statistics

import numpy as np
import pytest

from expann.detection import (
    DEFAULT_STENCILS,
    DEFAULT_TOL_RES,
    Classification,
    CoshEstimate,
    StencilDirectionSet,
    _estimate,
    _flat,
    _real_quotients,
    _six_point,
    cosh_to_frequency,
    detect,
    detect_univariate,
)
from expann.errors import InputError, NumericalError
from expann.expspace import (
    ExponentialSum,
    Frequency,
    FrequencyVector,
    GridSamples,
    sample,
    symmetric_set,
)
from expann.operators import (
    AnnihilatorChain,
    IntegerStep,
    grid_residual,
    reduced_chain_for_symmetric_set,
)
from expann.oracle import SplitMix64, random_instance, random_symmetric_sum


# Union of the horizontal, vertical and diagonal insertion stencils of the
# extended-butterfly scheme: the 14 admissible offsets around a base point.
BUTTERFLY_UNION_OFFSETS = frozenset(
    {
        (0, 0),
        (1, 0), (-1, 0), (0, 1), (0, -1),
        (1, 1), (-1, -1), (-1, 1), (1, -1),
        (-2, 0), (0, -2), (-2, -1), (-1, -2), (-2, -2),
    }
)


def _symmetric_samples(g, level, origin=(-3, -3), width=9, height=9, seed=1):
    rng = SplitMix64(seed)
    f = random_symmetric_sum(rng, g)
    return f, sample(f, level, origin, width, height)


def _quotient(s, alpha, e, step):
    """The six-point quotient at alpha as single-mode detect reads it, or
    None when its denominator is zero."""
    return _estimate(_six_point(s.values, s.origin, e, step), alpha, e, step, s.max_abs())


class TestStencilSets:
    def test_defaults_are_one_step_per_direction(self):
        s = StencilDirectionSet()
        assert s.for_axis((1, 0)) == (IntegerStep(0, 1), IntegerStep(1, 1))
        assert s.for_axis((0, 1)) == (IntegerStep(1, 0), IntegerStep(1, 1))

    def test_negated_step_reads_the_same_stencils_negated(self):
        # D along -v at b is -D along v at b - v, so the kernel for -v is
        # the kernel for v negated, its origin moved by v: a list that held
        # both would read every stencil twice
        steps = {st for e in ((1, 0), (0, 1)) for st in DEFAULT_STENCILS.for_axis(e)}
        for s in _kernel_cases():
            for e in ((1, 0), (0, 1)):
                for v in steps:
                    o, num, den, d = _six_point(s.values, s.origin, e, v)
                    mo, mnum, mden, md = _six_point(
                        s.values, s.origin, e, IntegerStep(-v.dx, -v.dy)
                    )
                    assert mo == (o[0] + v.dx, o[1] + v.dy)
                    for a, b in ((mnum, num), (mden, den), (md, d)):
                        assert np.array_equal(a, -b)

    def test_members_inside_union(self):
        s = StencilDirectionSet()
        for v in s.set_x + s.set_y:
            assert (v.dx, v.dy) in BUTTERFLY_UNION_OFFSETS

    def test_union_has_fourteen_offsets(self):
        assert len(BUTTERFLY_UNION_OFFSETS) == 14


class TestCoshFromStencil:
    """The cosh estimate of one six-point stencil, as ``_estimate`` reads it."""

    def test_single_exponential(self):
        f = ExponentialSum(((1.0, FrequencyVector(0.6, 0.4)),))
        s = sample(f, 0, (-1, -1), 6, 6)
        est = _quotient(s, (0, 0), (1, 0), IntegerStep(0, 1))
        assert est.value.real == pytest.approx(1.1854652182422676, rel=1e-12)
        assert abs(est.value.imag) < 1e-12
        assert est.denominator_magnitude > 0

    def test_cosine_data(self):
        g = FrequencyVector(0.0, 1j * math.pi / 3)
        f = ExponentialSum(
            (
                (1.0, FrequencyVector.zero()),
                (1.0, g),
                (1.0, -g),
            )
        )
        s = sample(f, 0, (-1, -1), 6, 6)
        est = _quotient(s, (0, 0), (0, 1), IntegerStep(1, 1))
        assert est.value.real == pytest.approx(0.5, abs=1e-12)

    def test_constant_raises_denominator_zero(self):
        # every step's denominator vanishes, so no step yields an estimate
        f = ExponentialSum(((3.0, FrequencyVector.zero()),))
        s = sample(f, 0, (-1, -1), 6, 6)
        for step in StencilDirectionSet().set_x:
            assert _quotient(s, (0, 0), (1, 0), step) is None

    def test_out_of_window(self):
        f = ExponentialSum(((1.0, FrequencyVector(0.5, 0.0)),))
        s = sample(f, 0, (0, 0), 4, 4)
        with pytest.raises(InputError, match="leaves the sample window"):
            _quotient(s, (3, 0), (1, 0), IntegerStep(0, 1))
        with pytest.raises(InputError, match="leaves the sample window"):
            detect(s, (3, 0))
        for mode in ("single", "robust"):  # a base point outside the window
            with pytest.raises(InputError, match=r"^the stencil at \(4, 0\) leaves"):
                detect(s, (4, 0), mode=mode)


class TestClassifyConstant:
    """detect takes an axis as constant only where the plain difference along
    it passes the residual check, in both modes."""

    def test_constant_true(self):
        f = ExponentialSum(((2.0, FrequencyVector.zero()),))
        s = sample(f, 0, (-2, -2), 6, 6)
        for mode in ("single", "robust"):
            rep = detect(s, (0, 0), mode=mode)
            assert rep.classification is Classification.CONSTANT
            assert rep.residual == 0.0

    def test_axis_exponential_false(self):
        f = ExponentialSum(((1.0, FrequencyVector(0.3, 0.0)),))
        s = sample(f, 0, (-2, -2), 6, 6)
        for mode in ("single", "robust"):
            rep = detect(s, (0, 0), mode=mode)
            assert rep.classification is Classification.FREQUENCY
            assert [est.axis for est in rep.estimates] == [(1, 0), (0, 1)]
            assert rep.frequency.g1.value == pytest.approx(0.3, abs=1e-10)

    def test_generic_member_false(self):
        g = FrequencyVector(0.8, 0.3)
        _, s = _symmetric_samples(g, 0)
        for mode in ("single", "robust"):
            rep = detect(s, (0, 0), mode=mode)
            assert rep.classification is Classification.FREQUENCY
            assert [est.axis for est in rep.estimates] == [(1, 0), (0, 1)]


class TestCoshToFrequency:
    def test_boundary_one_maps_to_zero(self):
        assert cosh_to_frequency(1.0, 1.0) == Frequency(0.0)

    def test_real_branch(self):
        g = cosh_to_frequency(1.5430806348152437, 1.0)
        assert g.value.real == pytest.approx(1.0, rel=1e-12)
        assert g.value.imag == 0.0

    def test_imaginary_branch_with_scale(self):
        g = cosh_to_frequency(0.7071067811865476, 0.5)
        assert g.value.imag == pytest.approx(math.pi / 2, rel=1e-12)
        assert g.value.real == 0.0

    def test_no_snapping_below_one(self):
        g = cosh_to_frequency(1.0 - 1e-12, 1.0)
        assert g.value.imag > 0.0

    def test_rejects_below_minus_one(self):
        with pytest.raises(NumericalError, match="is not above -1"):
            cosh_to_frequency(-1.2, 1.0)

    def test_rejects_complex(self):
        with pytest.raises(NumericalError, match="has a non-real part"):
            cosh_to_frequency(1.2 + 0.1j, 1.0)

    def test_rejects_rate_at_or_beyond_pi(self):
        # scale < 1 can push the imaginary branch out of the open domain
        with pytest.raises(NumericalError, match="is not below pi"):
            cosh_to_frequency(-0.9, 0.5)


class TestDetect:
    def test_planted_frequency(self):
        g = FrequencyVector(0.8, 0.3)
        f = ExponentialSum(tuple((1.0, m) for m in symmetric_set(g)))
        s = sample(f, 2, (-3, -3), 9, 9)
        rep = detect(s, (0, 0))
        assert rep.classification is Classification.FREQUENCY
        assert rep.frequency.g1.value == pytest.approx(0.8, abs=1e-10)
        assert rep.frequency.g2.value == pytest.approx(0.3, abs=1e-10)
        assert rep.residual <= 1e-10

    def test_float_base_point_rejected(self):
        f = ExponentialSum(tuple((1.0, m) for m in symmetric_set(FrequencyVector(0.8, 0.3))))
        s = sample(f, 2, (-3, -3), 9, 9)
        with pytest.raises(TypeError):  # not truncated to (0, 0)
            detect(s, (0.9, 0.9))

    def test_constant(self):
        f = ExponentialSum(((5.0, FrequencyVector.zero()),))
        s = sample(f, 0, (-3, -3), 9, 9)
        rep = detect(s, (0, 0))
        assert rep.classification is Classification.CONSTANT
        assert rep.frequency is None
        assert rep.residual == 0.0

    def test_gaussian_inconsistent(self):
        xs = np.arange(-4, 5, dtype=float)
        vals = np.exp(np.tile(xs**2, (9, 1)))  # rows of exp(z1^2)
        s = GridSamples(0, (-4, -4), 9, 9, vals.ravel())
        rep = detect(s, (0, 0))
        assert rep.classification is Classification.INCONSISTENT

    def test_mixed_axis_component_zero(self):
        g1 = 0.7
        f = ExponentialSum(
            (
                (1.0, FrequencyVector.zero()),
                (1.0, FrequencyVector(g1, 0.0)),
                (1.0, FrequencyVector(-g1, 0.0)),
            )
        )
        s = sample(f, 0, (-3, -3), 9, 9)
        rep = detect(s, (0, 0))
        assert rep.classification is Classification.FREQUENCY
        assert rep.frequency.g1.value == pytest.approx(0.7, abs=1e-10)
        assert rep.frequency.g2.value == 0.0

    def test_fallback_step_order(self):
        # data varying only along z1 defeats the first x-axis step (0, 1)
        f = ExponentialSum(
            (
                (1.0, FrequencyVector.zero()),
                (1.0, FrequencyVector(0.7, 0.0)),
                (1.0, FrequencyVector(-0.7, 0.0)),
            )
        )
        s = sample(f, 0, (-3, -3), 9, 9)
        rep = detect(s, (0, 0))
        x_est = next(e for e in rep.estimates if e.axis == (1, 0))
        assert (x_est.step_used.dx, x_est.step_used.dy) == (1, 1)

    def test_rounding_noise_on_a_flat_step_is_skipped(self):
        # one ulp at grid index (1, 1) gives the x step (0, 1) a non-zero
        # denominator at (0, 0) and a quotient of 0; the window is flat along
        # (0, 1), so a residual chain built on that step would pass any rate,
        # and the step is skipped as if its denominator were zero
        f = ExponentialSum(
            (
                (1.0, FrequencyVector.zero()),
                (1.0, FrequencyVector(0.7, 0.0)),
                (1.0, FrequencyVector(-0.7, 0.0)),
            )
        )
        s = sample(f, 0, (-3, -3), 9, 9)
        vals = s.values.copy()
        vals[4, 4] = np.nextafter(vals[4, 4].real, math.inf)
        s2 = GridSamples(s.level, s.origin, s.width, s.height, vals.ravel())
        assert _six_point(s2.values, s2.origin, (1, 0), IntegerStep(0, 1))[2][3, 3] != 0
        for mode in ("single", "robust"):
            rep = detect(s2, (0, 0), mode=mode)
            assert rep.classification is Classification.FREQUENCY, mode
            assert rep.estimates[0].step_used == IntegerStep(1, 1)
            assert abs(rep.frequency.g1.value - 0.7) <= 1e-12
            assert abs(rep.frequency.g2.value) <= 1e-7

    def test_robust_mode_matches_single_on_clean_data(self):
        g = FrequencyVector(0.5, 1.0j)
        f, s = _symmetric_samples(g, 1)
        single = detect(s, (0, 0), mode="single")
        robust = detect(s, (0, 0), mode="robust")
        assert robust.classification is Classification.FREQUENCY
        assert abs(robust.frequency.g1.value - single.frequency.g1.value) < 1e-9
        assert abs(robust.frequency.g2.value - single.frequency.g2.value) < 1e-9

    def test_robust_mode_tolerates_one_spike(self):
        g = FrequencyVector(0.5, 0.9)
        f = ExponentialSum(tuple((1.0, m) for m in symmetric_set(g)))
        s = sample(f, 1, (-4, -4), 11, 11)
        vals = s.values.copy()
        vals[9, 9] *= 1.5  # corrupt one corner sample
        s2 = GridSamples(s.level, s.origin, s.width, s.height, vals.ravel())
        rep = detect(s2, (0, 0), mode="robust", tol_res=math.inf)
        assert rep.frequency is not None
        assert rep.frequency.g1.value == pytest.approx(0.5, abs=1e-6)

    def test_robust_mode_constant_grid(self):
        # every denominator vanishes and the plain differences certify rate zero
        s = GridSamples(0, (0, 0), 6, 6, np.full(36, 3.0))
        rep = detect(s, (2, 2), mode="robust")
        assert rep.classification is Classification.CONSTANT
        assert rep.residual == 0.0

    def test_robust_mode_axis_without_a_difference_exhausts_the_window(self):
        # no step fits a 1x1 window, and neither does the plain difference
        # that would judge the axis taken as zero
        s = GridSamples(0, (0, 0), 1, 1, np.ones(1))
        with pytest.raises(InputError, match=r"^step \(1, 0\) exhausts a 1x1 window$"):
            detect(s, (0, 0), mode="robust")

    def test_robust_mode_vanishing_axis_judged_by_residual(self):
        # no x-axis denominator reads column 3, so the x component is taken as
        # zero; the plain x difference reads the 2.0 at grid index (3, 2)
        values = np.ones((4, 4))
        values[2, 3] = 2.0
        rep = detect(GridSamples(0, (0, 0), 4, 4, values), (1, 1), mode="robust")
        assert rep.classification is Classification.INCONSISTENT
        assert rep.reason == "annihilator residual 5.000e-01 exceeds 1.000e-08"
        assert rep.residual == 0.5

    def test_robust_mode_reports_a_step_its_residual_can_use(self):
        # rows of e^{1.5x} + 5e^{0.2x} + sin 3x, constant along y: the first x
        # step (0, 1) reads only zero differences, and a residual chain built
        # with it annihilates such data whatever g1 is
        xs = (np.arange(24) - 3) * 0.25
        row = np.exp(1.5 * xs) + 5 * np.exp(0.2 * xs) + np.sin(3 * xs)
        s = GridSamples(2, (-3, -3), 24, 24, np.tile(row, (24, 1)).ravel())
        for mode in ("single", "robust"):
            rep = detect(s, (8, 8), mode=mode)
            assert rep.classification is Classification.INCONSISTENT
            assert rep.residual > 1e-4
            assert rep.estimates[0].step_used == IntegerStep(1, 1)


def test_wide_window_families_recovered_in_both_modes():
    # Exact data spans many orders of magnitude on wide windows, so a
    # denominator can be tiny against the window's sup without being zero;
    # it must still be read, and never make an axis count as zero.
    for pair in ((0.8, 0.3j), (0.7, 0), (1.5, 0), (0, 0.7), (0, 1.5), (0.9j, 0), (0, 2.5j)):
        g = FrequencyVector(*pair)
        f = ExponentialSum(tuple((1.0, m) for m in symmetric_set(g)))
        for n in (16, 64, 128, 256):
            s = sample(f, 2, (-3, -3), n, n)
            for alpha in ((0, 0), (n // 2 - 4, n // 2 - 4)):
                for mode in ("single", "robust"):
                    rep = detect(s, alpha, mode=mode)
                    case = (pair, n, alpha, mode, rep.reason)
                    assert rep.classification is Classification.FREQUENCY, case
                    pairs = zip(rep.frequency.as_pair(), g.as_pair())
                    assert max(abs(a - b) for a, b in pairs) <= 1e-10, case


def test_zero_component_families_with_small_noise_recovered_in_both_modes():
    # Relative noise from rounding level up to 1e-11 makes the differences
    # along a step the family is constant along non-zero, but the window
    # stays flat along it, so no estimate is read from that step.  The rate
    # error grows like the square root of the noise.
    for pair in ((0.8, 0.3j), (0.7, 0), (1.5, 0), (0, 0.7), (0, 1.5), (0.9j, 0), (0, 2.5j)):
        g = FrequencyVector(*pair)
        f = ExponentialSum(tuple((1.0, m) for m in symmetric_set(g)))
        for n in (16, 64):
            s = sample(f, 2, (-3, -3), n, n)
            rng = np.random.default_rng(7)
            for noise in (1e-15, 1e-13, 1e-11):
                vals = s.values * (1 + noise * rng.standard_normal(s.values.shape))
                noisy = GridSamples(s.level, s.origin, n, n, vals.ravel())
                for alpha in ((0, 0), (n // 2 - 4, n // 2 - 4)):
                    for mode in ("single", "robust"):
                        rep = detect(noisy, alpha, mode=mode)
                        case = (pair, n, noise, alpha, mode, rep.reason)
                        assert rep.classification is Classification.FREQUENCY, case
                        pairs = zip(rep.frequency.as_pair(), g.as_pair())
                        assert max(abs(a - b) for a, b in pairs) <= 1e3 * math.sqrt(noise), case


class TestExactRecoverySweep:
    def test_recovery_over_classes_and_levels(self):
        rng = SplitMix64(2024)
        recovered = 0
        for i in range(50):
            kind = i % 4
            level = i % 4
            if kind == 0:
                g = FrequencyVector(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
            elif kind == 1:
                g = FrequencyVector(
                    1j * rng.uniform(0.1, 0.9 * math.pi),
                    1j * rng.uniform(0.1, 0.9 * math.pi),
                )
            elif kind == 2:
                g = FrequencyVector(
                    rng.uniform(0.1, 2.0), 1j * rng.uniform(0.1, 0.9 * math.pi)
                )
            else:
                g = FrequencyVector(
                    1j * rng.uniform(0.1, 0.9 * math.pi), rng.uniform(0.1, 2.0)
                )
            f = random_symmetric_sum(rng, g)
            s = sample(f, level, (-3, -3), 8, 8)
            rep = detect(s, (0, 0))
            assert rep.classification is Classification.FREQUENCY, (i, rep.reason)
            for got, want in zip(
                rep.frequency.as_pair(), g.as_pair()
            ):
                assert abs(got - want) <= 1e-8 * (1.0 + abs(want))
            recovered += 1
        assert recovered == 50

    def test_scale_coherence(self):
        g = FrequencyVector(0.9, 1.2j)
        rng = SplitMix64(77)
        f = random_symmetric_sum(rng, g)
        freqs = []
        for level in (1, 2):
            s = sample(f, level, (-3, -3), 9, 9)
            rep = detect(s, (0, 0))
            freqs.append(rep.frequency)
        for a, b in zip(freqs[0].as_pair(), freqs[1].as_pair()):
            assert abs(a - b) <= 1e-8


class TestFallbackCompleteness:
    def test_all_denominators_zero_implies_constant_probe(self):
        # constant data: every fallback step gives a zero denominator, and
        # the values at the base point and one step from it coincide
        f = ExponentialSum(((4.2, FrequencyVector.zero()),))
        s = sample(f, 0, (-2, -2), 7, 7)
        stencils = StencilDirectionSet()
        for e in [(1, 0), (0, 1)]:
            for step in stencils.for_axis(e):
                assert _quotient(s, (0, 0), e, step) is None
            base = (0 + e[0], 0 + e[1])
            probe = [s.value_at(base)] + [
                s.value_at((base[0] + st.dx, base[1] + st.dy))
                for st in stencils.for_axis(e)
            ]
            assert max(abs(p - probe[0]) for p in probe) <= 1e-12 * s.max_abs()


class TestDetectUnivariate:
    def test_hyperbolic(self):
        f = [1 + math.exp(0.9 * z) + math.exp(-0.9 * z) for z in range(-1, 3)]
        g = detect_univariate(f, 0, 1)
        assert g.value.real == pytest.approx(0.9, abs=1e-12)

    def test_constant(self):
        assert detect_univariate([3.0, 3.0, 3.0, 3.0], 0, 1) == Frequency(0.0)

    def test_cosine_at_level_one(self):
        f = [1 + 2 * math.cos(0.5 * z * 0.5) for z in range(-1, 4)]
        g = detect_univariate(f, 1, 1)
        assert g.value.imag == pytest.approx(0.5, abs=1e-12)
        assert g.value.real == 0.0

    def test_out_of_window(self):
        with pytest.raises(InputError, match="leaves the sample window"):
            detect_univariate([1.0, 2.0, 3.0, 4.0], 0, 0)

    def test_denominator_zero_non_constant(self):
        # f(a+1) == f(a) but the window is not constant
        f = [0.0, 1.0, 1.0, 5.0]
        with pytest.raises(NumericalError, match="vanishes on non-constant data"):
            detect_univariate(f, 0, 1)

    def test_rate_failing_the_residual_raises(self):
        # f(2) - f(1) is one ulp, so the quotient reads a rate near 37.6,
        # which the reduced chain along the series does not annihilate
        with pytest.raises(NumericalError, match="annihilator residual"):
            detect_univariate([0.0, 1.0, 1.0000000000000002, 5.0, 2.0], 0, 1)

    def test_float_base_index_rejected(self):
        z = np.arange(8) * 0.5
        f = 1 + 2 * np.exp(0.8 * z) + 3 * np.exp(-0.8 * z)
        with pytest.raises(TypeError):  # not numpy's IndexError
            detect_univariate(f, 1, 1.5)

    def test_rejects_empty_series_and_bad_level(self):
        with pytest.raises(ValueError, match="^window must be at least 1x1$"):
            detect_univariate([], 0, 1)
        for level in (-1, 1075):
            with pytest.raises(ValueError, match=rf"^level must lie in 0\.\.1074, got {level}$"):
                detect_univariate([1.0, 2.0, 4.0, 8.0], level, 1)

    def test_matches_bivariate_cosh(self):
        # the 1-D detector is the grid quotient on a 1xn row, with the
        # difference step along the axis at base alpha - 1: bit for bit
        rng = np.random.default_rng(3)
        inputs = [
            ([1 + math.exp(0.6 * z) + math.exp(-0.6 * z) for z in range(-2, 4)], 0, 1),
            ([1 + 2 * math.cos(0.5 * z * 0.25) for z in range(-3, 9)], 2, 5),
            ([3 - 2j * math.cosh(0.8 * z / 64) for z in range(40)], 6, 1),
        ]
        for k in range(40):  # random spans, real and imaginary rates, levels 0..6
            g = rng.uniform(0.05, 3.0) * (1j if k % 2 else 1)
            c = rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3) * (k % 3 == 0)
            z = np.arange(-8, 8) * 2.0 ** -(k % 7)
            vals = list(c[0] + c[1] * np.exp(g * z) + c[2] * np.exp(-g * z))
            inputs.append((vals, k % 7, 1 + k % 13))
        for vals, level, a in inputs:
            row = GridSamples(level, (0, 0), len(vals), 1, vals)
            g_uni = detect_univariate(vals, level, a)
            est = _quotient(row, (a - 1, 0), (1, 0), IntegerStep(1, 0))
            g_grid = cosh_to_frequency(est.value, row.spacing)
            assert g_uni.value.real.hex() == g_grid.value.real.hex()
            assert g_uni.value.imag.hex() == g_grid.value.imag.hex()
        # and it agrees with a diagonal stencil on the sampled 2-D function
        f = ExponentialSum(
            (
                (1.0, FrequencyVector.zero()),
                (1.0, FrequencyVector(0.6, 0.0)),
                (1.0, FrequencyVector(-0.6, 0.0)),
            )
        )
        est = _quotient(sample(f, 0, (-2, -2), 6, 6), (0, 0), (1, 0), IntegerStep(1, 1))
        g_uni = detect_univariate(inputs[0][0], 0, 1)
        assert abs(est.value.real - math.cosh(g_uni.value.real)) <= 1e-10


class TestNonFiniteResidual:
    def test_nan_outside_the_stencils_is_inconsistent(self):
        g = FrequencyVector(0.8, 0.3)
        f = ExponentialSum(tuple((1.0, m) for m in symmetric_set(g)))
        s = sample(f, 0, (-3, -3), 9, 9)
        vals = s.values.copy()
        vals[8, 8] = math.nan  # a corner no default stencil at (0, 0) reads
        rep = detect(GridSamples(0, s.origin, 9, 9, vals.ravel()), (0, 0))
        assert rep.classification is Classification.INCONSISTENT
        assert math.isnan(rep.residual)

    @pytest.mark.parametrize("mode", ["single", "robust"])
    @pytest.mark.parametrize(
        "column, alpha",
        [
            # cosh 1e308 along y: 2c overflows, and 2c times a zero
            # denominator is NaN; x reads cosh 1 with residual 0
            ([-1e300, 0.0, 1e-8, 1e300, 1e300, 1e300], (1, 0)),
            # x is taken as zero with residual 0; y reads cosh -1/2, and
            # differences of +-1e308 overflow, so num - 2c den is inf - inf
            ([0.0, 0.0, 1.0, 0.0, -1e308, 1e308, -1e308, 1e308], (0, 0)),
        ],
    )
    def test_nan_on_the_second_axis_alone_is_inconsistent(self, column, alpha, mode):
        # every column is the same, so only y can see the overflow
        vals = np.tile(np.array(column)[:, None], (1, 6))
        with np.errstate(all="ignore"):
            rep = detect(GridSamples(0, (0, 0), 6, len(column), vals.ravel()), alpha, mode=mode)
        assert rep.classification is Classification.INCONSISTENT
        assert not rep.residual <= DEFAULT_TOL_RES


# --- scalar per-point reference for the array kernel ----------------------
#
# detect() as it was computed one point at a time before the array kernel:
# the quotient from value_at, the fallback loop and the per-point robust loop.


def _ref_diff(s, b, step):
    return s.value_at((b[0] + step.dx, b[1] + step.dy)) - s.value_at(b)


def _ref_flat(s, step):
    diffs = [
        abs(_ref_diff(s, (x, y), step))
        for y in range(s.origin[1], s.origin[1] + s.height)
        for x in range(s.origin[0], s.origin[0] + s.width)
        if s.contains((x + step.dx, y + step.dy))
    ]
    return not diffs or max(diffs) / s.max_abs() <= DEFAULT_TOL_RES


def _ref_estimate(s, a, e, step, flat=None):
    d0, d1, d2 = (_ref_diff(s, (a[0] + k * e[0], a[1] + k * e[1]), step) for k in range(3))
    if d1 == 0 or (_ref_flat(s, step) if flat is None else flat):
        return None
    return CoshEstimate(e, (d2 + d0) / (2.0 * d1), a, step, abs(d1))


def _ref_robust(s, alpha, e, steps):
    ests = []
    for step in steps:
        flat = _ref_flat(s, step)
        for y in range(s.origin[1], s.origin[1] + s.height):
            for x in range(s.origin[0], s.origin[0] + s.width):
                try:
                    est = _ref_estimate(s, (x, y), e, step, flat)
                except InputError:  # raised only by value_at, for a stencil off the window
                    continue
                if est is not None:
                    ests.append(est)
    if not ests:
        return None, 0
    value = statistics.median(est.value.real for est in ests)
    mag = statistics.median(est.denominator_magnitude for est in ests)
    return CoshEstimate(e, complex(value, 0.0), alpha, ests[0].step_used, mag), len(ests)


# robust mode's median as it was taken with each step and its negation, so
# that every stencil counts twice; the median of a list taken twice is the
# median of the list
_REF_ROBUST_STEPS = {
    (1, 0): ((0, 1), (1, 1), (0, -1), (-1, -1)),
    (0, 1): ((1, 0), (1, 1), (-1, 0), (-1, -1)),
}


def _ref_axis_residual(s, e, est):
    """An axis's annihilator residual, one point at a time: the reduced
    chain's output (D(b + 2e) + D(b)) - 2c D(b + e) along the estimate's
    step, or the plain difference along e for an axis taken as zero."""
    outs = []
    for y in range(s.origin[1], s.origin[1] + s.height):
        for x in range(s.origin[0], s.origin[0] + s.width):
            try:
                if est is None:
                    outs.append(abs(_ref_diff(s, (x, y), IntegerStep(*e))))
                    continue
                d0, d1, d2 = (
                    _ref_diff(s, (x + k * e[0], y + k * e[1]), est.step_used) for k in range(3)
                )
            except InputError:  # raised only by value_at, for a stencil off the window
                continue
            outs.append(abs((d2 + d0) - 2.0 * est.value.real * d1))
    return max(outs) / s.max_abs()


def _ref_detect(s, alpha, mode):
    """Classification, frequency, estimates, residual, the chain residual of
    the frequency and robust mode's stencil counts."""
    estimates, comps, axis_ests, counts = [], [], [], []
    for e in ((1, 0), (0, 1)):
        if mode == "single":
            tried = (_ref_estimate(s, alpha, e, st) for st in DEFAULT_STENCILS.for_axis(e))
            est = next((t for t in tried if t is not None), None)
        else:
            steps = [IntegerStep(*p) for p in _REF_ROBUST_STEPS[e]]
            est, count = _ref_robust(s, alpha, e, steps)
            counts.append(count)
        axis_ests.append(est)
        if est is None:
            comps.append(Frequency(0.0))
            continue
        estimates.append(est)
        try:
            comps.append(cosh_to_frequency(est.value, s.spacing))
        except NumericalError:
            return Classification.INCONSISTENT, None, estimates, math.nan, math.nan, counts
    g = FrequencyVector(*comps)
    axes = ((1, 0), (0, 1))
    residual = max(_ref_axis_residual(s, e, est) for e, est in zip(axes, axis_ests))
    zero = FrequencyVector.zero()
    chain_residual = max(
        grid_residual(
            reduced_chain_for_symmetric_set(g, e, est.step_used) if est
            else AnnihilatorChain(((zero, IntegerStep(*e)),)),
            s,
        )
        for e, est in zip(axes, axis_ests)
    )
    out = estimates, residual, chain_residual, counts
    if not residual <= DEFAULT_TOL_RES:
        return Classification.INCONSISTENT, None, *out
    if not estimates:
        return Classification.CONSTANT, None, *out
    return Classification.FREQUENCY, g, *out


def _kernel_cases():
    for seed in range(300):
        yield random_instance(seed)[2]
    rng = SplitMix64(5)
    for n in (24, 32, 40):
        g = FrequencyVector(rng.uniform(0.1, 0.6), 1j * rng.uniform(0.1, 1.0))
        yield sample(random_symmetric_sum(rng, g), 3, (-n // 2, -n // 2), n, n)


def _bits(x: float) -> str:
    return float(x).hex()


def _est_bits(est):
    v = est.value
    return est.axis, est.base, est.step_used, _bits(v.real), _bits(v.imag), _bits(
        est.denominator_magnitude
    )


@pytest.mark.parametrize("mode", ["single", "robust"])
def test_detect_matches_scalar_reference_bitwise(mode):
    classes = set()
    for s in _kernel_cases():
        alpha = (s.origin[0] + s.width // 2 - 1, s.origin[1] + s.height // 2 - 1)
        rep = detect(s, alpha, mode=mode)
        cls, freq, ests, residual, chain_residual, counts = _ref_detect(s, alpha, mode)
        classes.add(cls)
        assert rep.classification is cls
        assert rep.frequency == freq
        assert [_est_bits(x) for x in rep.estimates] == [_est_bits(x) for x in ests]
        # numpy's complex abs rounds some moduli an ulp or two apart from abs()
        assert abs(rep.residual - residual) <= 4 * math.ulp(residual)
        assert abs(rep.residual - chain_residual) <= 1e-14
        for e, count in zip(((1, 0), (0, 1)), counts):
            kernels = [_six_point(s.values, s.origin, e, st) for st in DEFAULT_STENCILS.for_axis(e)]
            live = [k for k in kernels if not _flat(k[3], s.max_abs())]
            assert 2 * sum(int(np.sum(k[2] != 0)) for k in live) == count
    assert Classification.FREQUENCY in classes


def test_real_quotients_round_like_python():
    rng = np.random.default_rng(3)
    scale = lambda n: rng.standard_normal(n) * 2.0 ** rng.integers(-40, 40, n)
    num = scale(20000) + 1j * scale(20000)
    den = scale(20000) + 1j * scale(20000)
    special = [0.0, -0.0, 1.0, -2.5]
    pairs = [complex(a, b) for a in special for b in special]
    num = np.concatenate([num, np.repeat(pairs, len(pairs))])
    den = np.concatenate([den, np.tile(pairs, len(pairs))])
    keep = den != 0
    num, den = num[keep], den[keep]
    got = _real_quotients(num, den)
    want = [(complex(a) / (2.0 * complex(b))).real for a, b in zip(num, den)]
    assert [_bits(x) for x in got] == [_bits(x) for x in want]
