import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hst

from expann.detection import (
    _FALLBACK,
    DEFAULT_TOL_RES,
    Classification,
    CoshEstimate,
    _axis,
    _Differences,
    _flat,
    _median,
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
    _AXIS_STEPS,
    AnnihilatorChain,
    IntegerStep,
    _residual,
    _window_shift,
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
    return _axis(_Differences(s.values, s.origin, s.max_abs()), alpha, e, (step,), "single", s.spacing).estimate


class TestStencilSets:
    def test_defaults_are_one_step_per_direction(self):
        assert _FALLBACK == {
            (1, 0): (IntegerStep(0, 1), IntegerStep(1, 1)),
            (0, 1): (IntegerStep(1, 0), IntegerStep(1, 1)),
        }
        # one object per step, since per-call tables find steps by identity
        assert _FALLBACK[1, 0][0] is _AXIS_STEPS[0, 1] and _FALLBACK[0, 1][0] is _AXIS_STEPS[1, 0]
        assert _FALLBACK[1, 0][1] is _FALLBACK[0, 1][1]

    def test_negated_step_reads_the_same_stencils_negated(self):
        # D along -v at b is -D along v at b - v, so the kernel for -v is
        # the kernel for v negated, moved by v: a list that held both would
        # read every stencil twice.  D along v starts at the window's corner,
        # D along -v at offset v.  Detection takes no step -v, so D along -v
        # is built as operators' chains build a difference
        steps = {st for e in ((1, 0), (0, 1)) for st in _FALLBACK[e]}
        for s in _kernel_cases():
            diffs = _Differences(s.values, s.origin, s.max_abs())
            for v in steps:
                minus = IntegerStep(-v.dx, -v.dy)
                assert _window_shift(s.values, v.dx, v.dy)[2] == (0, 0)
                shifted, base, offset = _window_shift(s.values, minus.dx, minus.dy)
                assert offset == (v.dx, v.dy)
                d, md = diffs[v], shifted - base
                assert np.array_equal(md, -d)
                for e in ((1, 0), (0, 1)):
                    (num, den), (mnum, mden) = _six_point(d, e), _six_point(md, e)
                    for a, b in ((mnum, num), (mden, den)):
                        assert np.array_equal(a, -b)

    def test_differences_are_the_window_shift_differences(self):
        # _Differences slices the window directly; its D is the difference
        # that operators' _window_shift gives, empty where the step is at
        # least as long as the window, and a negative component is refused
        for h, w in ((1, 1), (1, 4), (3, 1), (2, 5), (5, 3)):
            values = np.arange(h * w, dtype=float).reshape(h, w) ** 2
            diffs = _Differences(values, (0, 0), float(values.max()))
            for dx, dy in ((0, 1), (1, 0), (1, 1), (2, 0), (0, 3), (4, 2), (6, 6)):
                shifted, base, offset = _window_shift(values, dx, dy)
                d = diffs[IntegerStep(dx, dy)]
                assert offset == (0, 0)
                assert d.shape == base.shape and np.array_equal(d, shifted - base)
            for dx, dy in ((-1, 0), (0, -1), (1, -1), (-2, 3)):
                with pytest.raises(ValueError, match=rf"^step \({dx}, {dy}\) has a negative component$"):
                    diffs[IntegerStep(dx, dy)]

    def test_rejects_an_axis_that_is_not_a_unit_axis(self):
        g = FrequencyVector(0.5, 0.2)
        with pytest.raises(ValueError, match=r"^axis must be \(1, 0\) or \(0, 1\)$"):
            reduced_chain_for_symmetric_set(g, (1, 1), IntegerStep(1, 1))

    def test_members_inside_union(self):
        for v in _FALLBACK[1, 0] + _FALLBACK[0, 1]:
            assert (v.dx, v.dy) in BUTTERFLY_UNION_OFFSETS

    def test_union_has_fourteen_offsets(self):
        assert len(BUTTERFLY_UNION_OFFSETS) == 14


class TestCoshFromStencil:
    """The cosh estimate of one six-point stencil, as single-mode ``_axis`` reads it."""

    def test_single_exponential(self):
        f = ExponentialSum(((1.0, FrequencyVector(0.6, 0.4)),))
        s = sample(f, 0, (-1, -1), 6, 6)
        est = _quotient(s, (0, 0), (1, 0), IntegerStep(0, 1))
        assert est.value.real == pytest.approx(1.1854652182422676, rel=1e-12)
        assert abs(est.value.imag) < 1e-12

    def test_cosine_data(self):
        g = FrequencyVector(0.0, 1j * math.pi / 3)
        f = ExponentialSum(
            (
                (1.0, FrequencyVector(0.0, 0.0)),
                (1.0, g),
                (1.0, -g),
            )
        )
        s = sample(f, 0, (-1, -1), 6, 6)
        est = _quotient(s, (0, 0), (0, 1), IntegerStep(1, 1))
        assert est.value.real == pytest.approx(0.5, abs=1e-12)

    def test_constant_raises_denominator_zero(self):
        # every step's denominator vanishes, so no step yields an estimate
        f = ExponentialSum(((3.0, FrequencyVector(0.0, 0.0)),))
        s = sample(f, 0, (-1, -1), 6, 6)
        for step in _FALLBACK[1, 0]:
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

    def test_out_of_window_is_checked_before_flatness(self):
        # flat data would take every step as flat and read Constant and rate 0
        flat = GridSamples(0, (0, 0), 4, 4, np.full(16, 3.0))
        with pytest.raises(InputError, match=r"^the stencil at \(3, 0\) leaves the sample window$"):
            detect(flat, (3, 0))
        with pytest.raises(InputError, match=r"^the stencil at 4 leaves the sample window of 6 samples$"):
            detect_univariate([3.0] * 6, 0, 4)


class TestClassifyConstant:
    """detect takes an axis as constant only where the plain difference along
    it passes the residual check, in both modes."""

    def test_constant_true(self):
        f = ExponentialSum(((2.0, FrequencyVector(0.0, 0.0)),))
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

    def test_rejects_complex_with_a_modulus_past_the_float_range(self):
        # abs() of the estimate overflows although both parts are finite;
        # judged at half scale, its imaginary part is far above the
        # bound, so it is not the real rate 710.3 that an inf modulus would give
        want = r"^cosh estimate \(1\.5e\+308\+1\.5e\+308j\) has a non-real part$"
        with pytest.raises(NumericalError, match=want):
            cosh_to_frequency(complex(1.5e308, 1.5e308), 1.0)

    def test_rejects_rate_at_or_beyond_pi(self):
        # scale < 1 can push the imaginary branch out of the open domain
        with pytest.raises(NumericalError, match=r"^cosh estimate -0.9: imaginary frequency "
                           r"must lie in i\(-pi, pi\), got 5.3811316835870615j$"):
            cosh_to_frequency(-0.9, 0.5)

    @pytest.mark.parametrize("scale", [0.0, -0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("c", [1.5, 0.5])
    def test_rejects_scale_not_positive_and_finite(self, c, scale):
        # zero divided, a negative scale flipped the rate's sign, and an
        # infinite one returned zero for every estimate
        with pytest.raises(InputError, match="^scale must be positive and finite, got "):
            cosh_to_frequency(c, scale)

    @pytest.mark.parametrize(
        "c, scale, rate",
        [(math.inf, 1.0, math.inf), (-0.9, 0.5, complex(0.0, math.acos(-0.9) / 0.5))],
        ids=["overflow", "beyond-i-pi"],
    )
    def test_frequency_owns_the_rate_domain(self, c, scale, rate):
        with pytest.raises(ValueError) as owner:
            Frequency(rate)
        with pytest.raises(NumericalError) as exc:
            cosh_to_frequency(c, scale)
        assert str(exc.value) == f"cosh estimate {c}: {owner.value}"


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

    @pytest.mark.parametrize("alpha", [(0, 0, 5), (0,)])
    def test_base_point_must_be_a_pair(self, alpha):
        # not truncated to (0, 0), nor numpy's IndexError
        f = ExponentialSum(tuple((1.0, m) for m in symmetric_set(FrequencyVector(0.8, 0.3))))
        s = sample(f, 2, (-3, -3), 9, 9)
        with pytest.raises(ValueError, match="values to unpack"):
            detect(s, alpha)

    def test_unknown_mode_rejected(self):
        s = GridSamples(0, (0, 0), 4, 4, np.arange(16.0))
        with pytest.raises(ValueError, match="^unknown mode 'fast'$"):
            detect(s, (0, 0), mode="fast")

    def test_constant(self):
        f = ExponentialSum(((5.0, FrequencyVector(0.0, 0.0)),))
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
                (1.0, FrequencyVector(0.0, 0.0)),
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
                (1.0, FrequencyVector(0.0, 0.0)),
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
                (1.0, FrequencyVector(0.0, 0.0)),
                (1.0, FrequencyVector(0.7, 0.0)),
                (1.0, FrequencyVector(-0.7, 0.0)),
            )
        )
        s = sample(f, 0, (-3, -3), 9, 9)
        vals = s.values.copy()
        vals[4, 4] = np.nextafter(vals[4, 4].real, math.inf)
        s2 = GridSamples(s.level, s.origin, s.width, s.height, vals.ravel())
        diff = _Differences(s2.values, s2.origin, s2.max_abs())[IntegerStep(0, 1)]
        assert _six_point(diff, (1, 0))[1][3, 3] != 0
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

    _ROWS = np.array([[1, 2, 4, 8, 16, 32], [3, 1, 4, 1, 5, 9]])
    _X, _Y = np.arange(-1, 2.0), np.arange(-2, 4.0)
    # 1 + (2^x + 2^-x)(4^y + 4^-y): rates ln 2 and ln 4, exact in binary
    _DYADIC = 1 + (2.0**_X + 2.0**-_X)[None, :] * (4.0**_Y + 4.0**-_Y)[:, None]
    _NARROW = {
        # no y stencil fits two rows, so y's kernels are empty and y is taken as zero
        "2x6": (GridSamples(0, (0, 0), 6, 2, _ROWS), (0, 0)),
        "6x2": (GridSamples(0, (0, 0), 2, 6, _ROWS.T), (0, 0)),
        # three columns fit no x stencil along (1, 1): an empty kernel after a full one
        "3x6": (GridSamples(0, (-1, -2), 3, 6, _DYADIC), (-1, -2)),
    }
    _NARROW_REPORTS = {
        ("2x6", "single"): (
            "Inconsistent", [((1, 0), (0, 1), -1.0)], "nan",
            "axis (1, 0): cosh estimate -1.0 is not above -1",
        ),
        ("2x6", "robust"): (
            "Inconsistent", [((1, 0), (0, 1), 10 / 21)], "0x1.7000000000000p-1",
            "annihilator residual 7.188e-01 exceeds 1.000e-08",
        ),
        ("6x2", "single"): "the stencil at (0, 0) leaves the sample window",
        ("6x2", "robust"): (
            "Inconsistent", [((0, 1), (1, 0), 10 / 21)], "0x1.7000000000000p-1",
            "annihilator residual 7.188e-01 exceeds 1.000e-08",
        ),
        ("3x6", "single"): ("Frequency", [((1, 0), (0, 1), 1.25), ((0, 1), (1, 0), 2.125)], "0x0.0p+0", ""),
        ("3x6", "robust"): ("Frequency", [((1, 0), (0, 1), 1.25), ((0, 1), (1, 0), 2.125)], "0x0.0p+0", ""),
    }

    @pytest.mark.parametrize("mode", ["single", "robust"])
    @pytest.mark.parametrize("name", list(_NARROW))
    def test_narrow_windows(self, name, mode):
        # pinned reports on windows too narrow for some six-point stencils;
        # an empty kernel has no denominator, so robust mode must not take it
        # for an axis whose every denominator is non-zero
        s, alpha = self._NARROW[name]
        want = self._NARROW_REPORTS[name, mode]
        if isinstance(want, str):
            with pytest.raises(InputError, match=f"^{re.escape(want)}$"):
                detect(s, alpha, mode=mode)
            return
        rep = detect(s, alpha, mode=mode)
        ests = [(x.axis, (x.step_used.dx, x.step_used.dy), x.value) for x in rep.estimates]
        assert (rep.classification.value, ests, rep.residual.hex(), rep.reason) == want


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


def _non_real_rate_grid(level):
    """12x12 samples of exp((0.3 + 0.4i) x + 0.5 y) from index (0, 0): the x
    rate is neither real nor imaginary, so cosh of it, at any step, is not
    real."""
    z = np.arange(12) * 2.0**-level
    return GridSamples(level, (0, 0), 12, 12, np.exp(np.add.outer(0.5 * z, (0.3 + 0.4j) * z)))


@pytest.mark.parametrize("mode", ["single", "robust"])
@pytest.mark.parametrize("level", range(13))
def test_non_real_cosh_is_inconsistent_in_both_modes(level, mode):
    # robust mode once took the median of the quotients' real parts alone,
    # and from level 8, where the residual no longer sees the imaginary part,
    # reported Frequency with an imaginary x rate
    rep = detect(_non_real_rate_grid(level), (4, 4), mode=mode)
    assert rep.classification is Classification.INCONSISTENT
    assert re.fullmatch(r"axis \(1, 0\): cosh estimate \(.*\) has a non-real part", rep.reason)


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
        f = ExponentialSum(((4.2, FrequencyVector(0.0, 0.0)),))
        s = sample(f, 0, (-2, -2), 7, 7)
        for e in [(1, 0), (0, 1)]:
            for step in _FALLBACK[e]:
                assert _quotient(s, (0, 0), e, step) is None
            base = (0 + e[0], 0 + e[1])
            probe = [s.value_at(base)] + [
                s.value_at((base[0] + st.dx, base[1] + st.dy))
                for st in _FALLBACK[e]
            ]
            assert max(abs(p - probe[0]) for p in probe) <= 1e-12 * s.max_abs()


def test_grid_at_a_numpy_integer_level_detects_as_at_its_int():
    f = ExponentialSum(((1.0, FrequencyVector(0.5, 0.0)),))
    values = sample(f, 2, (0, 0), 9, 9).values
    want = detect(GridSamples(2, (0, 0), 9, 9, values), (0, 0))
    assert detect(GridSamples(np.int64(2), (0, 0), 9, 9, values), (0, 0)) == want


class TestDetectUnivariate:
    def test_numpy_integer_level(self):
        v = np.exp(0.5 * 0.25 * np.arange(8))
        assert detect_univariate(v, np.int64(2), 1) == detect_univariate(v, 2, 1)

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

    @pytest.mark.parametrize("alpha", [0, 10, -3])
    def test_out_of_window_names_the_callers_base(self, alpha):
        # the stencil at alpha reads samples alpha - 1 .. alpha + 2, so 1 and
        # n - 3 are the ends of the window; flat data would read rate 0
        flat = [3.0] * 12
        want = rf"^the stencil at {alpha} leaves the sample window of 12 samples$"
        with pytest.raises(InputError, match=want):
            detect_univariate(flat, 2, alpha)
        assert detect_univariate(flat, 2, 1) == detect_univariate(flat, 2, 9) == Frequency(0.0)

    def test_refused_estimate_keeps_its_message_and_cause(self):
        # the differences overflow, so the quotient reads cosh inf, and the
        # rate Frequency refuses; the 1-D view raises that refusal itself
        want = r"^cosh estimate inf: frequency must be finite, got \(inf\+0j\)$"
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match=want) as info:
            detect_univariate([-1e308, 1e308, 1.5e308, 1.5e308], 0, 1)
        assert type(info.value.__cause__) is ValueError
        assert str(info.value.__cause__) == "frequency must be finite, got (inf+0j)"

    def test_overflowing_differences_refuse_without_a_warning(self):
        # sup 1.5e308 passes DBL_MAX/8, so the differences, one of which
        # overflows, run under np.errstate: the refusal, not numpy's warning
        want = r"^cosh estimate inf: frequency must be finite, got \(inf\+0j\)$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=want):
                detect_univariate([-1e308, 1e308, 1.5e308, 1.5e308], 0, 1)

    def test_overflowing_residual_on_a_small_sup_refuses_without_a_warning(self):
        # sup 4 clears the bound, but the estimate c ~ 7.5e307 makes (|c| + 1) sup
        # pass it, so the residual runs under np.errstate and reads inf
        want = r"^rate \(709\.6016737502741\+0j\) leaves annihilator residual inf above 1\.000e-08$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=want):
                detect_univariate([-1.0, 1e-308, 3e-308, 2.0, 4.0], 0, 1)

    def test_estimate_not_above_minus_one_is_refused(self):
        with pytest.raises(NumericalError, match=r"^cosh estimate -1\.0 is not above -1$") as info:
            detect_univariate([1.0, -1.0, 1.0, -1.0], 0, 1)
        assert info.value.__cause__ is None

    def test_denominator_zero_non_constant(self):
        # f(a+1) == f(a) but the window is not constant
        f = [0.0, 1.0, 1.0, 5.0]
        with pytest.raises(NumericalError, match=r"^rate 0j leaves annihilator residual 8.000e-01 "):
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
        with pytest.raises(InputError, match="^need at least 4 samples, got 0$"):
            detect_univariate([], 0, 1)
        for level in (-1, 1075):
            with pytest.raises(ValueError, match=rf"^level must lie in 0\.\.1074, got {level}$"):
                detect_univariate([1.0, 2.0, 4.0, 8.0], level, 1)

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (3, 4)])
    def test_rejects_input_that_is_not_one_dimensional(self, shape):
        # a 3x4 array is not read as a 12-sample series
        f = (1 + np.cosh(0.5 * np.arange(12.0)))[: shape[0] * shape[1]].reshape(shape)
        msg = f"a series must be one-dimensional, got an array of shape {shape}"
        with pytest.raises(InputError, match=f"^{re.escape(msg)}$"):
            detect_univariate(f, 0, 1)

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
                (1.0, FrequencyVector(0.0, 0.0)),
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

    _OVERFLOWS = [
        # cosh 1e308 along y: 2c overflows, and 2c times a zero
        # denominator is NaN; x reads cosh 1 with residual 0
        ([-1e300, 0.0, 1e-8, 1e300, 1e300, 1e300], (1, 0)),
        # x is taken as zero with residual 0; y reads cosh -1/2, and
        # differences of +-1e308 overflow, so num - 2c den is inf - inf
        ([0.0, 0.0, 1.0, 0.0, -1e308, 1e308, -1e308, 1e308], (0, 0)),
    ]

    @pytest.mark.parametrize("mode", ["single", "robust"])
    @pytest.mark.parametrize("column, alpha", _OVERFLOWS)
    def test_nan_on_the_second_axis_alone_is_inconsistent(self, column, alpha, mode):
        # every column is the same, so only y can see the overflow
        vals = np.tile(np.array(column)[:, None], (1, 6))
        with np.errstate(all="ignore"):
            rep = detect(GridSamples(0, (0, 0), 6, len(column), vals.ravel()), alpha, mode=mode)
        assert rep.classification is Classification.INCONSISTENT
        assert not rep.residual <= DEFAULT_TOL_RES

    @pytest.mark.parametrize("mode", ["single", "robust"])
    @pytest.mark.parametrize("row, alpha", _OVERFLOWS)
    def test_nan_on_the_first_axis_is_inconsistent(self, row, alpha, mode):
        # the transposed grids: every row is the same, so x sees the overflow
        # and y reads residual 0, except in robust mode on the second grid,
        # where y's stencils, which difference along x, see it too
        vals = np.tile(np.array(row)[None, :], (6, 1))
        with np.errstate(all="ignore"):
            rep = detect(GridSamples(0, (0, 0), len(row), 6, vals.ravel()), alpha[::-1], mode=mode)
        assert rep.classification is Classification.INCONSISTENT
        assert not rep.residual <= DEFAULT_TOL_RES
        if mode == "single":
            assert math.isnan(rep.residual)

    def test_an_infinite_first_axis_residual_beats_a_finite_second(self):
        # robust mode on the first transposed grid: the median of x's quotients
        # is finite, and num - 2c den overflows to inf without a NaN; y reads
        # cosh 1 with residual 0
        row, alpha = self._OVERFLOWS[0]
        vals = np.tile(np.array(row)[None, :], (6, 1))
        with np.errstate(all="ignore"):
            rep = detect(GridSamples(0, (0, 0), len(row), 6, vals.ravel()), alpha[::-1], mode="robust")
        assert [e.axis for e in rep.estimates] == [(1, 0), (0, 1)]
        assert rep.estimates[1].value == 1.0
        assert rep.classification is Classification.INCONSISTENT
        assert rep.residual == math.inf


# --- scalar per-point reference for the array kernel ----------------------
#
# detect() as it was computed one point at a time before the array kernel:
# the quotient from value_at, the fallback loop and the per-point robust loop.


def test_overflowing_robust_quotient_refuses_without_a_warning():
    # a subnormal denominator overflows some quotients to inf: single mode
    # refuses its own inf quotient, robust mode takes the median with no
    # "overflow encountered in divide" warning and judges it as usual
    r = [-1.0, 1e-320, 3e-320, 2.0, 4.0, 7.0]
    s = GridSamples(0, (0, 0), 6, 3, r + [1.1 * v for v in r] + [1.3 * v for v in r])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single, robust = (detect(s, (0, 1), mode) for mode in ("single", "robust"))
    assert single.reason == "axis (1, 0): cosh estimate -inf is not above -1"
    assert robust.classification is Classification.INCONSISTENT
    assert robust.estimates[0].value == 1.125
    assert robust.reason == "annihilator residual 4.396e-02 exceeds 1.000e-08"


# From the least subnormal to past DBL_MAX / 2, where a difference overflows
_MAGNITUDES = (0.0, 1e-320, 3e-320, 1e-308, 1e-5, 1.0, 2.0, 7.0, 1e17, 1e300, 1e308, 1.7e308)


def _extreme_values(rng, n):
    """n samples of the magnitudes above with random signs; some draws are
    complex, and a few hold one NaN or infinity."""
    v = rng.choice(_MAGNITUDES, n) * rng.choice([-1.0, 1.0], n)
    if rng.random() < 0.3:
        v = v + 1j * rng.choice(_MAGNITUDES, n) * rng.choice([-1.0, 1.0], n)
    if rng.random() < 0.05:
        v[rng.integers(n)] = rng.choice([math.nan, math.inf, -math.inf])
    return v


def test_extreme_magnitude_windows_report_or_refuse_without_a_warning():
    # every call returns a report or raises one of the two documented kinds,
    # with numpy's warnings as errors: no warning and no other exception
    rng = np.random.default_rng(18)
    outcomes = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3000):
            w, h = (int(k) for k in rng.integers(1, 7, 2))
            values = _extreme_values(rng, w * h)
            s = GridSamples(0, (0, 0), w, h, values)
            alpha = (int(rng.integers(w)), int(rng.integers(h)))
            for mode in ("single", "robust"):
                try:
                    outcomes[mode, detect(s, alpha, mode).classification] += 1
                except (InputError, NumericalError):
                    outcomes[mode, "refused"] += 1
            if h == 1:
                try:
                    detect_univariate(values, 0, int(rng.integers(w)))
                    outcomes["univariate", "rate"] += 1
                except (InputError, NumericalError):
                    outcomes["univariate", "refused"] += 1
    # each call reaches reports and refusals both
    for kind in ("single", "robust"):
        assert outcomes[kind, Classification.INCONSISTENT] and outcomes[kind, "refused"], outcomes
    assert outcomes["univariate", "rate"] and outcomes["univariate", "refused"], outcomes


def _ref_diff(s, b, step):
    return s.value_at((b[0] + step.dx, b[1] + step.dy)) - s.value_at(b)


def _ref_flat(s, step):
    diffs = [
        abs(_ref_diff(s, (x, y), step))
        for y in range(s.origin[1], s.origin[1] + s.height)
        for x in range(s.origin[0], s.origin[0] + s.width)
        if s._contains(x + step.dx, y + step.dy)
    ]
    return not diffs or max(diffs) / s.max_abs() <= DEFAULT_TOL_RES


def _ref_estimate(s, a, e, step, flat=None, as_complex=complex):
    """The quotient at a, divided as ``as_complex`` divides: Python's complex
    for single mode, and for robust mode as numpy divides the samples."""
    d0, d1, d2 = (_ref_diff(s, (a[0] + k * e[0], a[1] + k * e[1]), step) for k in range(3))
    if d1 == 0 or (_ref_flat(s, step) if flat is None else flat):
        return None
    return CoshEstimate(e, complex(as_complex(d2 + d0) / (2.0 * as_complex(d1))), step)


def _ref_robust(s, e, steps):
    # numpy divides complex samples; real samples divide as floats, which
    # Python's complex division matches on operands with zero imaginary parts
    as_complex = np.complex128 if np.iscomplexobj(s.values) else complex
    ests = []
    for step in steps:
        flat = _ref_flat(s, step)
        for y in range(s.origin[1], s.origin[1] + s.height):
            for x in range(s.origin[0], s.origin[0] + s.width):
                try:
                    est = _ref_estimate(s, (x, y), e, step, flat, as_complex)
                except InputError:  # raised only by value_at, for a stencil off the window
                    continue
                if est is not None:
                    ests.append(est)
    if not ests:
        return None, 0
    # complex quotients ordered as numpy orders them, by real part and then
    # imaginary part; the list is taken twice, so its length is even
    ordered = sorted((est.value for est in ests), key=lambda v: (v.real, v.imag))
    k = len(ordered) // 2
    value = (ordered[k - 1] + ordered[k]) / 2 + 0.0  # detect reports +0.0
    return CoshEstimate(e, value, ests[0].step_used), len(ests)


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
            tried = (_ref_estimate(s, alpha, e, st) for st in _FALLBACK[e])
            est = next((t for t in tried if t is not None), None)
        else:
            steps = [IntegerStep(*p) for p in _REF_ROBUST_STEPS[e]]
            est, count = _ref_robust(s, e, steps)
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
    zero = FrequencyVector(0.0, 0.0)
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
    # 64²: the joined arrays robust mode divides and partitions in place pass
    # about 128 KB for complex samples
    for n in (24, 32, 40, 64):
        g = FrequencyVector(rng.uniform(0.1, 0.6), 1j * rng.uniform(0.1, 1.0))
        yield sample(random_symmetric_sum(rng, g), 3, (-n // 2, -n // 2), n, n)


def _real_part(s):
    return GridSamples(s.level, s.origin, s.width, s.height, s.values.real)


def _bits(x: float) -> str:
    return float(x).hex()


def _est_bits(est):
    v = est.value
    return est.axis, est.step_used, _bits(v.real), _bits(v.imag)


@pytest.mark.parametrize("mode", ["single", "robust"])
def test_detect_matches_scalar_reference_bitwise(mode):
    classes = set()
    for s in (g for c in _kernel_cases() for g in (c, _real_part(c))):
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
            diffs = _Differences(s.values, s.origin, s.max_abs())
            steps = _FALLBACK[e]
            live = [_six_point(diffs[st], e) for st in steps if not _flat(diffs, st)]
            assert 2 * sum(int(np.sum(k[1] != 0)) for k in live) == count
    assert Classification.FREQUENCY in classes


def _integer_windows():
    # small integer values, so many differences, and many denominators, are
    # exactly zero; every fourth window is complex
    rng = np.random.default_rng(24)
    for k in range(200):
        w, h = (int(n) for n in rng.integers(2, 9, 2))
        vals = rng.integers(-1, 2, (h, w)) * rng.integers(0, 2, (h, w)) + 2
        if k % 4 == 0:
            vals = vals + 1j * rng.integers(-1, 2, (h, w))
        yield GridSamples(int(k % 3), (int(rng.integers(-3, 4)), int(rng.integers(-3, 4))), w, h, vals)
    # x's first step (0, 1) varies only in column 0, which no x denominator
    # reads: it is not flat, but every denominator along it is zero
    x, y = np.arange(6.0), np.arange(5.0)
    yield GridSamples(0, (0, 0), 6, 5, x[None, :] ** 2 + np.where(x == 0, y[:, None], 0.0))


def test_robust_masked_path_matches_scalar_reference_bitwise():
    masked = 0
    for s in _integer_windows():
        alpha = (s.origin[0] + s.width // 2 - 1, s.origin[1] + s.height // 2 - 1)
        rep = detect(s, alpha, mode="robust")
        cls, freq, ests, residual, _, _ = _ref_detect(s, alpha, "robust")
        assert rep.classification is cls
        assert rep.frequency == freq
        assert [_est_bits(x) for x in rep.estimates] == [_est_bits(x) for x in ests]
        if math.isnan(residual):
            assert math.isnan(rep.residual)
        else:
            assert abs(rep.residual - residual) <= 4 * math.ulp(residual)
        diffs = _Differences(s.values, s.origin, s.max_abs())
        for e in ((1, 0), (0, 1)):
            dens = [_six_point(diffs[st], e)[1] for st in _FALLBACK[e] if not _flat(diffs, st)]
            masked += any(d.any() for d in dens) and not all(d.all() for d in dens)
    assert masked >= 100, masked
    assert (rep.estimates[0].axis, rep.estimates[0].step_used) == ((1, 0), IntegerStep(1, 1))


def _report_bits(rep):
    freq = rep.frequency and [_bits(x) for v in rep.frequency.as_pair() for x in (v.real, v.imag)]
    ests = [_est_bits(x) for x in rep.estimates]
    return rep.classification, freq, ests, _bits(rep.residual), rep.reason


def test_single_mode_same_bits_for_real_and_complex_storage():
    # the same real grid stored as float64 and as complex128: single mode
    # divides as Python's complex and judges by |.|, exact on zero imaginary parts
    for c in _kernel_cases():
        r = _real_part(c)
        z = GridSamples(r.level, r.origin, r.width, r.height, r.values.astype(np.complex128))
        assert (r.values.dtype, z.values.dtype) == (np.float64, np.complex128)
        centre = (r.origin[0] + r.width // 2 - 1, r.origin[1] + r.height // 2 - 1)
        for alpha in (centre, r.origin):
            try:
                want = _report_bits(detect(z, alpha))
            except InputError as exc:
                with pytest.raises(InputError, match=re.escape(str(exc))):
                    detect(r, alpha)
                continue
            assert _report_bits(detect(r, alpha)) == want


@pytest.mark.parametrize("mode", ["single", "robust"])
@pytest.mark.parametrize("kind", ["frequency", "constant"])
def test_each_difference_taken_once(mode, kind, monkeypatch):
    # both axes share each step's differences D, and an axis taken as zero
    # reuses D of its unit step; the step (1, 1) serves both axes
    from expann import detection

    if kind == "frequency":
        grid = _symmetric_samples(FrequencyVector(0.8, 0.3j), 2)[1]
    else:
        grid = GridSamples(0, (0, 0), 6, 6, np.full(36, 3.0))
    taken = Counter()
    missing = detection._Differences.__missing__

    def counting(diffs, step):
        if diffs.values is grid.values:
            taken[step.dx, step.dy] += 1
        return missing(diffs, step)

    monkeypatch.setattr(detection._Differences, "__missing__", counting)
    rep = detect(grid, (1, 1), mode=mode)
    assert rep.classification is (
        Classification.FREQUENCY if kind == "frequency" else Classification.CONSTANT
    )
    assert max(taken.values()) == 1
    if mode == "robust" or kind == "constant":
        assert taken[1, 1] == 1


@pytest.mark.parametrize("kind", ["frequency", "masked"])
def test_robust_detect_partitions_in_place(kind, monkeypatch):
    # robust mode divides and takes its median in the arrays it joined, so
    # np.partition, which copies its argument first, is never called
    def refuse(*args, **kwargs):
        raise AssertionError("np.partition copies its argument")

    if kind == "frequency":
        grid = _symmetric_samples(FrequencyVector(0.8, 0.3j), 2)[1]
    else:  # some denominator is exactly zero, so the quotients are masked first
        grid = list(_integer_windows())[-1]
    monkeypatch.setattr(np, "partition", refuse)
    rep = detect(grid, (grid.origin[0] + 1, grid.origin[1] + 1), mode="robust")
    assert rep.estimates


def _sorted_median(x):
    s, k = np.sort(x), x.size // 2
    return s[k].item() if x.size % 2 else (s[k - 1].item() + s[k].item()) / 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 51])
def test_median_matches_sorted_reference(n):
    rng = np.random.default_rng(n)
    re_ = rng.normal(size=n)
    # few distinct real parts, so equal real parts are ordered by imaginary part
    ties = rng.integers(-2, 3, n) + 1j * rng.normal(size=n)
    with_nan = re_.copy()
    with_nan[n // 2] = math.nan
    cnan = ties.copy()
    cnan[0] = complex(math.nan, 1.0)
    for x in (re_, re_ + 1j * rng.normal(size=n), ties, ties.real.copy(), with_nan, cnan):
        want = _sorted_median(x)
        got = _median(x.copy())
        assert type(got) is type(want)
        assert repr(got) == repr(want)
    assert _median(np.array([1.0 + 2j, 1.0 - 1j, 1.0 + 0.5j])) == 1.0 + 0.5j
    assert _median(np.array([1.0 + 3j, 1.0 - 1j])) == 1.0 + 1j


def test_residual_taken_only_where_a_difference_cannot_decide(monkeypatch):
    # on the frequency grid above, the first difference that each call reads
    # of a step's D shows that the window is not flat along it, so only the
    # annihilator outputs are reduced: one per axis, and one for a series.
    # On the constant grid no difference decides: each D an axis reads is
    # reduced, and none twice
    from expann import detection

    grid = _symmetric_samples(FrequencyVector(0.8, 0.3j), 2)[1]
    constant = GridSamples(0, (0, 0), 6, 6, np.full(36, 3.0))
    reduced = []
    residual = detection._residual

    def counting(out, sup):
        reduced.append(out)
        return residual(out, sup)

    monkeypatch.setattr(detection, "_residual", counting)
    for mode in ("single", "robust"):
        reduced.clear()
        assert detect(grid, (1, 1), mode=mode).classification is Classification.FREQUENCY
        assert len(reduced) == 2, mode
        reduced.clear()
        assert detect(constant, (1, 1), mode=mode).classification is Classification.CONSTANT
        assert len(reduced) == (2 if mode == "single" else 3), mode
        assert len({id(d) for d in reduced}) == len(reduced) and not any(d.any() for d in reduced)
    reduced.clear()
    assert abs(detect_univariate(grid.values[0], grid.level, 1).value - 0.8) <= 1e-12
    assert len(reduced) == 1


@hst.composite
def _flat_cases(draw):
    """Differences D, real or complex and possibly empty, and a sup, with
    parts drawn from zeros, subnormals, NaN, infinities and magnitudes within
    two ulps of where |part| / sup crosses DEFAULT_TOL_RES."""
    sup = draw(
        hst.sampled_from([0.0, 5e-324, 1e-300, 1.0, 3.0, 1e300, math.inf, math.nan])
        | hst.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    )
    lo = hi = DEFAULT_TOL_RES * sup
    near = [lo]
    for _ in range(2):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        near += [lo, hi]
    magnitude = hst.sampled_from([0.0, 5e-324, 2.2e-308, math.nan, math.inf, *near]) | hst.floats(
        min_value=0.0, allow_nan=False, allow_infinity=False
    )
    part = hst.builds(lambda m, negative: -m if negative else m, magnitude, hst.booleans())
    # a complex modulus near the threshold, split between the two parts
    turned = hst.builds(
        lambda m, t: complex(m * math.cos(t), m * math.sin(t)),
        hst.sampled_from(near), hst.floats(0.0, math.pi / 2),
    )
    kind = draw(hst.sampled_from([np.float64, np.complex128]))
    value = part if kind is np.float64 else hst.builds(complex, part, part) | turned
    rows, cols = draw(hst.integers(0, 3)), draw(hst.integers(0, 3))
    d = np.array(draw(hst.lists(value, min_size=rows * cols, max_size=rows * cols)), dtype=kind)
    return d.reshape(rows, cols), sup


@settings(max_examples=400, deadline=None)
@given(_flat_cases())
@example((np.empty((0, 3)), 1.0))
@example((np.zeros((2, 2)), 0.0))
@example((np.array([[math.nan, 1.0]]), 1.0))
@example((np.array([[1e-8, -1e-8j]]), 1.0))
def test_probe_first_flatness_matches_the_residual_test(case):
    # the verdict is the residual test's, whichever difference of D is the
    # probe, and with the default probe, D's first difference
    d, sup = case
    step = IntegerStep(0, 1)
    want = (_residual(d, sup) if d.size else 0.0) <= DEFAULT_TOL_RES
    for probe in (None, *d.flat):
        diffs = _Differences(np.zeros((1, 1)), (0, 0), sup)
        diffs[step] = d
        assert _flat(diffs, step, probe) == want, probe
