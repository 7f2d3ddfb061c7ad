import cmath
import math
from collections import Counter

import numpy as np
import pytest

from expann.errors import EmptyWindowError
from expann.expspace import (
    ExponentialSum,
    FrequencySet,
    FrequencyVector,
    GridSamples,
    sample,
    symmetric_set,
)
from expann.operators import (
    AnnihilatorChain,
    Direction,
    IntegerStep,
    annihilates,
    chain_apply,
    chain_offsets,
    delta_apply_grid,
    delta_apply_sum,
    diff_apply,
    grid_residual,
    reduced_chain_for_symmetric_set,
)
from expann.oracle import SplitMix64, random_frequency_vector


def _coeff_map(f: ExponentialSum) -> dict:
    return {g.as_pair(): c for c, g in f.terms}


def _coeffs_close(a: ExponentialSum, b: ExponentialSum, rel: float) -> bool:
    ma, mb = _coeff_map(a), _coeff_map(b)
    scale = max(a.max_coefficient(), b.max_coefficient(), 1e-300)
    keys = set(ma) | set(mb)
    return all(abs(ma.get(k, 0j) - mb.get(k, 0j)) <= rel * scale for k in keys)


class TestDirection:
    def test_normalizes(self):
        d = Direction(3.0, 4.0)
        assert d.x == pytest.approx(0.6) and d.y == pytest.approx(0.8)
        assert d.magnitude == 5.0
        assert math.hypot(d.x, d.y) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Direction(0.0, 0.0)

    def test_perp(self):
        d = Direction(1.0, 0.0)
        assert (d.perp().x, d.perp().y) == (0.0, 1.0)


class TestIntegerStep:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            IntegerStep(0, 0)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            IntegerStep(0.5, 1)

    def test_views(self):
        s = IntegerStep(3, -4)
        assert s.t == 5.0
        assert s.v.x == pytest.approx(0.6) and s.v.y == pytest.approx(-0.8)


class TestDiffApply:
    def test_matching_rate_annihilates(self):
        g = FrequencyVector.of(0.7, 0.2j)
        f = ExponentialSum.single(3.0, g)
        assert diff_apply(g, Direction(0.3, 0.9), f).is_zero()

    def test_unit_axis(self):
        f = ExponentialSum.single(1.0, FrequencyVector.of(1.0, 0.0))
        out = diff_apply(FrequencyVector.zero(), Direction(1.0, 0.0), f)
        assert out.terms[0][0] == 1.0

    def test_diagonal(self):
        f = ExponentialSum.single(1.0, FrequencyVector.of(1.0, 1.0))
        out = diff_apply(FrequencyVector.zero(), Direction(1.0, 1.0), f)
        assert out.terms[0][0] == pytest.approx(1.4142135623730951, rel=1e-15)

    def test_scaling_invariance(self):
        # unnormalized action is |w| times the unit-direction action, termwise
        rng = SplitMix64(11)
        for _ in range(10):
            g = random_frequency_vector(rng)
            mu = random_frequency_vector(rng)
            f = ExponentialSum.single(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), mu)
            wx, wy = rng.uniform(-3, 3), rng.uniform(0.1, 3)
            raw = f.map_coefficients(
                lambda c, m: c
                * ((m.g1.value - g.g1.value) * wx + (m.g2.value - g.g2.value) * wy)
            )
            unit = diff_apply(g, Direction(wx, wy), f)
            scaled = (1.0 / math.hypot(wx, wy)) * raw
            assert _coeffs_close(unit, scaled, 1e-13)

    def test_single_frequency_kernel_both_directions(self):
        g = FrequencyVector.of(0.9, 0.4)
        f = ExponentialSum.single(2.5, g)
        v = Direction(2.0, 1.0)
        assert diff_apply(g, v, f).is_zero()
        assert diff_apply(g, v.perp(), f).is_zero()

    def test_extra_terms_escape_single_factor(self):
        # among representable sums, only the pure g-exponential is killed by
        # both v and v-perp when g.v and g.v_perp are nonzero
        g = FrequencyVector.of(0.9, 0.4)
        v = Direction(2.0, 1.0)
        rng = SplitMix64(23)
        for _ in range(10):
            mu = random_frequency_vector(rng)
            if mu.as_pair() == g.as_pair():
                continue
            f = ExponentialSum(((1.0, g), (1.0, mu)))
            both_zero = diff_apply(g, v, f).is_zero() and diff_apply(g, v.perp(), f).is_zero()
            assert not both_zero


class TestDeltaApplySum:
    def test_matching_rate_annihilates(self):
        g = FrequencyVector.of(0.4, 1.1j)
        f = ExponentialSum.single(2.0, g)
        assert delta_apply_sum(g, IntegerStep(2, -1), f).is_zero()

    def test_constant_term_weight(self):
        f = ExponentialSum.single(1.0, FrequencyVector.zero())
        out = delta_apply_sum(FrequencyVector.of(1.0, 0.0), IntegerStep(1, 0), f)
        assert out.terms[0][0] == pytest.approx(-1.718281828459045, rel=1e-15)

    def test_sinh_identity(self):
        f = ExponentialSum.single(1.0, FrequencyVector.of(0.5, 0.0))
        out = delta_apply_sum(FrequencyVector.of(-0.5, 0.0), IntegerStep(2, 0), f)
        assert out.terms[0][0] == pytest.approx(2.3504023872876028, rel=1e-15)


class TestDeltaApplyGrid:
    def test_constant_zero(self):
        f = ExponentialSum.single(4.0, FrequencyVector.zero())
        s = sample(f, 0, (0, 0), 5, 5)
        out = delta_apply_grid(FrequencyVector.zero(), IntegerStep(1, 1), s)
        assert np.all(out.values == 0)
        assert out.width == 4 and out.height == 4

    def test_factor_identity(self):
        f = ExponentialSum.single(1.0, FrequencyVector.of(0.6, 0.4))
        s = sample(f, 0, (0, 0), 4, 5)
        out = delta_apply_grid(FrequencyVector.zero(), IntegerStep(0, 1), s)
        factor = math.exp(0.4) - 1.0
        for alpha in out.indices():
            assert out.value_at(alpha) == pytest.approx(factor * s.value_at(alpha), rel=1e-14)

    def test_matching_rate_annihilates(self):
        g = FrequencyVector.of(0.8, 0.3j)
        f = ExponentialSum.single(1.0, g)
        s = sample(f, 1, (-2, -2), 6, 6)
        for tv in [(1, 0), (0, 1), (2, -1)]:
            out = delta_apply_grid(g, IntegerStep(*tv), s)
            assert out.max_abs() <= 1e-13 * s.max_abs()

    def test_negative_step_window(self):
        s = sample(ExponentialSum.single(1.0, FrequencyVector.of(0.2, 0.0)), 0, (0, 0), 4, 4)
        out = delta_apply_grid(FrequencyVector.zero(), IntegerStep(-1, -2), s)
        assert out.origin == (1, 2)
        assert out.width == 3 and out.height == 2
        assert out.value_at((1, 2)) == pytest.approx(s.value_at((0, 0)) - s.value_at((1, 2)))

    def test_empty_window(self):
        s = sample(ExponentialSum.single(1.0, FrequencyVector.zero()), 0, (0, 0), 3, 3)
        with pytest.raises(EmptyWindowError):
            delta_apply_grid(FrequencyVector.zero(), IntegerStep(3, 0), s)

    def test_level_scaling(self):
        # at level k the weight uses the physical step 2^-k tv
        g = FrequencyVector.of(1.2, 0.0)
        f = ExponentialSum.single(1.0, g)
        s = sample(f, 2, (0, 0), 5, 2)
        out = delta_apply_grid(g, IntegerStep(1, 0), s)
        assert out.max_abs() <= 1e-14 * s.max_abs()


class TestChains:
    def test_chain_over_set_annihilates_exactly(self):
        gam = symmetric_set(FrequencyVector.of(0.8, 0.3))
        rng = SplitMix64(5)
        f = ExponentialSum(tuple((rng.uniform(-5, 5), m) for m in gam))
        chain = AnnihilatorChain.over_set(gam, IntegerStep(1, 1))
        assert chain_apply(chain, f).is_zero()

    def test_univariate_embedding(self):
        f = ExponentialSum(
            (
                (1.0, FrequencyVector.zero()),
                (1.0, FrequencyVector.of(0.9, 0.0)),
                (1.0, FrequencyVector.of(-0.9, 0.0)),
            )
        )
        s = sample(f, 0, (0, 0), 8, 1)
        chain = AnnihilatorChain.discrete(
            (
                (FrequencyVector.zero(), IntegerStep(1, 0)),
                (FrequencyVector.of(0.9, 0.0), IntegerStep(1, 0)),
                (FrequencyVector.of(-0.9, 0.0), IntegerStep(1, 0)),
            )
        )
        out = chain_apply(chain, s)
        assert out.max_abs() <= 1e-12 * s.max_abs()

    def test_product_formula_for_nonmember(self):
        gam = symmetric_set(FrequencyVector.of(0.8, 0.3))
        mu = FrequencyVector.of(0.37, 0.61)
        f = ExponentialSum.single(1.0, mu)
        steps = [IntegerStep(1, 0), IntegerStep(0, 1), IntegerStep(1, 1),
                 IntegerStep(-1, 1), IntegerStep(2, 1)]
        expected = 1.0
        for g, s in zip(gam, steps):
            expected *= cmath.exp(mu.dot(s.dx, s.dy)) - cmath.exp(g.dot(s.dx, s.dy))
        assert abs(expected) > 1e-6
        for container in (list, tuple):  # any sequence of steps, not only a list
            out = chain_apply(AnnihilatorChain.over_set(gam, container(steps)), f)
            assert len(out.terms) == 1
            assert out.terms[0][0] == pytest.approx(expected, rel=1e-13)

    def test_grid_matches_sum_route(self):
        # applying the chain to samples equals sampling the chained sum
        g = FrequencyVector.of(0.5, 0.25j)
        gam = symmetric_set(g)
        rng = SplitMix64(9)
        f = ExponentialSum(tuple((rng.uniform(-2, 2), m) for m in gam))
        extra = ExponentialSum.single(0.7, FrequencyVector.of(0.15, 0.0))
        f = f + extra
        chain = AnnihilatorChain.discrete(
            ((g, IntegerStep(1, 0)), (-g, IntegerStep(0, 1)))
        )
        s = sample(f, 0, (0, 0), 6, 6)
        grid_out = chain_apply(chain, s)
        sum_out = chain_apply(chain, f)
        direct = sample(sum_out, 0, grid_out.origin, grid_out.width, grid_out.height)
        assert np.allclose(grid_out.values, direct.values, rtol=1e-12, atol=1e-12)


def _reference_chain(factors, s: GridSamples) -> GridSamples:
    """The per-factor grid loop the array kernel replaced: every factor
    slices its input window by hand and wraps its output in a new
    ``GridSamples``."""
    out = s
    for gamma, step in factors:
        if not isinstance(step, IntegerStep):
            raise TypeError("differential factors cannot act on grid samples")
        dx, dy = step.dx, step.dy
        w, h = out.width - abs(dx), out.height - abs(dy)
        if w <= 0 or h <= 0:
            raise EmptyWindowError(
                f"step ({dx}, {dy}) exhausts a {out.width}x{out.height} window"
            )
        c, r = max(-dx, 0), max(-dy, 0)
        shifted = out.values[r + dy : r + dy + h, c + dx : c + dx + w]
        base = out.values[r : r + h, c : c + w]
        weight = cmath.exp(gamma.dot(dx * out.spacing, dy * out.spacing))
        origin = (out.origin[0] + c, out.origin[1] + r)
        out = GridSamples(out.level, origin, w, h, shifted - weight * base)
    return out


def _reference_residual(factors, s: GridSamples) -> float:
    denom = float(np.max(np.abs(s.values)))
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(_reference_chain(factors, s).values))) / denom


def _random_rate(rng) -> complex:
    kind = rng.integers(3)
    if kind == 0:
        return 0.0
    return rng.uniform(-3.0, 3.0) if kind == 1 else 1j * rng.uniform(-3.1, 3.1)


def _random_values(rng, n: int) -> np.ndarray:
    """Complex samples, with some parts exactly +0.0 or -0.0."""
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    vals *= 10.0 ** rng.uniform(-3, 3, n)
    re, im = vals.real.copy(), vals.imag.copy()
    for part in (re, im):
        signed_zero = rng.random(n) < 0.15
        part[signed_zero] = np.where(rng.random(n) < 0.5, 0.0, -0.0)[signed_zero]
    if rng.random() < 0.2:
        im[:] = 0.0  # a real-valued grid
    return re + 1j * im


def _random_grid(rng) -> GridSamples:
    w, h = int(rng.integers(1, 17)), int(rng.integers(1, 17))
    origin = (int(rng.integers(-20, 21)), int(rng.integers(-20, 21)))
    return GridSamples(int(rng.integers(0, 9)), origin, w, h, _random_values(rng, w * h))


def _random_factors(rng):
    factors = []
    for _ in range(rng.integers(1, 6)):
        dx, dy = 0, 0
        while dx == 0 and dy == 0:
            dx, dy = (int(k) for k in rng.integers(-2, 3, 2))
        g = FrequencyVector.of(_random_rate(rng), _random_rate(rng))
        factors.append((g, IntegerStep(dx, dy)))
    return tuple(factors)


def _same_grid(a: GridSamples, b: GridSamples) -> bool:
    return (
        (a.level, a.origin, a.width, a.height) == (b.level, b.origin, b.width, b.height)
        and np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))
    )


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


class TestArrayKernelMatchesFactorLoop:
    """``chain_apply``, ``delta_apply_grid`` and ``grid_residual`` run every
    factor on the raw sample array; the per-factor loop is the reference."""

    def test_chains_bitwise(self):
        rng = np.random.default_rng(17)
        outcomes = Counter()
        for _ in range(600):
            s, factors = _random_grid(rng), _random_factors(rng)
            chain = AnnihilatorChain(factors)
            try:
                want = _reference_chain(factors, s)
            except EmptyWindowError as exc:
                for fn in (chain_apply, grid_residual):
                    with pytest.raises(EmptyWindowError) as got:
                        fn(chain, s)
                    assert str(got.value) == str(exc)
                outcomes["exhausted"] += 1
                continue
            assert _same_grid(chain_apply(chain, s), want), (factors, s)
            assert _bits(grid_residual(chain, s)) == _bits(_reference_residual(factors, s))
            outcomes[len(factors)] += 1
        assert outcomes["exhausted"] > 50
        assert all(outcomes[n] > 30 for n in range(1, 6)), outcomes

    def test_single_factor_bitwise(self):
        rng = np.random.default_rng(18)
        compared = 0
        for _ in range(300):
            s = _random_grid(rng)
            (g, step), = _random_factors(rng)[:1]
            try:
                want = _reference_chain(((g, step),), s)
            except EmptyWindowError:
                with pytest.raises(EmptyWindowError):
                    delta_apply_grid(g, step, s)
                continue
            assert _same_grid(delta_apply_grid(g, step, s), want)
            assert _same_grid(delta_apply_grid(g, step.as_tuple(), s), want)
            compared += 1
        assert compared > 200

    def test_signed_zero_grids(self):
        chain = AnnihilatorChain.discrete(
            ((FrequencyVector.of(0.5, 0.0), (1, 0)), (FrequencyVector.of(0.0, 1j), (-1, 1)))
        )
        for v in (0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            s = GridSamples(3, (0, 0), 4, 4, np.full(16, v, dtype=np.complex128))
            assert _same_grid(chain_apply(chain, s), _reference_chain(chain.factors, s))
            assert grid_residual(chain, s) == 0.0

    def test_later_factor_exhausting_the_window(self):
        s = GridSamples(0, (0, 0), 4, 3, np.arange(12.0))
        g = FrequencyVector.of(0.3, 0.0)
        chain = AnnihilatorChain.discrete(((g, (1, 0)), (g, (2, 0)), (g, (1, 1))))
        for fn in (chain_apply, grid_residual):
            with pytest.raises(EmptyWindowError, match=r"^step \(1, 1\) exhausts a 1x3 window$"):
                fn(chain, s)

    def test_direction_factor_on_grid(self):
        s = GridSamples(0, (0, 0), 4, 4, np.arange(16.0))
        g = FrequencyVector.of(0.3, 0.0)
        for chain in (
            AnnihilatorChain(((g, Direction(1.0, 0.0)),)),
            AnnihilatorChain(((g, IntegerStep(1, 0)), (g, Direction(0.0, 1.0)))),
        ):
            for fn in (chain_apply, grid_residual):
                with pytest.raises(
                    TypeError, match="^differential factors cannot act on grid samples$"
                ):
                    fn(chain, s)

    def test_grid_objects_built(self, monkeypatch):
        s = GridSamples(0, (0, 0), 9, 9, np.arange(81.0))
        chain = reduced_chain_for_symmetric_set(FrequencyVector.of(0.8, 0.3), (1, 0), (1, 1))
        built = []
        post_init = GridSamples.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(GridSamples, "__post_init__", counting)
        grid_residual(chain, s)
        assert built == []
        chain_apply(chain, s)
        assert len(built) == 1


class TestAnnihilates:
    def test_member(self):
        gam = symmetric_set(FrequencyVector.of(1.2, 0.4j))
        f = ExponentialSum(tuple((1.0, m) for m in gam))
        chain = AnnihilatorChain.over_set(gam, IntegerStep(1, 1))
        assert annihilates(chain, f)

    def test_nonmember(self):
        gam = symmetric_set(FrequencyVector.of(1.2, 0.4j))
        f = ExponentialSum.single(1.0, FrequencyVector.of(0.3, 0.9))
        chain = AnnihilatorChain.over_set(gam, IntegerStep(1, 1))
        assert not annihilates(chain, f)

    def test_degenerate_step_false_positive(self):
        # a single factor can kill a non-matching exponential when the rate
        # difference is orthogonal to the step: annihilation along one
        # direction does not certify membership
        g = FrequencyVector.of(0.5, 0.0)
        mu = FrequencyVector.of(0.5, 0.8)  # mu - g orthogonal to (1, 0)
        f = ExponentialSum.single(1.0, mu)
        chain = AnnihilatorChain.discrete(((g, IntegerStep(1, 0)),))
        assert annihilates(chain, f)
        assert mu.as_pair() != g.as_pair()


class TestGridResidual:
    def test_member_small(self):
        g = FrequencyVector.of(0.8, 0.3)
        gam = symmetric_set(g)
        f = ExponentialSum(tuple((1.0, m) for m in gam))
        s = sample(f, 0, (0, 0), 9, 9)
        chain = AnnihilatorChain.over_set(gam, IntegerStep(1, 1))
        assert grid_residual(chain, s) <= 1e-11

    def test_perturbed_large(self):
        g = FrequencyVector.of(0.8, 0.3)
        gam = symmetric_set(g)
        f = ExponentialSum(tuple((1.0, m) for m in gam))
        f = f + ExponentialSum.single(1.0, FrequencyVector.of(0.37, 0.61))
        s = sample(f, 0, (0, 0), 9, 9)
        chain = AnnihilatorChain.over_set(gam, IntegerStep(1, 1))
        assert grid_residual(chain, s) > 1e-3

    def test_zero_grid(self):
        from expann.expspace import GridSamples

        s = GridSamples(0, (0, 0), 5, 5, np.zeros(25))
        chain = AnnihilatorChain.discrete(((FrequencyVector.zero(), IntegerStep(1, 0)),))
        assert grid_residual(chain, s) == 0.0


class TestReducedChain:
    def test_annihilates_all_members_symbolically(self):
        g = FrequencyVector.of(0.8, 0.3)
        chain = reduced_chain_for_symmetric_set(g, (1, 0), IntegerStep(1, 1))
        for m in symmetric_set(g):
            basis = ExponentialSum.single(1.0, m)
            out = chain_apply(chain, basis)
            assert out.max_coefficient() <= 1e-14

    def test_annihilates_on_both_axes(self):
        g = FrequencyVector.of(0.6, 1.1j)
        gam = symmetric_set(g)
        rng = SplitMix64(31)
        f = ExponentialSum(tuple((rng.uniform(-3, 3), m) for m in gam))
        s = sample(f, 1, (-3, -3), 9, 9)
        for e in [(1, 0), (0, 1)]:
            chain = reduced_chain_for_symmetric_set(g, e, IntegerStep(1, 1))
            assert grid_residual(chain, s) <= 1e-11

    def test_footprint_at_most_six(self):
        g = FrequencyVector.of(0.8, 0.3)
        for extra in [IntegerStep(1, 1), IntegerStep(-1, 0), IntegerStep(0, -1)]:
            for e in [(1, 0), (0, 1)]:
                chain = reduced_chain_for_symmetric_set(g, e, extra)
                offs = chain_offsets(chain)
                assert len(offs) <= 6
                predicted = {
                    (lam * extra.dx + mu * e[0], lam * extra.dy + mu * e[1])
                    for lam in (0, 1)
                    for mu in (0, 1, 2)
                }
                assert set(offs) == predicted

    def test_collapse_case(self):
        g = FrequencyVector.of(0.7, 0.0)
        chain = reduced_chain_for_symmetric_set(g, (0, 1), IntegerStep(1, 1))
        for m in symmetric_set(g):
            assert chain_apply(chain, ExponentialSum.single(1.0, m)).is_zero()


class TestSymmetryIdentities:
    def test_axis_weights_coincide_bitwise(self):
        rng = SplitMix64(17)
        for _ in range(20):
            g = random_frequency_vector(rng)
            f = ExponentialSum(tuple((rng.uniform(-4, 4), m) for m in symmetric_set(g)))
            level = rng.below(3)
            s = sample(f, level, (-2, -2), 6, 6)
            gm = g.mirror()
            ex, ey = IntegerStep(1, 0), IntegerStep(0, 1)
            pairs = [
                (g, gm, ex),      # rates g and mirror(g) along x
                (g, -gm, ey),     # rates g and -mirror(g) along y
                (-g, -gm, ex),
                (-g, gm, ey),
            ]
            for ga, gb, step in pairs:
                out_a = delta_apply_grid(ga, step, s)
                out_b = delta_apply_grid(gb, step, s)
                assert np.array_equal(out_a.values, out_b.values)


class TestCommutativity:
    def test_delta_factors_commute(self):
        rng = SplitMix64(41)
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
            assert _coeffs_close(ab, ba, 1e-13)

    def test_diff_and_delta_commute(self):
        rng = SplitMix64(43)
        for _ in range(10):
            g = random_frequency_vector(rng)
            mu = random_frequency_vector(rng)
            d = Direction(rng.uniform(-1, 1), rng.uniform(0.1, 1))
            step = IntegerStep(1, rng.below(3) - 1)
            f = ExponentialSum(
                tuple((rng.uniform(-3, 3), random_frequency_vector(rng)) for _ in range(3))
            )
            ab = diff_apply(g, d, delta_apply_sum(mu, step, f))
            ba = delta_apply_sum(mu, step, diff_apply(g, d, f))
            assert _coeffs_close(ab, ba, 1e-13)


def _random_distinct_set(rng, n):
    while True:
        members = [random_frequency_vector(rng) for _ in range(n)]
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                d1 = members[i].g1.value - members[j].g1.value
                d2 = members[i].g2.value - members[j].g2.value
                if math.hypot(abs(d1), abs(d2)) < 0.1:
                    ok = False
        if ok:
            return FrequencySet(tuple(members))


class TestDiscreteCharacterization:
    def test_members_annihilated_nonmembers_not(self):
        rng = SplitMix64(301)
        for trial in range(6):
            n = 2 + rng.below(4)  # 2..5 frequencies
            gam = _random_distinct_set(rng, n)
            f = ExponentialSum(tuple((rng.uniform(0.5, 3) * rng.sign(), m) for m in gam))
            tuples = []
            for _ in range(20):
                steps = [
                    IntegerStep(rng.below(7) - 3 or 1, rng.below(7) - 3)
                    for _ in range(n)
                ]
                tuples.append(steps)
            for steps in tuples:
                chain = AnnihilatorChain.over_set(gam, steps)
                assert annihilates(chain, f)
            # a generic extra exponential escapes at least one sampled tuple
            mu = random_frequency_vector(rng)
            if any(mu.as_pair() == m.as_pair() for m in gam):
                continue
            basis = ExponentialSum.single(1.0, mu)
            escaped = any(
                not annihilates(AnnihilatorChain.over_set(gam, steps), basis)
                for steps in tuples
            )
            assert escaped


class TestDiscreteDifferentialConsistency:
    def test_both_routes_agree(self):
        rng = SplitMix64(59)
        for _ in range(8):
            g = random_frequency_vector(rng)
            gam = symmetric_set(g)
            member = ExponentialSum(tuple((rng.uniform(-2, 2), m) for m in gam))
            outsider = member + ExponentialSum.single(
                1.0, FrequencyVector.of(0.29, 0.53)
            )
            diff_chains = []
            delta_chains = []
            for _ in range(15):
                dirs = [
                    Direction(rng.uniform(-1, 1), rng.uniform(-1, 1) or 0.5)
                    for _ in gam
                ]
                diff_chains.append(AnnihilatorChain(tuple(zip(gam, dirs))))
                steps = [
                    IntegerStep(rng.below(5) - 2 or 1, rng.below(5) - 2)
                    for _ in gam
                ]
                delta_chains.append(AnnihilatorChain.over_set(gam, steps))
            assert all(annihilates(c, member) for c in diff_chains)
            assert all(annihilates(c, member) for c in delta_chains)
            assert any(not annihilates(c, outsider) for c in diff_chains)
            assert any(not annihilates(c, outsider) for c in delta_chains)


class TestFiniteDifferenceLimit:
    def test_ratio_halving(self):
        from expann.oracle import finite_difference_directional

        rng = SplitMix64(71)
        checked = 0
        for _ in range(6):
            g = random_frequency_vector(rng)
            f = ExponentialSum(
                (
                    (rng.uniform(0.5, 2), g),
                    (rng.uniform(0.5, 2), FrequencyVector.of(0.3, 0.1)),
                )
            )
            v = Direction(rng.uniform(0.2, 1), rng.uniform(0.2, 1))
            z = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            sym = diff_apply(g, v, f).evaluate(z)
            gv = g.dot(v.x, v.y)
            errs = []
            for h in (1e-2, 5e-3, 2.5e-3):
                fd = finite_difference_directional(f, z, v, h)
                approx = fd - gv * f.evaluate(z)
                errs.append(abs(approx - sym))
            if min(errs) < 1e-12:  # second derivative term degenerate
                continue
            checked += 1
            assert 1.8 <= errs[0] / errs[1] <= 2.2
            assert 1.8 <= errs[1] / errs[2] <= 2.2
        assert checked >= 4
