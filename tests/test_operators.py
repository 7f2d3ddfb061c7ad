import cmath
import copy
import math
import pickle
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from expann import jsonio
from expann.errors import InputError, NumericalError
from expann.expspace import (
    ExponentialSum,
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
    grid_residual,
    reduced_chain_for_symmetric_set,
)
from expann.oracle import SplitMix64, random_frequency_vector

from brute_force import apply_chain_pointwise, finite_difference_directional


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
        assert math.hypot(d.x, d.y) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Direction(0.0, 0.0)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (math.inf, 0.0), (1.0, -math.inf)])
    def test_rejects_a_non_finite_component(self, x, y):
        # no unit vector has such a component: dividing by hypot would give
        # (nan, nan) for (nan, 0) and (nan, 0.0) for (inf, 0)
        with pytest.raises(ValueError, match="^direction must be finite, got "):
            Direction(x, y)

    @pytest.mark.parametrize(
        "x, y", [(5e-324, 5e-324), (1e-310, -3e-310), (2.0**-1022, 2.0**-1022), (1.7e308, 1.7e308)],
        ids=["least-subnormal", "subnormal", "least-normal-parts", "past-the-range"],
    )
    def test_extreme_pairs_normalize_to_unit_length(self, x, y):
        # hypot(5e-324, 5e-324) rounds to 5e-324 and hypot(1.7e308, 1.7e308)
        # overflows, so dividing by it would give (1.0, 1.0) and (0.0, 0.0)
        d = Direction(x, y)
        assert math.hypot(d.x, d.y) == pytest.approx(1.0, abs=1e-15)
        assert d.y / d.x == pytest.approx(y / x, rel=1e-15) and d.x > 0.0

    @given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))
    def test_normal_lengths_keep_their_bits(self, x, y):
        m = math.hypot(x, y)
        assume(sys.float_info.min <= m < math.inf)
        d = Direction(x, y)
        assert (_bits(d.x), _bits(d.y)) == (_bits(x / m), _bits(y / m))

    def test_perp(self):
        d = Direction(1.0, 0.0)
        p = Direction(-d.y, d.x)
        assert (p.x, p.y) == (0.0, 1.0)


class TestIntegerStep:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            IntegerStep(0, 0)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            IntegerStep(0.5, 1)

    def test_views(self):
        s = IntegerStep(3, -4)
        v = Direction(s.dx, s.dy)
        assert v.x == pytest.approx(0.6) and v.y == pytest.approx(-0.8)

    def test_hash_contract(self):
        # steps key the per-call difference tables, so equal steps must hash
        # equal however their components were given, and keep it through
        # copies and pickling
        step = IntegerStep(1, 0)
        table = {step: "d"}
        for other in (
            IntegerStep(np.int64(1), np.int64(0)),
            IntegerStep(True, False),
            copy.copy(step),
            copy.deepcopy(step),
            pickle.loads(pickle.dumps(step)),
        ):
            assert other == step and hash(other) == hash(step)
            assert table[other] == "d"
        assert len({step, IntegerStep(1, 1), IntegerStep(np.int64(1), 1)}) == 2
        assert IntegerStep(1, 0) != IntegerStep(0, 1)
        assert repr(IntegerStep(np.int64(1), 0)) == repr(step) == "IntegerStep(dx=1, dy=0)"


_G = FrequencyVector(0.8, 0.3)
_F = ExponentialSum(((1.0, _G),))
_S = sample(_F, 0, (0, 0), 4, 4)


@pytest.mark.parametrize(
    "build",
    [
        lambda: chain_apply(AnnihilatorChain(((_G, (1.5, 0)),)), _F),
        lambda: chain_apply(AnnihilatorChain(((_G, (1, 0)),)), _F),
        lambda: chain_apply(AnnihilatorChain(((_G, (1.5, 0)),)), _S),
        lambda: chain_apply(AnnihilatorChain(((_G, (1, 0)),)), _S),
        lambda: reduced_chain_for_symmetric_set(_G, (1, 0), (1.5, 0)),
        lambda: reduced_chain_for_symmetric_set(_G, (1, 0), (1, 1)),
        lambda: AnnihilatorChain(((_G, (1, 0)),)),
        lambda: ExponentialSum(((1.0, (0.8, 0.3)),)),
    ],
    ids=["delta-sum-float", "delta-sum-int", "delta-grid-float",
         "delta-grid-int", "extra-float", "extra-int", "chain-step-pair", "term-frequency"],
)
def test_tuple_forms_are_rejected(build):
    # a step is an IntegerStep and a term's frequency a FrequencyVector;
    # converting a tuple instead would truncate the step (1.5, 0) to (1, 0)
    with pytest.raises(TypeError):
        build()


class TestDiffApply:
    """A differential factor: a one-factor chain that ``chain_apply`` applies to a sum."""

    def test_matching_rate_annihilates(self):
        g = FrequencyVector(0.7, 0.2j)
        f = ExponentialSum(((3.0, g),))
        assert chain_apply(AnnihilatorChain(((g, Direction(0.3, 0.9)),)), f).is_zero()

    def test_unit_axis(self):
        f = ExponentialSum(((1.0, FrequencyVector(1.0, 0.0)),))
        out = chain_apply(AnnihilatorChain(((FrequencyVector(0.0, 0.0), Direction(1.0, 0.0)),)), f)
        assert out.terms[0][0] == 1.0

    def test_diagonal(self):
        f = ExponentialSum(((1.0, FrequencyVector(1.0, 1.0)),))
        out = chain_apply(AnnihilatorChain(((FrequencyVector(0.0, 0.0), Direction(1.0, 1.0)),)), f)
        assert out.terms[0][0] == pytest.approx(1.4142135623730951, rel=1e-15)

    def test_scaling_invariance(self):
        # unnormalized action is |w| times the unit-direction action, termwise
        rng = SplitMix64(11)
        for _ in range(10):
            g = random_frequency_vector(rng)
            mu = random_frequency_vector(rng)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            f = ExponentialSum(((c, mu),))
            wx, wy = rng.uniform(-3, 3), rng.uniform(0.1, 3)
            w = (mu.g1.value - g.g1.value) * wx + (mu.g2.value - g.g2.value) * wy
            raw = ExponentialSum(((c * w, mu),))
            unit = chain_apply(AnnihilatorChain(((g, Direction(wx, wy)),)), f)
            scaled = (1.0 / math.hypot(wx, wy)) * raw
            assert _coeffs_close(unit, scaled, 1e-13)

    def test_single_frequency_kernel_both_directions(self):
        g = FrequencyVector(0.9, 0.4)
        f = ExponentialSum(((2.5, g),))
        v = Direction(2.0, 1.0)
        assert chain_apply(AnnihilatorChain(((g, v),)), f).is_zero()
        assert chain_apply(AnnihilatorChain(((g, Direction(-v.y, v.x)),)), f).is_zero()

    def test_extra_terms_escape_single_factor(self):
        # among representable sums, only the pure g-exponential is killed by
        # both v and v-perp when g.v and g.v_perp are nonzero
        g = FrequencyVector(0.9, 0.4)
        v = Direction(2.0, 1.0)
        perp = Direction(-v.y, v.x)
        rng = SplitMix64(23)
        for _ in range(10):
            mu = random_frequency_vector(rng)
            if mu.as_pair() == g.as_pair():
                continue
            f = ExponentialSum(((1.0, g), (1.0, mu)))
            both_zero = all(
                chain_apply(AnnihilatorChain(((g, d),)), f).is_zero() for d in (v, perp)
            )
            assert not both_zero


class TestDeltaApplySum:
    """A difference factor: a one-factor chain that ``chain_apply`` applies to a sum."""

    def test_matching_rate_annihilates(self):
        g = FrequencyVector(0.4, 1.1j)
        f = ExponentialSum(((2.0, g),))
        assert chain_apply(AnnihilatorChain(((g, IntegerStep(2, -1)),)), f).is_zero()

    def test_constant_term_weight(self):
        f = ExponentialSum(((1.0, FrequencyVector(0.0, 0.0)),))
        out = chain_apply(AnnihilatorChain(((FrequencyVector(1.0, 0.0), IntegerStep(1, 0)),)), f)
        assert out.terms[0][0] == pytest.approx(-1.718281828459045, rel=1e-15)

    def test_sinh_identity(self):
        f = ExponentialSum(((1.0, FrequencyVector(0.5, 0.0)),))
        out = chain_apply(AnnihilatorChain(((FrequencyVector(-0.5, 0.0), IntegerStep(2, 0)),)), f)
        assert out.terms[0][0] == pytest.approx(2.3504023872876028, rel=1e-15)


class TestDeltaApplyGrid:
    """A difference factor: a one-factor chain that ``chain_apply`` applies to grid samples."""

    def test_constant_zero(self):
        f = ExponentialSum(((4.0, FrequencyVector(0.0, 0.0)),))
        s = sample(f, 0, (0, 0), 5, 5)
        out = chain_apply(AnnihilatorChain(((FrequencyVector(0.0, 0.0), IntegerStep(1, 1)),)), s)
        assert np.all(out.values == 0)
        assert out.width == 4 and out.height == 4

    def test_factor_identity(self):
        f = ExponentialSum(((1.0, FrequencyVector(0.6, 0.4)),))
        s = sample(f, 0, (0, 0), 4, 5)
        out = chain_apply(AnnihilatorChain(((FrequencyVector(0.0, 0.0), IntegerStep(0, 1)),)), s)
        factor = math.exp(0.4) - 1.0
        for y in range(out.origin[1], out.origin[1] + out.height):
            for x in range(out.origin[0], out.origin[0] + out.width):
                want = factor * s.value_at((x, y))
                assert out.value_at((x, y)) == pytest.approx(want, rel=1e-14)

    def test_matching_rate_annihilates(self):
        g = FrequencyVector(0.8, 0.3j)
        f = ExponentialSum(((1.0, g),))
        s = sample(f, 1, (-2, -2), 6, 6)
        for tv in [(1, 0), (0, 1), (2, -1)]:
            out = chain_apply(AnnihilatorChain(((g, IntegerStep(*tv)),)), s)
            assert out.max_abs() <= 1e-13 * s.max_abs()

    def test_negative_step_window(self):
        s = sample(ExponentialSum(((1.0, FrequencyVector(0.2, 0.0)),)), 0, (0, 0), 4, 4)
        out = chain_apply(AnnihilatorChain(((FrequencyVector(0.0, 0.0), IntegerStep(-1, -2)),)), s)
        assert out.origin == (1, 2)
        assert out.width == 3 and out.height == 2
        assert out.value_at((1, 2)) == pytest.approx(s.value_at((0, 0)) - s.value_at((1, 2)))

    def test_empty_window(self):
        s = sample(ExponentialSum(((1.0, FrequencyVector(0.0, 0.0)),)), 0, (0, 0), 3, 3)
        with pytest.raises(InputError, match=r"^step \(3, 0\) exhausts a 3x3 window$"):
            chain_apply(AnnihilatorChain(((FrequencyVector(0.0, 0.0), IntegerStep(3, 0)),)), s)

    def test_level_scaling(self):
        # at level k the weight uses the physical step 2^-k tv
        g = FrequencyVector(1.2, 0.0)
        f = ExponentialSum(((1.0, g),))
        s = sample(f, 2, (0, 0), 5, 2)
        out = chain_apply(AnnihilatorChain(((g, IntegerStep(1, 0)),)), s)
        assert out.max_abs() <= 1e-14 * s.max_abs()


class TestChains:
    def test_chain_over_set_annihilates_exactly(self):
        gam = symmetric_set(FrequencyVector(0.8, 0.3))
        rng = SplitMix64(5)
        f = ExponentialSum(tuple((rng.uniform(-5, 5), m) for m in gam))
        chain = AnnihilatorChain(tuple((m, IntegerStep(1, 1)) for m in gam))
        assert chain_apply(chain, f).is_zero()

    def test_malformed_chains_rejected(self):
        with pytest.raises(ValueError, match="^chain must have at least one factor$"):
            AnnihilatorChain(())
        with pytest.raises(TypeError, match="^chain factor frequency must be a FrequencyVector$"):
            AnnihilatorChain(((0.8, IntegerStep(1, 0)),))

    def test_apply_to_an_unknown_kind_rejected(self):
        chain = AnnihilatorChain(((FrequencyVector(0.0, 0.0), IntegerStep(1, 0)),))
        with pytest.raises(TypeError, match="^cannot apply chain to list$"):
            chain_apply(chain, [1, 2])

    def test_univariate_embedding(self):
        f = ExponentialSum(
            (
                (1.0, FrequencyVector(0.0, 0.0)),
                (1.0, FrequencyVector(0.9, 0.0)),
                (1.0, FrequencyVector(-0.9, 0.0)),
            )
        )
        s = sample(f, 0, (0, 0), 8, 1)
        chain = AnnihilatorChain(
            (
                (FrequencyVector(0.0, 0.0), IntegerStep(1, 0)),
                (FrequencyVector(0.9, 0.0), IntegerStep(1, 0)),
                (FrequencyVector(-0.9, 0.0), IntegerStep(1, 0)),
            )
        )
        out = chain_apply(chain, s)
        assert out.max_abs() <= 1e-12 * s.max_abs()

    def test_product_formula_for_nonmember(self):
        gam = symmetric_set(FrequencyVector(0.8, 0.3))
        mu = FrequencyVector(0.37, 0.61)
        f = ExponentialSum(((1.0, mu),))
        steps = [IntegerStep(1, 0), IntegerStep(0, 1), IntegerStep(1, 1),
                 IntegerStep(-1, 1), IntegerStep(2, 1)]
        expected = 1.0
        for g, s in zip(gam, steps):
            expected *= cmath.exp(mu.dot(s.dx, s.dy)) - cmath.exp(g.dot(s.dx, s.dy))
        assert abs(expected) > 1e-6
        out = chain_apply(AnnihilatorChain(tuple(zip(gam, steps))), f)
        assert len(out.terms) == 1
        assert out.terms[0][0] == pytest.approx(expected, rel=1e-13)

    def test_grid_matches_sum_route(self):
        # applying the chain to samples equals sampling the chained sum
        g = FrequencyVector(0.5, 0.25j)
        gam = symmetric_set(g)
        rng = SplitMix64(9)
        f = ExponentialSum(tuple((rng.uniform(-2, 2), m) for m in gam))
        extra = ExponentialSum(((0.7, FrequencyVector(0.15, 0.0)),))
        f = f + extra
        chain = AnnihilatorChain(
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
            raise InputError(
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
        g = FrequencyVector(_random_rate(rng), _random_rate(rng))
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
    """``chain_apply`` and ``grid_residual`` run every
    factor on the raw sample array; the per-factor loop is the reference."""

    def test_chains_bitwise(self):
        rng = np.random.default_rng(17)
        outcomes = Counter()
        for _ in range(600):
            s, factors = _random_grid(rng), _random_factors(rng)
            chain = AnnihilatorChain(factors)
            try:
                want = _reference_chain(factors, s)
            except InputError as exc:
                for fn in (chain_apply, grid_residual):
                    with pytest.raises(InputError) as got:
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
            except InputError:
                with pytest.raises(InputError, match="exhausts a"):
                    chain_apply(AnnihilatorChain(((g, step),)), s)
                continue
            assert _same_grid(chain_apply(AnnihilatorChain(((g, step),)), s), want)
            compared += 1
        assert compared > 200

    def test_signed_zero_grids(self):
        chain = AnnihilatorChain((
            (FrequencyVector(0.5, 0.0), IntegerStep(1, 0)),
            (FrequencyVector(0.0, 1j), IntegerStep(-1, 1)),
        ))
        for v in (0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            s = GridSamples(3, (0, 0), 4, 4, np.full(16, v, dtype=np.complex128))
            assert _same_grid(chain_apply(chain, s), _reference_chain(chain.factors, s))
            assert grid_residual(chain, s) == 0.0

    def test_later_factor_exhausting_the_window(self):
        s = GridSamples(0, (0, 0), 4, 3, np.arange(12.0))
        g = FrequencyVector(0.3, 0.0)
        chain = AnnihilatorChain(
            ((g, IntegerStep(1, 0)), (g, IntegerStep(2, 0)), (g, IntegerStep(1, 1)))
        )
        for fn in (chain_apply, grid_residual):
            with pytest.raises(InputError, match=r"^step \(1, 1\) exhausts a 1x3 window$"):
                fn(chain, s)

    def test_direction_factor_on_grid(self):
        s = GridSamples(0, (0, 0), 4, 4, np.arange(16.0))
        g = FrequencyVector(0.3, 0.0)
        for chain in (
            AnnihilatorChain(((g, Direction(1.0, 0.0)),)),
            AnnihilatorChain(((g, IntegerStep(1, 0)), (g, Direction(0.0, 1.0)))),
        ):
            for fn in (chain_apply, grid_residual):
                with pytest.raises(
                    TypeError, match="^differential factors cannot act on grid samples$"
                ):
                    fn(chain, s)

    def test_non_finite_output_raises(self):
        # 1e308 - e^0.5 * (-1e308) overflows; the kernel silences numpy's
        # warning and checks its output, so the caller sees one error and
        # no warning
        g, step = FrequencyVector(0.5, 0.0), IntegerStep(1, 0)
        s = GridSamples(0, (0, 0), 3, 1, [1e308, -1e308, 1e308])
        chain = AnnihilatorChain(((g, step),))
        calls = (lambda: chain_apply(chain, s), lambda: grid_residual(chain, s))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(NumericalError, match="^a chain's output sample is not finite$"):
                    call()

    def test_grid_objects_built(self, monkeypatch):
        s = GridSamples(0, (0, 0), 9, 9, np.arange(81.0))
        g = FrequencyVector(0.8, 0.3)
        chain = reduced_chain_for_symmetric_set(g, (1, 0), IntegerStep(1, 1))
        built = []
        init = GridSamples.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GridSamples, "__init__", counting)
        grid_residual(chain, s)
        assert built == []
        chain_apply(chain, s)
        assert len(built) == 1


class TestAnnihilates:
    def test_member(self):
        gam = symmetric_set(FrequencyVector(1.2, 0.4j))
        f = ExponentialSum(tuple((1.0, m) for m in gam))
        chain = AnnihilatorChain(tuple((m, IntegerStep(1, 1)) for m in gam))
        assert annihilates(chain, f)

    def test_nonmember(self):
        gam = symmetric_set(FrequencyVector(1.2, 0.4j))
        f = ExponentialSum(((1.0, FrequencyVector(0.3, 0.9)),))
        chain = AnnihilatorChain(tuple((m, IntegerStep(1, 1)) for m in gam))
        assert not annihilates(chain, f)

    def test_zero_sum_is_annihilated(self):
        chain = AnnihilatorChain(((FrequencyVector(0.3, 0.9), IntegerStep(1, 0)),))
        assert annihilates(chain, ExponentialSum()) is True

    def test_degenerate_step_false_positive(self):
        # a single factor can kill a non-matching exponential when the rate
        # difference is orthogonal to the step: annihilation along one
        # direction does not certify membership
        g = FrequencyVector(0.5, 0.0)
        mu = FrequencyVector(0.5, 0.8)  # mu - g orthogonal to (1, 0)
        f = ExponentialSum(((1.0, mu),))
        chain = AnnihilatorChain(((g, IntegerStep(1, 0)),))
        assert annihilates(chain, f)
        assert mu.as_pair() != g.as_pair()


_OVERFLOW = "^a difference weight overflows the floating-point range$"
_HALF = ExponentialSum(((1.0, FrequencyVector(0.5, 0.0)),))


class TestFactorWeight:
    """One weight, exp(gamma . h tv), and one overflow rule for every
    difference factor: on sums at h = 1, on level-k grids at h = 2^-k."""

    def test_overflow_on_sums_as_on_grids(self):
        g, step = FrequencyVector(800.0, 0.0), IntegerStep(1, 0)
        chain = AnnihilatorChain(((g, step),))
        with pytest.raises(NumericalError, match=_OVERFLOW):
            chain_apply(chain, GridSamples(0, (0, 0), 3, 1, [1.0, 2.0, 3.0]))
        for call in (annihilates, chain_apply):
            with pytest.raises(NumericalError, match=_OVERFLOW):
                call(chain, _HALF)

    def test_overflowing_coefficient_raises_on_sums(self):
        # finite weights can still carry a coefficient past the float range;
        # a sum whose coefficient is inf or NaN is refused, and annihilates
        # answers False, since that output is not zero
        zero, step = FrequencyVector(0.0, 0.0), IntegerStep(1, 0)
        big = ExponentialSum(((1e10, FrequencyVector(700.0, 0.0)),))
        one = ExponentialSum(((1.0, FrequencyVector(700.0, 0.0)),))
        single, triple = AnnihilatorChain(((zero, step),)), AnnihilatorChain(((zero, step),) * 3)
        huge = ExponentialSum(((1e308, FrequencyVector(1000.0, 0.0)),))
        calls = (
            lambda: chain_apply(single, big),  # (inf+0j)
            lambda: chain_apply(triple, one),  # (inf+nanj)
            lambda: chain_apply(AnnihilatorChain(((zero, Direction(1.0, 0.0)),)), huge),
        )
        for call in calls:
            with pytest.raises(NumericalError, match="^a coefficient overflows the floating-point range$"):
                call()
        assert annihilates(single, big) is False
        assert annihilates(triple, one) is False
        # a finite output near the top of the range still passes
        near = chain_apply(single, ExponentialSum(((1e-10, FrequencyVector(700.0, 0.0)),)))
        assert all(cmath.isfinite(c) for c, _ in near.terms)

    @pytest.mark.parametrize("order", [1, -1], ids=["as-written", "reversed"])
    def test_annihilation_on_sums_is_order_free(self, order):
        # the first factor carries the coefficient past the float range, the
        # second multiplies it by exactly zero: the term is annihilated in
        # either order, since each term takes every factor's multiplier first
        f = ExponentialSum(((1e300, FrequencyVector(700.0, 0.0)),))
        factors = ((FrequencyVector(0.0, 0.0), IntegerStep(1, 0)), (FrequencyVector(700.0, 0.0), IntegerStep(1, 0)))
        chain = AnnihilatorChain(factors[::order])
        assert annihilates(chain, f) is True
        assert chain_apply(chain, f).is_zero()

    @pytest.mark.parametrize("order", [1, -1], ids=["as-written", "reversed"])
    def test_weight_overflow_raises_wherever_its_factor_sits(self, order):
        # the rate-zero factor annihilates the term, and the rate-800 factor's
        # weight overflows whether it comes before or after it
        f = ExponentialSum(((1.0, FrequencyVector(0.0, 0.0)),))
        factors = ((FrequencyVector(0.0, 0.0), IntegerStep(1, 0)), (FrequencyVector(800.0, 0.0), IntegerStep(1, 0)))
        chain = AnnihilatorChain(factors[::order])
        for call in (annihilates, chain_apply):
            with pytest.raises(NumericalError, match=_OVERFLOW):
                call(chain, f)

    def test_subnormal_multiplier_answer_is_order_free(self):
        # a's multiplier is about -1.0e304 and b's about -1.1e-317, a
        # subnormal: the plain product overflows in order a, b and passes
        # through a subnormal in order b, a; the scaled product does neither
        f = ExponentialSum(((1e5, FrequencyVector(-700.0, 0.0)),))
        a = (FrequencyVector(700.0, 0.0), IntegerStep(1, 0))
        b = (FrequencyVector(-700.0 + 1e-13, 0.0), IntegerStep(1, 0))
        chains = (AnnihilatorChain((a, b)), AnnihilatorChain((b, a)))
        assert [annihilates(chain, f) for chain in chains] == [True, True]
        (c_ab, m_ab), = chain_apply(chains[0], f).terms
        (c_ba, m_ba), = chain_apply(chains[1], f).terms
        assert m_ab == m_ba == f.terms[0][1]
        assert cmath.isfinite(c_ab) and cmath.isfinite(c_ba)
        assert abs(c_ab - c_ba) <= 4 * math.ulp(max(abs(c_ab), abs(c_ba)))

    def test_running_overflow_with_a_finite_product_is_kept(self):
        # 1e300 times the step factor's multiplier e^230 - 1 passes the float
        # range, and the direction factor's 1e-200 brings it back: the plain
        # product overflowed in one order only
        f = ExponentialSum(((1e300, FrequencyVector(230.0, 0.0)),))
        step = (FrequencyVector(0.0, 0.0), IntegerStep(1, 0))
        direction = (FrequencyVector(230.0, -1e-200), Direction(0.0, 1.0))
        want = 1e300 * (1e-200 * (cmath.exp(230.0) - 1.0))
        for factors in ((step, direction), (direction, step)):
            chain = AnnihilatorChain(factors)
            (c, _), = chain_apply(chain, f).terms
            assert abs(c - want) <= 4 * math.ulp(abs(want))
            assert annihilates(chain, f) is True

    def test_in_range_products_keep_their_bits(self):
        # scaling by powers of two is exact, so a product whose running value
        # stays normal is the plain product c * w1 * w2 * ..., bit for bit
        rng = SplitMix64(41)
        compared = 0
        for _ in range(200):
            g = random_frequency_vector(rng)
            f = ExponentialSum(tuple((rng.uniform(-3, 3), m) for m in symmetric_set(g)))
            f = f + ExponentialSum(((rng.uniform(0.5, 2), random_frequency_vector(rng)),))
            factors = tuple(
                (random_frequency_vector(rng), IntegerStep(1 + rng.below(2), rng.below(3) - 1))
                for _ in range(1 + rng.below(4))
            )
            got = _coeff_map(chain_apply(AnnihilatorChain(factors), f))
            for c, m in f.terms:
                ws = [cmath.exp(m.dot(s.dx, s.dy)) - cmath.exp(gam.dot(s.dx, s.dy)) for gam, s in factors]
                if 0 not in ws:
                    want = math.prod(ws, start=c)
                    got_c = got[m.as_pair()]
                    assert (_bits(got_c.real), _bits(got_c.imag)) == (_bits(want.real), _bits(want.imag))
                    compared += 1
        assert compared > 1000

    def test_coefficient_modulus_past_the_float_range(self):
        # both parts of f's coefficient are finite, but abs() of it overflows;
        # annihilates compares at half scale, so an output of modulus 6.3e307
        # is not zero and an empty one is
        f = ExponentialSum(((complex(1.5e308, 1.5e308), FrequencyVector(0.5, 0.0)),))
        kept = AnnihilatorChain(((FrequencyVector(0.3, 0.0), IntegerStep(1, 0)),))
        (c, _), = chain_apply(kept, f).terms
        assert c.real == c.imag == pytest.approx(4.48e307, rel=1e-3)
        assert annihilates(kept, f) is False
        assert annihilates(AnnihilatorChain(((FrequencyVector(0.5, 0.0), IntegerStep(1, 0)),)), f) is True

    def test_infinite_coefficient_is_never_annihilated(self):
        # an exactly-zero multiplier annihilates only a finite coefficient:
        # inf times zero is NaN, and f's own bound, inf, must not pass it
        f = ExponentialSum(((math.inf, FrequencyVector(0.0, 0.0)),))
        for rate in (0.0, 0.5):  # a zero multiplier, and a non-zero one
            chain = AnnihilatorChain(((FrequencyVector(rate, 0.0), IntegerStep(1, 0)),))
            assert annihilates(chain, f) is False
            with pytest.raises(NumericalError, match="^a coefficient overflows the floating-point range$"):
                chain_apply(chain, f)

    def test_step_past_the_float_range(self):
        chain = AnnihilatorChain(((FrequencyVector(0.5, 0.0), IntegerStep(10**400, 0)),))
        with pytest.raises(NumericalError, match=_OVERFLOW):
            chain_apply(chain, _HALF)

    def test_infinite_exponent(self):
        # rate 1e308 times step 2 is an infinite exponent, whose inf weight
        # cmath.exp returns without raising; an infinite imaginary exponent
        # has no value at all
        big = AnnihilatorChain(((FrequencyVector(1e308, 0.0), IntegerStep(2, 0)),))
        for data in (_HALF, GridSamples(0, (0, 0), 3, 1, [1, 2, 3])):
            with pytest.raises(NumericalError, match=_OVERFLOW):
                chain_apply(big, data)
        wave = ExponentialSum(((1.0, FrequencyVector(0.0, 1j)),))
        wide = AnnihilatorChain(((FrequencyVector(0.0, 3j), IntegerStep(0, 10**308)),))
        with pytest.raises(NumericalError, match=_OVERFLOW):
            chain_apply(wide, wave)

    def test_weights_match_cmath(self):
        g, m, step = FrequencyVector(0.4, 1.1j), FrequencyVector(-0.3, 0.2), IntegerStep(2, -1)
        out = chain_apply(AnnihilatorChain(((g, step),)), ExponentialSum(((1.5, m),)))
        want = 1.5 * (cmath.exp(m.dot(2.0, -1.0)) - cmath.exp(g.dot(2.0, -1.0)))
        assert out.terms == ((want, m),)

    def test_diff_apply_takes_a_direction(self):
        # a factor's step type picks its kind: a Direction makes a
        # differential factor, (mu - g) . v, which acts on sums only; an
        # IntegerStep makes a difference factor, e^mu - e^g
        g = FrequencyVector(0.5, 0.0)
        mu = FrequencyVector(0.75, 0.0)
        f = ExponentialSum(((1.0, mu),))
        (c, m), = chain_apply(AnnihilatorChain(((g, Direction(1.0, 0.0)),)), f).terms
        assert (c, m) == (0.25, mu)
        (c, m), = chain_apply(AnnihilatorChain(((g, IntegerStep(1, 0)),)), f).terms
        assert (c, m) == (cmath.exp(0.75) - cmath.exp(0.5), mu)
        with pytest.raises(TypeError, match="^differential factors cannot act on grid samples$"):
            chain_apply(
                AnnihilatorChain(((g, Direction(1.0, 0.0)),)), GridSamples(0, (0, 0), 2, 1, [1, 2])
            )


class TestGridResidual:
    def test_member_small(self):
        g = FrequencyVector(0.8, 0.3)
        gam = symmetric_set(g)
        f = ExponentialSum(tuple((1.0, m) for m in gam))
        s = sample(f, 0, (0, 0), 9, 9)
        chain = AnnihilatorChain(tuple((m, IntegerStep(1, 1)) for m in gam))
        assert grid_residual(chain, s) <= 1e-11

    def test_perturbed_large(self):
        g = FrequencyVector(0.8, 0.3)
        gam = symmetric_set(g)
        f = ExponentialSum(tuple((1.0, m) for m in gam))
        f = f + ExponentialSum(((1.0, FrequencyVector(0.37, 0.61)),))
        s = sample(f, 0, (0, 0), 9, 9)
        chain = AnnihilatorChain(tuple((m, IntegerStep(1, 1)) for m in gam))
        assert grid_residual(chain, s) > 1e-3

    def test_zero_grid(self):
        from expann.expspace import GridSamples

        s = GridSamples(0, (0, 0), 5, 5, np.zeros(25))
        chain = AnnihilatorChain(((FrequencyVector(0.0, 0.0), IntegerStep(1, 0)),))
        assert grid_residual(chain, s) == 0.0


class TestReducedChain:
    def test_annihilates_all_members_symbolically(self):
        g = FrequencyVector(0.8, 0.3)
        chain = reduced_chain_for_symmetric_set(g, (1, 0), IntegerStep(1, 1))
        for m in symmetric_set(g):
            basis = ExponentialSum(((1.0, m),))
            out = chain_apply(chain, basis)
            assert out.max_coefficient() <= 1e-14

    def test_annihilates_on_both_axes(self):
        g = FrequencyVector(0.6, 1.1j)
        gam = symmetric_set(g)
        rng = SplitMix64(31)
        f = ExponentialSum(tuple((rng.uniform(-3, 3), m) for m in gam))
        s = sample(f, 1, (-3, -3), 9, 9)
        for e in [(1, 0), (0, 1)]:
            chain = reduced_chain_for_symmetric_set(g, e, IntegerStep(1, 1))
            assert grid_residual(chain, s) <= 1e-11

    def test_footprint_at_most_six(self):
        g = FrequencyVector(0.8, 0.3)
        for extra in [IntegerStep(1, 1), IntegerStep(-1, 0), IntegerStep(0, -1)]:
            for e in [(1, 0), (0, 1)]:
                chain = reduced_chain_for_symmetric_set(g, e, extra)
                offs = set()

                def lookup(alpha, _offs=offs):
                    _offs.add(alpha)
                    return 1.0

                apply_chain_pointwise(chain, lookup, (0, 0), 0)
                assert len(offs) <= 6
                predicted = {
                    (lam * extra.dx + mu * e[0], lam * extra.dy + mu * e[1])
                    for lam in (0, 1)
                    for mu in (0, 1, 2)
                }
                assert offs == predicted

    def test_collapse_case(self):
        g = FrequencyVector(0.7, 0.0)
        chain = reduced_chain_for_symmetric_set(g, (0, 1), IntegerStep(1, 1))
        for m in symmetric_set(g):
            assert chain_apply(chain, ExponentialSum(((1.0, m),))).is_zero()


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
                out_a = chain_apply(AnnihilatorChain(((ga, step),)), s)
                out_b = chain_apply(AnnihilatorChain(((gb, step),)), s)
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
            a, b = AnnihilatorChain(((ga, sa),)), AnnihilatorChain(((gb, sb),))
            ab = chain_apply(a, chain_apply(b, f))
            ba = chain_apply(b, chain_apply(a, f))
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
            diff, delta = AnnihilatorChain(((g, d),)), AnnihilatorChain(((mu, step),))
            ab = chain_apply(diff, chain_apply(delta, f))
            ba = chain_apply(delta, chain_apply(diff, f))
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
            return tuple(members)


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
                chain = AnnihilatorChain(tuple(zip(gam, steps)))
                assert annihilates(chain, f)
            # a generic extra exponential escapes at least one sampled tuple
            mu = random_frequency_vector(rng)
            if any(mu.as_pair() == m.as_pair() for m in gam):
                continue
            basis = ExponentialSum(((1.0, mu),))
            escaped = any(
                not annihilates(AnnihilatorChain(tuple(zip(gam, steps))), basis)
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
            outsider = member + ExponentialSum(((1.0, FrequencyVector(0.29, 0.53)),))
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
                delta_chains.append(AnnihilatorChain(tuple(zip(gam, steps))))
            assert all(annihilates(c, member) for c in diff_chains)
            assert all(annihilates(c, member) for c in delta_chains)
            assert any(not annihilates(c, outsider) for c in diff_chains)
            assert any(not annihilates(c, outsider) for c in delta_chains)


class TestFiniteDifferenceLimit:
    def test_ratio_halving(self):
        rng = SplitMix64(71)
        checked = 0
        for _ in range(6):
            g = random_frequency_vector(rng)
            f = ExponentialSum(
                (
                    (rng.uniform(0.5, 2), g),
                    (rng.uniform(0.5, 2), FrequencyVector(0.3, 0.1)),
                )
            )
            v = Direction(rng.uniform(0.2, 1), rng.uniform(0.2, 1))
            z = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            sym = chain_apply(AnnihilatorChain(((g, v),)), f).evaluate(z)
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


_rates = st.floats(-1000.0, 1000.0)
_vectors = st.builds(FrequencyVector, _rates, _rates)
_component = st.one_of(st.integers(-3, 3), st.integers(-(10**400), 10**400))
_steps = st.tuples(_component, _component).filter(lambda t: t != (0, 0)).map(
    lambda t: IntegerStep(*t)
)
_directions = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
    lambda t: math.hypot(*t) > 0.0
).map(lambda t: Direction(*t))
_factors = st.tuples(_vectors, st.one_of(_steps, _directions))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.floats(-1e3, 1e3), _vectors), max_size=4),
    st.lists(_factors, min_size=1, max_size=4),
    _factors,
)
def test_symbolic_calls_return_or_raise_a_documented_error(terms, factors, factor):
    # mixed chains with real rates up to +-1000 and step components up to
    # 10**400: each call returns, or raises one of the documented kinds
    f, chain = ExponentialSum(tuple(terms)), AnnihilatorChain(tuple(factors))
    calls = (
        lambda: chain_apply(chain, f),
        lambda: annihilates(chain, f),
        lambda: chain_apply(AnnihilatorChain((factor,)), f),
    )
    for call in calls:
        try:
            call()
        except (InputError, NumericalError, ValueError, TypeError):
            pass


@pytest.mark.parametrize(
    "level, width, height",
    [(np.int64(2), np.int64(3), np.int64(2)), (True, np.int32(3), True), (np.uint8(0), True, 2)],
)
def test_integer_like_window_round_trips_through_json(level, width, height):
    # the grid stores the ints operator.index gives, so it writes and reads as ints
    s = GridSamples(level, (0, 0), width, height, np.arange(int(width) * int(height), dtype=float))
    assert all(type(k) is int for k in (s.level, s.width, s.height))
    back = jsonio.load_grid(jsonio.dump_grid(s))
    assert (back.level, back.width, back.height) == (int(level), int(width), int(height))
    assert np.array_equal(back.values, s.values)
