import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebint import integral
from chebint.extreal import INF_CAP
from chebint.fusion import (BUILTIN_KINDS, builtin, eval_op, expr_op, godel_op,
                            lukasiewicz_op, min_op, prod_op)
from chebint.integral import (IntegralError, SimpleFunction, integrate_simple,
                              integrate_survival, opposite_sugeno,
                              oracle_grid_integral, q_integral, seminormed,
                              shilkret, simple_function, sugeno)
from chebint.measure import MonotoneMeasure, from_table, space, survival_scenario
from chebint.randgen import random_monotone_measure, random_simple_function
from chebint.scan import EQ_TOL, axis


@pytest.fixture
def sp():
    return space("a1", "a2", "a3")


@pytest.fixture
def m(sp):
    # m({a1})=0.2, m({a2})=0.3, m({a3})=0.5, pairwise maxima, m(X)=1
    return from_table(sp, {
        0b000: 0.0, 0b001: 0.2, 0b010: 0.3, 0b100: 0.5,
        0b011: 0.5, 0b101: 0.6, 0b110: 0.8, 0b111: 1.0,
    })


class TestSimpleIntegrals:
    def test_sugeno_basic(self, sp, m):
        f = simple_function(sp, [0.9, 0.6, 0.3])
        # candidates: 0.3 ^ m(X)=1, 0.6 ^ m({a1,a2})=0.5, 0.9 ^ m({a1})=0.2
        assert sugeno(m, sp.full_mask, f).value == pytest.approx(0.5)

    def test_restricted_domain(self, sp, m):
        f = simple_function(sp, [0.9, 0.6, 0.3])
        D = sp.mask_of(["a1"])
        assert sugeno(m, D, f).value == pytest.approx(0.2)

    def test_shilkret(self, sp, m):
        f = simple_function(sp, [0.9, 0.6, 0.3])
        expected = max(0.3 * 1.0, 0.6 * 0.5, 0.9 * 0.2)
        assert shilkret(m, sp.full_mask, f).value == pytest.approx(expected)

    def test_opposite_sugeno(self, sp, m):
        f = simple_function(sp, [0.9, 0.6, 0.3])
        expected = max(0.0, 0.3 + 1.0 - 1, 0.6 + 0.5 - 1, 0.9 + 0.2 - 1)
        assert opposite_sugeno(m, sp.full_mask, f).value == pytest.approx(expected)

    def test_seminormed_matches_named(self, sp, m):
        f = simple_function(sp, [0.4, 0.8, 0.1])
        assert seminormed(min_op(), m, sp.full_mask, f).value == \
            sugeno(m, sp.full_mask, f).value

    def test_indicator_multiple(self, sp, m):
        # integral of a*1_D under min is a ^ m(D)
        f = simple_function(sp, [0.7, 0.0, 0.0])
        assert sugeno(m, sp.full_mask, f).value == pytest.approx(0.2)

    def test_zero_function(self, sp, m):
        f = simple_function(sp, [0.0, 0.0, 0.0])
        assert shilkret(m, sp.full_mask, f).value == 0.0

    def test_two_block_discretization(self):
        # block function: 1 on the first block, 0.25 on the second, measure
        # of the upper level set drops to 0 above 0.25
        sp2 = space("low", "high")
        m2 = from_table(sp2, [0.0, 0.0, 0.0, 1.0])
        f = simple_function(sp2, [1.0, 0.25])
        assert sugeno(m2, sp2.full_mask, f).value == pytest.approx(0.25)

    def test_grid_fallback_without_declared_continuity(self, sp, m):
        op = expr_op("mincopy", "min(a, b)", non_decreasing=True)
        f = simple_function(sp, [0.9, 0.6, 0.3])
        res = integrate_simple(op, m, sp.full_mask, f)
        assert "warning:left-continuity-not-declared" in res.method
        assert res.value == pytest.approx(0.5, abs=1e-3)


class TestOracleAgreement:
    @pytest.mark.parametrize("opname", ["min", "prod", "lukasiewicz"])
    def test_exact_matches_oracle(self, opname):
        rng = np.random.default_rng(12)
        op = builtin(opname)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            sp = space(*[f"x{i}" for i in range(n)])
            m = random_monotone_measure(rng, sp, capacity=True)
            f = random_simple_function(rng, sp)
            D = int(rng.integers(1, sp.full_mask + 1))
            exact = integrate_simple(op, m, D, f).value
            grid = oracle_grid_integral(op, m, D, f, grid_step=1e-3)
            assert exact >= grid - 1e-12
            assert exact - grid <= 1e-3 + 1e-12

    @pytest.mark.parametrize("source", [
        "b*ind[0.5, inf)(a)",
        "min(b, 0.5*ind[0.3, inf)(a) + 0.5*ind[0.6, inf)(a))",
        "0.25*b + 0.75*b*ind[0.25, inf)(a)*a",
    ])
    def test_step_ops_without_left_continuity_match_oracle(self, source):
        # right-continuous steps in t: the candidate set is still exact, so it
        # equals the oracle wherever every value of f is an oracle grid point
        op = expr_op("step", source, non_decreasing=True)
        grid = np.linspace(0.0, 1.0, 101)  # the oracle's grid at step 0.01
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            sp = space(*[f"x{i}" for i in range(n)])
            m = random_monotone_measure(rng, sp, capacity=True)
            f = simple_function(sp, grid[rng.integers(0, len(grid), n)], bound=1.0)
            D = int(rng.integers(1, sp.full_mask + 1))
            res = integrate_simple(op, m, D, f)
            assert res.method == "exact-candidate-set;warning:left-continuity-not-declared"
            assert res.value == oracle_grid_integral(op, m, D, f, grid_step=0.01)


    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_oracle_refuses_a_step_that_is_not_finite_positive(self, sp, m, step):
        f = simple_function(sp, [0.9, 0.6, 0.3])
        with pytest.raises(IntegralError, match="not a finite positive number"):
            oracle_grid_integral(min_op(), m, sp.full_mask, f, step)


class TestQIntegral:
    def test_measure_in_first_slot(self, sp, m):
        f = simple_function(sp, [0.9, 0.6, 0.3])
        conj = godel_op()
        # best term at t=0.9: m({f>=0.9})=0.2 > 1-0.9, so the level survives
        res = q_integral(conj, m, f)
        assert res.value == pytest.approx(0.9)

    def test_requires_declared_fuzzy_conjunction(self, sp, m):
        f = simple_function(sp, [0.5, 0.5, 0.5])
        undeclared = expr_op("w2", "pos(a + b - 1)", non_decreasing=True,
                             left_continuous_in_second=True)
        with pytest.raises(IntegralError):
            q_integral(undeclared, m, f)

    def test_semicopula_flip_matches_seminormed(self, sp, m):
        # conj(a, b) = min(b, a) makes the q-integral the min-seminormed one
        conj = expr_op("minflip", "min(b, a)", non_decreasing=True,
                       fuzzy_conjunction=True, left_continuous_in_second=True)
        f = simple_function(sp, [0.9, 0.6, 0.3])
        assert q_integral(conj, m, f).value == \
            pytest.approx(sugeno(m, sp.full_mask, f).value)


class TestSurvival:
    def test_bisection_crossing(self):
        sv = survival_scenario(1.0, [("[0, 1]", "1 - t")])
        res = integrate_survival(min_op(), sv)
        assert res.value == pytest.approx(0.5, abs=1e-9)
        assert "bisection" in res.method

    def test_sqrt_crossing(self):
        sv = survival_scenario(1.0, [("[0, 1]", "1 - sqrt(t)")])
        res = integrate_survival(min_op(), sv)
        assert res.value == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-8)

    def test_plateau(self):
        sv = survival_scenario(1.0, [("[0, 0.25]", "1"), ("(0.25, 1]", "0")])
        assert integrate_survival(min_op(), sv).value == pytest.approx(0.25, abs=1e-9)

    def test_grid_path_for_prod(self):
        sv = survival_scenario(1.0, [("[0, 1]", "1 - t")])
        # sup t(1-t) = 1/4 at t = 1/2
        res = integrate_survival(prod_op(), sv, grid_step=1e-4)
        assert res.value == pytest.approx(0.25, abs=1e-6)
        assert "grid" in res.method
        # the grid is capped at 200001 points; a step this small used to end
        # in an OverflowError
        assert integrate_survival(prod_op(), sv, grid_step=5e-324).value == res.value

    def test_min_vs_grid_agree(self):
        sv = survival_scenario(1.0, [("[0, 0.25]", "1 - t"),
                                     ("(0.25, 0.5]", "1 - 2*t"),
                                     ("(0.5, 1]", "0")])
        exact = integrate_survival(min_op(), sv).value
        grid = integrate_survival(expr_op("min2", "min(a, b)", non_decreasing=True),
                                  sv, grid_step=1e-4).value
        assert exact == pytest.approx(1 / 3, abs=1e-8)
        assert grid == pytest.approx(exact, abs=1e-4)


class TestLemmaSupCommutes:
    def test_left_continuous_transform_commutes_with_sup(self):
        # psi(sup terms) = sup psi(terms) over the candidate set for a
        # non-decreasing continuous psi
        rng = np.random.default_rng(3)
        sp = space("x1", "x2", "x3")
        for _ in range(100):
            m = random_monotone_measure(rng, sp, capacity=True)
            f = random_simple_function(rng, sp)
            res = integrate_simple(min_op(), m, sp.full_mask, f)
            terms = [t for (_, _, t) in res.candidates]
            assert math.sqrt(res.value) == pytest.approx(
                max(math.sqrt(t) for t in terms), abs=1e-12)


# ---------------------------------------------------------------------------
# The sorted level walk against the per-level loops it replaced
# ---------------------------------------------------------------------------


def level_mask_reference(f, t):
    mask = 0
    for i, v in enumerate(f.values):
        if v >= t:
            mask |= 1 << i
    return mask


def integrate_simple_reference(op, m, D, f):
    """(value, candidates) with every level set rebuilt by its own loop."""
    levels = sorted({0.0} | {f.values[i] for i in m.space.atoms_of(D)})
    cands = []
    for t in levels:
        level = m(level_mask_reference(f, t) & D)
        cands.append((t, level, eval_op(op, t, level)))
    cands.append((op.y_bar, 0.0, eval_op(op, op.y_bar, 0.0)))
    return max(cands, key=lambda c: c[2])[2], tuple(cands)


def q_integral_reference(conj, m, f):
    levels = sorted({0.0, 1.0} | set(f.values))
    cands = []
    for t in levels:
        level = m(level_mask_reference(f, t))
        cands.append((t, level, eval_op(conj, level, t)))
    return max(cands, key=lambda c: c[2])[2], tuple(cands)


def exact_bits(value, cands):
    """Types and bit patterns, so that 0.0 and -0.0 differ."""
    return (type(value), float(value).hex(),
            tuple(tuple((type(x), float(x).hex()) for x in c) for c in cands))


# ties, both zeros, 1.0 and values on either side of it, up to the bound's tolerance
_TOP = 1.0 + EQ_TOL
LEVEL_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.0 - 2**-53, _TOP]),
                         st.floats(0.0, _TOP))


@st.composite
def level_instances(draw):
    n = draw(st.integers(1, 5))
    sp = space(*[f"x{i}" for i in range(n)])
    m = random_monotone_measure(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), sp,
                                capacity=True)
    f = simple_function(sp, draw(st.lists(LEVEL_VALUES, min_size=n, max_size=n)), bound=_TOP)
    D = draw(st.integers(0, sp.full_mask))  # D = 0 included
    return m, f, D


@settings(max_examples=200, deadline=None)
@given(inst=level_instances(), kind=st.sampled_from(BUILTIN_KINDS))
@example(inst=(from_table(space("a", "b"), [0.0, 0.3, 0.6, 1.0]),
               simple_function(space("a", "b"), [-0.0, 0.0], bound=1.0), 0b11), kind="min")
@example(inst=(from_table(space("a", "b"), [0.0, 0.3, 0.6, 1.0]),
               simple_function(space("a", "b"), [0.5, 0.5], bound=1.0), 0), kind="prod")
# tied levels whose first atom holds an int: the level keeps the int, but t = 1
# of the q-integral stays the literal 1.0
@example(inst=(from_table(space("a", "b", "c"), [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.0]),
               SimpleFunction(space("a", "b", "c"), (1, 0.5, 1.0), 1.0), 0b111), kind="min")
def test_level_walk_matches_the_per_level_loops(inst, kind):
    m, f, D = inst
    op = builtin(kind)
    res = integrate_simple(op, m, D, f)
    assert exact_bits(res.value, res.candidates) == \
        exact_bits(*integrate_simple_reference(op, m, D, f))
    res = q_integral(op, m, f)
    assert exact_bits(res.value, res.candidates) == exact_bits(*q_integral_reference(op, m, f))


def oracle_grid_reference(op, m, D, f, grid_step):
    """``oracle_grid_integral`` in its earlier form: each grid level's mask is
    the axis-1 sum of a (len(ts), n) product of flags and atom bits."""
    ts = axis(0.0, min(op.y_bar, INF_CAP), grid_step, least=0)
    atoms = m.space.atoms_of(D)
    if atoms:
        vals = np.asarray([f.values[i] for i in atoms])
        bits = np.asarray([1 << i for i in atoms], dtype=np.int64)
        masks = ((ts[:, None] <= vals[None, :]) * bits[None, :]).sum(axis=1)
    else:
        masks = np.zeros(ts.shape, dtype=np.int64)
    return float(np.max(integral.apply_op(op, ts, np.asarray(m.table)[masks])))


@settings(max_examples=200, deadline=None)
@given(inst=level_instances(), kind=st.sampled_from(BUILTIN_KINDS),
       step=st.sampled_from([0.3, 0.1, 0.05, 0.01]))
@example(inst=(from_table(space("a", "b"), [0.0, 0.3, 0.6, 1.0]),
               simple_function(space("a", "b"), [-0.0, 0.0], bound=1.0), 0b11),
         kind="min", step=0.1)
@example(inst=(from_table(space("a", "b"), [0.0, 0.3, 0.6, 1.0]),
               SimpleFunction(space("a", "b"), (1, 0.5), 1.0), 0b11), kind="prod", step=0.1)
@example(inst=(from_table(space("a", "b"), [0.0, 0.3, 0.6, 1.0]),
               simple_function(space("a", "b"), [0.5, 0.2], bound=1.0), 0), kind="prod", step=0.1)
def test_oracle_prefix_masks_match_the_product_form(inst, kind, step):
    # the value bit for bit, and the level masks as ints: read through a
    # table that holds each mask's own number, the levels are the masks
    m, f, D = inst
    op = builtin(kind)
    assert oracle_grid_integral(op, m, D, f, step).hex() == \
        oracle_grid_reference(op, m, D, f, step).hex()
    numbered = MonotoneMeasure(m.space, tuple(float(mask) for mask in range(1 << m.space.n)))
    levels = []
    with mock.patch.object(integral, "apply_op", lambda op, ts, level: levels.append(level) or ts):
        oracle_grid_integral(op, numbered, D, f, step)
        oracle_grid_reference(op, numbered, D, f, step)
    new, old = levels
    assert new.dtype == old.dtype and np.array_equal(new, old)
