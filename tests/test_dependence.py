import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebint.dependence import (DependenceQuery, RangeEscapeError, _range_escape_warnings,
                                condition_Z1, is_comonotone,
                                is_m_positively_dependent,
                                measure_supports_all_pairs)
from chebint.fusion import builtin, eval_op, godel_op, lukasiewicz_op, min_op, prod_op
from chebint.integral import SimpleFunction, simple_function
from chebint.measure import from_table, necessity_from_possibility, space
from chebint.randgen import random_comonotone_pair, random_monotone_measure
from chebint.scan import EQ_TOL, TOL, Verdict


@pytest.fixture
def sp():
    return space("w1", "w2")


class TestComonotone:
    def test_sorted_pair(self, sp):
        f = simple_function(sp, [0.1, 0.6])
        g = simple_function(sp, [0.2, 0.9])
        assert is_comonotone(f, g, sp.full_mask).holds

    def test_anti_monotone_witness(self, sp):
        f = simple_function(sp, [0.1, 0.6])
        g = simple_function(sp, [0.9, 0.2])
        verdict = is_comonotone(f, g, sp.full_mask)
        assert not verdict.holds
        assert set(verdict.witness) == {"w1", "w2"}

    def test_restriction_can_restore(self, sp):
        f = simple_function(sp, [0.1, 0.6])
        g = simple_function(sp, [0.9, 0.2])
        assert is_comonotone(f, g, sp.mask_of(["w1"])).holds

    def test_random_generated_pairs(self):
        rng = np.random.default_rng(5)
        sp4 = space("a", "b", "c", "d")
        for _ in range(50):
            f, g = random_comonotone_pair(rng, sp4)
            assert is_comonotone(f, g, sp4.full_mask).holds


class TestPositiveDependence:
    def test_identical_survival_profiles(self, sp):
        m = from_table(sp, [0.0, 0.4, 0.4, 1.0])
        f = simple_function(sp, [0.0, 1.0])
        q = DependenceQuery(m, f, f, sp.full_mask, sp.full_mask,
                            prod_op(), 1.0, allow_range_escape=True)
        verdict = is_m_positively_dependent(q)
        assert verdict.holds
        assert verdict.warnings  # product leaves the measure range

    def test_range_escape_raises_without_override(self, sp):
        m = from_table(sp, [0.0, 0.4, 0.4, 1.0])
        f = simple_function(sp, [0.0, 1.0])
        q = DependenceQuery(m, f, f, sp.full_mask, sp.full_mask,
                            prod_op(), 1.0, allow_range_escape=False)
        with pytest.raises(RangeEscapeError):
            is_m_positively_dependent(q)

    def test_minitive_always_dependent(self):
        rng = np.random.default_rng(9)
        sp3 = space("x1", "x2", "x3")
        for _ in range(30):
            pi = rng.uniform(0.0, 1.0, 3)
            pi[rng.integers(3)] = 1.0
            m = necessity_from_possibility(sp3, pi)
            f = simple_function(sp3, rng.uniform(0.0, 1.0, 3))
            g = simple_function(sp3, rng.uniform(0.0, 1.0, 3))
            A = int(rng.integers(1, 8))
            B = int(rng.integers(1, 8))
            q = DependenceQuery(m, f, g, A, B, min_op(), 1.0)
            assert is_m_positively_dependent(q).holds

    def test_violation_witness_is_lexicographic_first(self, sp):
        # comonotone breaks: f concentrated on w1, g on w2, intersection null
        m = from_table(sp, [0.0, 0.5, 0.5, 1.0])
        f = simple_function(sp, [1.0, 0.0])
        g = simple_function(sp, [0.0, 1.0])
        q = DependenceQuery(m, f, g, sp.full_mask, sp.full_mask,
                            min_op(), 1.0)
        verdict = is_m_positively_dependent(q)
        assert not verdict.holds
        alpha, beta = verdict.witness
        # first failing levels: both positive values
        assert (alpha, beta) == (1.0, 1.0)

    def test_low_range_conjunction_trivially_dependent(self, sp):
        # measure range inside [0, 0.5] makes the strict-threshold
        # conjunction return 0 on the right-hand side
        m = from_table(sp, [0.0, 0.2, 0.3, 0.5])
        rng = np.random.default_rng(11)
        for _ in range(30):
            f = simple_function(sp, rng.uniform(0.0, 1.0, 2))
            g = simple_function(sp, rng.uniform(0.0, 1.0, 2))
            q = DependenceQuery(m, f, g, sp.full_mask, sp.full_mask,
                                godel_op(), 1.0)
            assert is_m_positively_dependent(q).holds


class TestMeasureSupport:
    def test_minitive_supports_min(self):
        sp3 = space("x1", "x2", "x3")
        m = necessity_from_possibility(sp3, [1.0, 0.7, 0.4])
        assert measure_supports_all_pairs(m, min_op()).holds

    def test_additive_fails_min(self, sp):
        m = from_table(sp, [0.0, 0.5, 0.5, 1.0])
        verdict = measure_supports_all_pairs(m, min_op())
        assert not verdict.holds

    def test_supermodular_supports_lukasiewicz(self):
        rng = np.random.default_rng(2)
        sp3 = space("x1", "x2", "x3")
        from chebint.measure import distorted_probability
        for _ in range(10):
            p = rng.uniform(0.1, 1.0, 3)
            p = p / p.sum()
            m = distorted_probability(sp3, list(p), "x^2")
            assert measure_supports_all_pairs(m, lukasiewicz_op(),
                                              allow_range_escape=True).holds


class TestConditionZ1:
    def test_two_valued_measure_with_min(self, sp):
        m = from_table(sp, [0.0, 0.0, 0.0, 1.0])
        assert condition_Z1(m, min_op()).holds

    def test_equal_values_realized_by_same_set(self, sp):
        # c = d = 0.5 is realized by taking C = D = {w1}
        m = from_table(sp, [0.0, 0.5, 0.5, 1.0])
        assert condition_Z1(m, min_op()).holds

    def test_unrealizable_pair_fails_min(self):
        # the only sets of measure 0.5 and 0.7 intersect in sets of measure 0,
        # so the pair (0.5, 0.7) cannot realize 0.5 ^ 0.7
        sp3 = space("x1", "x2", "x3")
        m = from_table(sp3, {0b000: 0.0, 0b001: 0.5, 0b010: 0.7, 0b100: 0.0,
                             0b011: 0.9, 0b101: 0.5, 0b110: 0.7, 0b111: 1.0})
        verdict = condition_Z1(m, min_op())
        assert not verdict.holds
        assert verdict.witness == (0.5, 0.7)


# ---------------------------------------------------------------------------
# The sorted level walk against the per-level loops it replaced
# ---------------------------------------------------------------------------


def level_mask_reference(f, t):
    mask = 0
    for i, v in enumerate(f.values):
        if v >= t:
            mask |= 1 << i
    return mask


def m_positive_reference(q):
    """is_m_positively_dependent with every level set rebuilt inside the loops."""
    warnings = tuple(_range_escape_warnings(q.m, q.triangle, q.allow_range_escape,
                                            with_value=True))

    def grid(f):
        levels = sorted({0.0} | set(f.values))
        if q.k > max(f.values) + EQ_TOL:
            levels.append(q.k)
        return levels

    for alpha in grid(q.f):
        f_mask = level_mask_reference(q.f, alpha) & q.A
        for beta in grid(q.g):
            g_mask = level_mask_reference(q.g, beta) & q.B
            lhs = q.m(f_mask & g_mask)
            rhs = eval_op(q.triangle, q.m(f_mask), q.m(g_mask))
            if lhs < rhs - TOL:
                return Verdict("violated", (alpha, beta), lhs, rhs, f"m(...)={lhs} < {rhs}",
                               "exact", warnings)
    return Verdict("holds", None, None, None, "", "exact", warnings)


LEVEL_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def dependence_queries(draw):
    n = draw(st.integers(1, 4))
    sp = space(*[f"x{i}" for i in range(n)])
    m = random_monotone_measure(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), sp,
                                capacity=draw(st.booleans()))
    f, g = (simple_function(sp, draw(st.lists(LEVEL_VALUES, min_size=n, max_size=n)),
                            bound=1.0) for _ in range(2))
    A, B = (draw(st.integers(0, sp.full_mask)) for _ in range(2))  # 0 included
    k = draw(st.sampled_from([1.0, 1.5]))  # k > max f unless a value is 1.0 at k = 1.0
    tri = builtin(draw(st.sampled_from(["min", "prod", "lukasiewicz", "godel"])))
    return DependenceQuery(m, f, g, A, B, tri, k, allow_range_escape=True)


_SP2 = space("a", "b")
_M2 = from_table(_SP2, [0.0, 0.5, 0.5, 1.0])
_SP3 = space("a", "b", "c")


@settings(max_examples=200, deadline=None)
@given(q=dependence_queries())
@example(q=DependenceQuery(_M2, simple_function(_SP2, [1.0, -0.0]),
                           simple_function(_SP2, [0.0, 1.0]), 0b11, 0b11, min_op(), 1.0))
@example(q=DependenceQuery(_M2, simple_function(_SP2, [0.5, 0.5]),
                           simple_function(_SP2, [0.25, 0.0]), 0, 0b10, prod_op(), 1.5,
                           allow_range_escape=True))
# tied levels whose first atom holds an int: the witness keeps the int
@example(q=DependenceQuery(from_table(_SP3, [0.0, 0.2, 0.2, 0.5, 0.2, 0.5, 0.4, 1.0]),
                           SimpleFunction(_SP3, (1, 0.0, 1.0), 1.0),
                           SimpleFunction(_SP3, (0.0, 1, 1.0), 1.0), 0b111, 0b111, min_op(), 1.0))
# the first violating alpha, 0.9, is a value of f outside A
@example(q=DependenceQuery(from_table(_SP3, [0.0, 0.3, 0.2, 0.5, 0.6, 0.6, 0.7, 1.0]),
                           simple_function(_SP3, [1.0, 0.9, 0.8]),
                           simple_function(_SP3, [0.0, 1.0, 1.0]), 0b101, 0b111, min_op(), 1.0))
def test_level_walk_matches_the_per_level_loops(q):
    got, want = is_m_positively_dependent(q), m_positive_reference(q)
    assert got == want and repr(got) == repr(want)  # repr tells 0.0 from -0.0
