"""Scalar conditions, integral inequalities, pipelines and searches."""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebint import chebyshev, fusion, scan

from chebint.chebyshev import (
    CdDomain,
    HypothesisError,
    PipelineReport,
    ShapeDomainError,
    Stage,
    any_functions_check,
    c1_iff_c2,
    c2_condition_at,
    cd_interval,
    cd_values,
    check_condition_C2,
    check_integral_inequality,
    check_scalar_condition,
    config,
    identity_shape,
    liapunov_check,
    power_shape,
    q_corollary_condition,
    scalar_condition_at,
    search_commutativity_gap,
    search_counterexample,
    shape,
    sugeno_chebyshev,
    theorem1_forward,
)
from chebint.fusion import expr_op, godel_contra_op, godel_op, lukasiewicz_op, min_op, prod_op
from chebint.integral import SimpleFunction, integrate_simple, simple_function
from chebint.measure import from_table, necessity_from_possibility, space
from chebint.randgen import random_monotone_measure


# ---------------------------------------------------------------------------
# Shape functions
# ---------------------------------------------------------------------------


class TestShapeFunction:
    def test_power_apply_and_inverse(self):
        sq = power_shape(2)
        assert sq.apply(0.5) == pytest.approx(0.25)
        assert sq.apply_inverse(0.25) == pytest.approx(0.5)

    def test_identity_round_trip(self):
        ident = identity_shape()
        xs = np.linspace(0, 1, 11)
        assert np.allclose(ident.apply(xs), xs)
        assert np.allclose(ident.apply_inverse(xs), xs)

    def test_domain_error_message(self):
        sq = power_shape(2)
        with pytest.raises(ShapeDomainError, match="is not defined"):
            sq.apply(1.5)

    def test_memoized_shapes_equal_fresh_constructions(self):
        flags = dict(non_decreasing=True, increasing=True,
                     left_continuous=True, right_continuous=True)
        assert identity_shape() is identity_shape()
        assert identity_shape() == shape("id", "x", inverse="x", domain=(0.0, 1.0), **flags)
        assert power_shape(2, 3.0) is power_shape(2, 3.0)
        assert power_shape(2, 3.0) == shape("x^2", "x^2", inverse="x^0.5",
                                            domain=(0.0, 3.0), **flags)
        assert power_shape(0.5).apply(0.25) == 0.5

    def test_memoized_shapes_keep_the_argument_types(self):
        # y_bar=1 and y_bar=1.0 are equal keys unless the cache is typed
        for build in (identity_shape, lambda y: identity_shape(y_bar=y), partial(power_shape, 2)):
            assert type(build(1).domain[1]) is int
            assert type(build(1.0).domain[1]) is float
            assert type(build(1).domain[1]) is int
        assert power_shape(2).name == "x^2" and power_shape(2.0).name == "x^2.0"

    @pytest.mark.parametrize("p", [0, 0.0, -1.5])
    def test_power_shape_refuses_a_nonpositive_exponent_on_every_call(self, p):
        for _ in range(3):
            with pytest.raises(ValueError, match="exponent must be positive"):
                power_shape(p)

    def test_inverse_domain_error(self):
        sq = power_shape(2)
        with pytest.raises(ShapeDomainError):
            sq.apply_inverse(-0.5)

    def test_missing_inverse(self):
        s = shape("half", "0.5*x", non_decreasing=True)
        with pytest.raises(HypothesisError, match="no inverse declared"):
            s.apply_inverse(0.25)

    def test_validate_inverse_true(self):
        assert power_shape(3).validate_inverse()

    def test_validate_inverse_catches_mismatch(self):
        bad = shape("bad", "x^2", inverse="x", non_decreasing=True)
        assert not bad.validate_inverse()

    def test_array_apply(self):
        cube = power_shape(3)
        out = np.asarray(cube.apply(np.array([0.0, 0.5, 1.0])))
        assert np.allclose(out, [0.0, 0.125, 1.0])


class TestCdDomain:
    def test_values_sample_sorted(self):
        dom = cd_values([1.0, 0.0, 0.5])
        assert dom.exact
        assert dom.sup == 1.0
        assert np.allclose(dom.sample(0.01), [0.0, 0.5, 1.0])

    def test_interval_sample(self):
        dom = cd_interval(0.0, 1.0)
        assert not dom.exact
        assert np.allclose(dom.sample(0.5), [0.0, 0.5, 1.0])

    def test_exactly_one_kind_required(self):
        with pytest.raises(ValueError):
            CdDomain()
        with pytest.raises(ValueError):
            CdDomain(values=(0.0,), interval=(0.0, 1.0))

    def test_empty_values_refused(self):
        # an empty set has no supremum for the scalar scan to read
        for build in (lambda: cd_values([]), lambda: CdDomain(values=())):
            with pytest.raises(ValueError, match="at least one value"):
                build()


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


def identity_triple():
    ident = identity_shape()
    return (ident, ident, ident)


def w_config(cd):
    """Product inner/outer with Lukasiewicz level fusion and identity shapes."""
    w = lukasiewicz_op()
    return config(prod_op(), prod_op(), (w, w, w), min_op(),
                  identity_triple(), identity_triple(), cd_domain=cd)


class TestConfigValidate:
    def test_k_must_be_positive(self):
        cfg = w_config(cd_values([0.0, 1.0]))
        from dataclasses import replace
        with pytest.raises(HypothesisError, match="k="):
            replace(cfg, k=0.0).validate()

    def test_k_cannot_exceed_y_bar(self):
        from dataclasses import replace
        cfg = w_config(cd_values([0.0, 1.0]))
        with pytest.raises(HypothesisError, match="k="):
            replace(cfg, k=1.5).validate()

    def test_circ_must_respect_phi_top(self):
        add = expr_op("add", "a+b", non_decreasing=True)
        cfg = config(prod_op(), prod_op(), (add, min_op(), min_op()), min_op(),
                     identity_triple(), identity_triple(),
                     cd_domain=cd_values([0.0, 1.0]))
        with pytest.raises(HypothesisError, match="exceeds"):
            cfg.validate()

    def test_ops_must_declare_monotonicity(self):
        tri = expr_op("bare", "a*b")  # no non_decreasing flag
        cfg = config(prod_op(), prod_op(), (min_op(), min_op(), min_op()), tri,
                     identity_triple(), identity_triple(),
                     cd_domain=cd_values([0.0, 1.0]))
        with pytest.raises(HypothesisError, match="not declared non-decreasing"):
            cfg.validate()

    def test_valid_config_passes(self):
        w_config(cd_values([0.0, 1.0])).validate()

    def test_phi_top_past_circ_y_bar_is_a_hypothesis_failure(self):
        # phi(y_bar) = 2 lies outside min's [0, 1]: eval_op's FusionError
        # used to escape validate
        cfg = replace(_double_phi_config(), cd_domain=cd_values([0.0, 1.0]))
        with pytest.raises(HypothesisError, match=r"^phi1\(y_bar\) circ1 sup\(cd\): argument 2.0 "
                                                  r"outside \[0, 1.0\] for operation 'min'$"):
            cfg.validate()


def _double_phi_config():
    """phi = 2*x, min everywhere: phi(y_bar) and phi's values lie past min's y_bar."""
    mn, double = min_op(), shape("2x", "2*x")
    return config(mn, mn, (mn,) * 3, mn, (double,) * 3, identity_triple())


def test_config_failures_are_report_entries(sp2):
    # theorem1_forward and any_functions_check used to raise the FusionError
    # of validate's probes, and the IntegralError of the integrals ("function
    # bound exceeds the operation's y_bar"); check_scalar_condition raised the
    # first.  Each now reports them as hypothesis-failed
    cfg, m = _double_phi_config(), from_table(sp2, [0.0, 0.4, 0.6, 1.0])
    f, g = simple_function(sp2, [0.3, 0.8]), simple_function(sp2, [0.5, 0.2])
    probe = "phi1(y_bar) circ1 sup(cd): argument 2.0 outside [0, 1.0] for operation 'min'"
    bound = "function bound exceeds the operation's y_bar"
    verdict = check_scalar_condition(replace(cfg, cd_domain=cd_values(m.value_range())), 0.1)
    assert (verdict.status, verdict.detail) == ("hypothesis-failed", probe)
    report = theorem1_forward(cfg, m, f, g, 0b11, 0b11, grid_step=0.1)
    stages = {s.name: (s.status, s.detail) for s in report.stages}
    assert stages["config-hypotheses"] == stages["scalar-condition"] == ("hypothesis-failed", probe)
    assert stages["integral-inequality"] == ("hypothesis-failed", bound)
    assert report.status == "hypothesis-failed" and report.outcome is None
    report = any_functions_check(cfg, m, trials=3, grid_step=0.1)
    assert report.stages[-1] == Stage("random-trials", "hypothesis-failed", bound)
    assert report.stages[-2] == Stage("scalar-condition", "hypothesis-failed", probe)


# ---------------------------------------------------------------------------
# Scalar conditions
# ---------------------------------------------------------------------------


class TestScalarCondition:
    def test_two_valued_domain_holds(self):
        verdict = check_scalar_condition(w_config(cd_values([0.0, 1.0])))
        assert verdict.status == "holds-on-grid"

    def test_unit_interval_violated(self):
        verdict = check_scalar_condition(w_config(cd_interval(0.0, 1.0)), grid_step=0.05)
        assert verdict.status == "violated"
        lhs, rhs = scalar_condition_at(w_config(cd_interval(0.0, 1.0)), *verdict.witness)
        assert lhs < rhs - 1e-9

    def test_recheck_point(self):
        lhs, rhs = scalar_condition_at(w_config(cd_interval(0.0, 1.0)),
                                       0.5, 0.5, 0.75, 0.75)
        assert lhs == pytest.approx(0.0)
        assert rhs == pytest.approx(0.0625)

    def test_hypothesis_failure_reported(self):
        add = expr_op("add", "a+b", non_decreasing=True)
        cfg = config(prod_op(), prod_op(), (add, min_op(), min_op()), min_op(),
                     identity_triple(), identity_triple(),
                     cd_domain=cd_values([0.0, 1.0]))
        verdict = check_scalar_condition(cfg)
        assert verdict.status == "hypothesis-failed"
        assert "exceeds" in verdict.detail


class TestConditionC2:
    def test_matches_full_condition_on_w_configs(self):
        holds_cfg = w_config(cd_values([0.0, 1.0]))
        fails_cfg = w_config(cd_interval(0.0, 1.0))
        assert check_condition_C2(holds_cfg).status == "holds-on-grid"
        assert check_condition_C2(fails_cfg, grid_step=0.05).status == "violated"

    def test_point_evaluation_uses_domain_sup(self):
        cfg = w_config(cd_interval(0.0, 1.0))
        lhs, rhs = c2_condition_at(cfg, 0.5, 0.5, 0.75)
        direct = max(scalar_condition_at(cfg, 0.5, 0.5, 0.75, 1.0)[1],
                     scalar_condition_at(cfg, 0.5, 0.5, 1.0, 0.75)[1])
        assert rhs == pytest.approx(direct)

    def test_equivalence_report(self):
        rep = c1_iff_c2(w_config(cd_values([0.0, 1.0])))
        assert rep.agree
        assert not rep.disagreement_is_bug

    def test_equivalence_builds_the_right_tables_once(self, monkeypatch):
        built = []
        real = chebyshev._right_tables
        monkeypatch.setattr(chebyshev, "_right_tables",
                            lambda *args: built.append(args) or real(*args))
        for cfg in (w_config(cd_values([0.0, 1.0])), w_config(cd_interval(0.0, 1.0))):
            built.clear()
            rep = c1_iff_c2(cfg, grid_step=0.1)
            assert len(built) == 1
            assert (rep.c1, rep.c2) == (check_scalar_condition(cfg, 0.1),
                                        check_condition_C2(cfg, 0.1))


# ---------------------------------------------------------------------------
# Integral inequality
# ---------------------------------------------------------------------------


@pytest.fixture
def sp2():
    return space("a1", "a2")


class TestIntegralInequality:
    def test_power_shape_equality(self, sp2):
        # matched powers make both sides exactly 0.42
        m = from_table(sp2, [0.0, 0.9, 0.2, 1.0])
        mn = min_op()
        cfg = config(prod_op(), prod_op(), (mn, mn, mn), mn,
                     (power_shape(2), identity_shape(), power_shape(3)),
                     (power_shape(0.5), identity_shape(), power_shape(1 / 3)),
                     cd_domain=cd_values(m.value_range()))
        f = simple_function(sp2, [0.6, 0.0])
        g = simple_function(sp2, [0.7, 0.0])
        out = check_integral_inequality(cfg, m, f, g, 0b01, 0b01)
        assert out.holds
        assert out.lhs == pytest.approx(0.42)
        assert out.rhs == pytest.approx(0.42)

    def test_lukasiewicz_violation(self, sp2):
        # with W fusion the right side outruns the left on this measure
        m = from_table(sp2, [0.0, 0.9, 0.0, 1.0])
        w = lukasiewicz_op()
        cfg = config(w, w, (w, w, w), min_op(),
                     (power_shape(2), power_shape(2), power_shape(2)),
                     (power_shape(0.5), power_shape(0.5), power_shape(0.5)),
                     cd_domain=cd_values(m.value_range()))
        f = simple_function(sp2, [0.5, 0.0])
        g = simple_function(sp2, [0.8, 0.0])
        out = check_integral_inequality(cfg, m, f, g, 0b01, 0b01)
        assert not out.holds
        assert out.lhs == pytest.approx(0.0)
        assert out.rhs == pytest.approx(0.1221452, abs=1e-6)
        assert set(out.trace) == {"integral_product", "integral_f", "integral_g"}

    def test_zero_functions_trivially_hold(self, sp2):
        m = from_table(sp2, [0.0, 0.5, 0.5, 1.0])
        cfg = w_config(cd_values(m.value_range()))
        z = simple_function(sp2, [0.0, 0.0])
        out = check_integral_inequality(cfg, m, z, z, 0b11, 0b11)
        assert out.holds
        assert out.lhs == pytest.approx(0.0)
        assert out.rhs == pytest.approx(0.0)


def check_integral_inequality_reference(cfg, m, f, g, A, B):
    """``check_integral_inequality`` in its earlier form: each integrand is a
    SimpleFunction built by ``combine`` and ``transform``, each integral an
    IntegralResult of ``integrate_simple``."""
    fg = f.combine(g, cfg.inner)
    i1 = integrate_simple(cfg.circ1, m, A & B, fg.transform(cfg.phi1.apply))
    i2 = integrate_simple(cfg.circ2, m, A, f.transform(cfg.phi2.apply))
    i3 = integrate_simple(cfg.circ3, m, B, g.transform(cfg.phi3.apply))
    lhs = float(cfg.psi1.apply(i1.value))
    rhs = fusion.eval_op(cfg.outer, float(cfg.psi2.apply(i2.value)),
                         float(cfg.psi3.apply(i3.value)))
    trace = {
        "integral_product": {"value": i1.value, "method": i1.method, "candidates": i1.candidates},
        "integral_f": {"value": i2.value, "method": i2.method, "candidates": i2.candidates},
        "integral_g": {"value": i3.value, "method": i3.method, "candidates": i3.candidates},
    }
    return chebyshev.InequalityOutcome(lhs, float(rhs), lhs >= rhs - scan.TOL, trace)


def outcome_or_error(check, *args):
    """The repr of an outcome's fields, or the type and message of what it raised."""
    try:
        out = check(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)
    return repr((out.lhs, out.rhs, out.holds, out.trace))


_FLAGS = dict(non_decreasing=True, left_continuous_in_first=True,
              left_continuous_in_second=True)
DIFF_OPS = (min_op(), prod_op(), lukasiewicz_op(), godel_op(), godel_contra_op(),
            expr_op("e-prod", "a*b", **_FLAGS), expr_op("e-root", "(a*b)^0.5", non_decreasing=True))
DIFF_SHAPES = (identity_shape(), power_shape(2), power_shape(0.5))
# ties, both zeros and an int among arbitrary values
DIFF_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1, 1.0]), st.floats(0.0, 1.0))
# what an instance may get wrong; two faults show which one is raised first
FAULTS = ("undeclared-op", "low-y-bar", "narrow-shape", "double-shape", "g-space", "m-space",
          "mask")


@st.composite
def inequality_instances(draw):
    n = draw(st.integers(1, 3))
    sp = space(*[f"x{i}" for i in range(n)])
    other = space(*[f"y{i}" for i in range(n)])
    faults = draw(st.sets(st.sampled_from(FAULTS), max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_monotone_measure(rng, other if "m-space" in faults else sp,
                                capacity=draw(st.booleans()))
    values = st.lists(DIFF_VALUES, min_size=n, max_size=n).map(tuple)
    f = SimpleFunction(sp, draw(values), 1.0)
    g = SimpleFunction(other if "g-space" in faults else sp, draw(values), 1.0)
    ops = [draw(st.sampled_from(DIFF_OPS)) for _ in range(5)]  # inner, outer, circ1..3
    shapes = [draw(st.sampled_from(DIFF_SHAPES)) for _ in range(6)]  # phi1..3, psi1..3
    if "undeclared-op" in faults:
        ops[draw(st.integers(0, 4))] = expr_op("e-undeclared", "min(a, b)")
    if "low-y-bar" in faults:
        ops[draw(st.integers(0, 4))] = min_op(y_bar=0.5)
    if "narrow-shape" in faults:
        shapes[draw(st.integers(0, 5))] = shape("narrow", "x", domain=(0.0, 0.5))
    if "double-shape" in faults:  # values past y_bar
        shapes[draw(st.integers(0, 5))] = shape("double", "2*x")
    cfg = config(ops[0], ops[1], ops[2:], min_op(), shapes[:3], shapes[3:],
                 cd_domain=cd_values([0.0, 1.0]))
    A, B = draw(st.integers(0, sp.full_mask)), draw(st.integers(0, sp.full_mask))  # 0 included
    if "mask" in faults:
        A = sp.full_mask + 1
    return cfg, m, f, g, A, B


_SP2 = space("a", "b")
_M2 = from_table(_SP2, [0.0, 0.3, 0.6, 1.0])
_IDENT = config(min_op(), min_op(), (min_op(),) * 3, min_op(), (identity_shape(),) * 3,
                (identity_shape(),) * 3, cd_domain=cd_values([0.0, 1.0]))


@settings(max_examples=300, deadline=None)
@given(inst=inequality_instances())
# tied signed zeros: the level keeps the value at the lowest atom
@example(inst=(_IDENT, _M2, SimpleFunction(_SP2, (-0.0, 0.0), 1.0),
               SimpleFunction(_SP2, (0.0, -0.0), 1.0), 0b11, 0b11))
# a value outside the narrow shape's domain
@example(inst=(replace(_IDENT, phi2=shape("narrow", "x", domain=(0.0, 0.5))), _M2,
               SimpleFunction(_SP2, (0.75, 0.25), 1.0), SimpleFunction(_SP2, (0.5, 1), 1.0),
               0b01, 0b10))
# two faults: the shape refuses f*g before the measure's space is compared
@example(inst=(replace(_IDENT, phi1=shape("narrow", "x", domain=(0.0, 0.5))),
               from_table(space("c", "d"), [0.0, 0.3, 0.6, 1.0]),
               SimpleFunction(_SP2, (0.75, 0.25), 1.0), SimpleFunction(_SP2, (1.0, 1.0), 1.0),
               0b11, 0b11))
def test_lean_inequality_matches_the_object_building_form(inst):
    assert outcome_or_error(check_integral_inequality, *inst) == \
        outcome_or_error(check_integral_inequality_reference, *inst)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


class TestTheoremForwardPipeline:
    def test_necessity_pipeline_passes(self):
        sp = space("w1", "w2", "w3")
        m = necessity_from_possibility(sp, [1.0, 0.7, 0.4])
        mn = min_op()
        cfg = config(prod_op(), prod_op(), (mn, mn, mn), mn,
                     identity_triple(), identity_triple(),
                     cd_domain=cd_values(m.value_range()))
        f = simple_function(sp, [0.9, 0.6, 0.3])
        g = simple_function(sp, [0.8, 0.5, 0.2])
        report = theorem1_forward(cfg, m, f, g, 0b111, 0b111)
        assert report.ok
        assert report.status == "holds"
        assert report.outcome is not None and report.outcome.holds
        names = [s.name for s in report.stages]
        assert names == ["config-hypotheses", "m-positive-dependence",
                         "scalar-condition", "integral-inequality"]

    def test_failed_dependence_is_reported_not_raised(self, sp2):
        # disjoint supports: {f >= 0.5} and {g >= 0.5} meet in a null set
        m = from_table(sp2, [0.0, 0.75, 0.5, 1.0])
        pr, mn = prod_op(), min_op()
        cfg = config(pr, pr, (mn, mn, mn), mn,
                     identity_triple(), identity_triple(),
                     cd_domain=cd_values(m.value_range()))
        f = simple_function(sp2, [0.5, 0.0])
        g = simple_function(sp2, [0.0, 0.5])
        report = theorem1_forward(cfg, m, f, g, 0b11, 0b11)
        assert not report.ok
        stage = {s.name: s for s in report.stages}["m-positive-dependence"]
        assert stage.status == "fail"
        # a fail after fully passing hypotheses would be a contradiction event
        assert report.contradiction == (
            report.stages[-1].status == "fail"
            and all(s.status == "pass" for s in report.stages[:-1]))


class TestComonotonePipeline:
    @pytest.fixture
    def setup(self):
        sp = space("x1", "x2", "x3")
        m = from_table(sp, [0.0, 0.2, 0.3, 0.5, 0.5, 0.6, 0.8, 1.0])
        f = simple_function(sp, [0.9, 0.6, 0.3])
        g = simple_function(sp, [0.8, 0.5, 0.2])
        return sp, m, f, g

    def test_comonotone_pair_holds(self, setup):
        sp, m, f, g = setup
        report = sugeno_chebyshev(m, f, g, 0b111, identity_triple(),
                                  identity_triple(), min_op())
        assert report.ok
        assert report.outcome.holds

    def test_non_comonotone_pair_flagged(self, setup):
        sp, m, f, _ = setup
        h = simple_function(sp, [0.1, 0.9, 0.2])
        report = sugeno_chebyshev(m, f, h, 0b111, identity_triple(),
                                  identity_triple(), min_op())
        stage = {s.name: s for s in report.stages}["comonotonicity"]
        assert stage.status == "fail"

    def test_psi_dominance_guard(self, setup):
        sp, m, f, g = setup
        # psi1 = x^2 sits below psi2 = sqrt(x) on (0, 1)
        report = sugeno_chebyshev(
            m, f, g, 0b111,
            (power_shape(0.5), power_shape(2), power_shape(2)),
            (power_shape(2), power_shape(0.5), power_shape(0.5)), min_op())
        stage = {s.name: s for s in report.stages}["psi1-dominates"]
        assert stage.status == "hypothesis-failed"

    def test_liapunov_reduction(self, setup):
        sp, m, f, _ = setup
        report = liapunov_check(m, f, 0b111,
                                power_shape(2), power_shape(0.5),
                                power_shape(0.5), power_shape(2))
        assert report.ok
        assert report.outcome.holds


class TestAnyFunctionsPipeline:
    def test_necessity_measure_passes(self):
        sp = space("w1", "w2", "w3")
        m = necessity_from_possibility(sp, [1.0, 0.7, 0.4])
        mn = min_op()
        cfg = config(mn, mn, (mn, mn, mn), mn, identity_triple(),
                     identity_triple(), cd_domain=cd_values(m.value_range()))
        report = any_functions_check(cfg, m, trials=50, seed=3)
        assert report.ok

    def test_requires_matching_inner_outer(self):
        sp = space("w1", "w2")
        m = from_table(sp, [0.0, 0.5, 0.5, 1.0])
        mn = min_op()
        cfg = config(mn, prod_op(), (mn, mn, mn), mn, identity_triple(),
                     identity_triple(), cd_domain=cd_values(m.value_range()))
        report = any_functions_check(cfg, m, trials=5)
        assert report.status == "hypothesis-failed"
        assert report.stages[0].name == "outer-equals-inner"

    def test_outer_and_inner_compare_as_operations(self):
        sp = space("w1", "w2")
        m = from_table(sp, [0.0, 0.5, 0.5, 1.0])
        mn = min_op()
        flags = dict(non_decreasing=True, left_continuous_in_first=True,
                     left_continuous_in_second=True)
        for outer, inner, status in (
                (expr_op("custom", "a*b", **flags), expr_op("custom", "min(a, b)", **flags),
                 "hypothesis-failed"),
                (expr_op("p", "a*b", **flags), expr_op("q", "a*b", **flags), "pass")):
            cfg = config(inner, outer, (mn, mn, mn), mn, identity_triple(),
                         identity_triple(), cd_domain=cd_values(m.value_range()))
            stage = any_functions_check(cfg, m, trials=1).stages[0]
            assert (stage.name, stage.status) == ("outer-equals-inner", status)

    def test_measure_stage_reports_its_range_escape_warnings(self):
        # prod leaves range(m) = {0, 0.3, 1} at 0.3 * 0.3, yet every pair of
        # sets supports it: the passing stage names the escape, as the
        # theorem-forward dependence stage does (its detail used to be empty)
        m = from_table(space("w1", "w2"), [0.0, 0.0, 0.3, 1.0])
        pr, mn = prod_op(), min_op()
        cfg = config(pr, pr, (mn, mn, mn), pr, identity_triple(), identity_triple(),
                     cd_domain=cd_values(m.value_range()))
        stage = any_functions_check(cfg, m, trials=1).stages[1]
        assert (stage.name, stage.status, stage.detail) == (
            "measure-supports-all-pairs", "pass",
            "triangle 'prod' leaves range(m) at (c,d)=(0.3, 0.3)")


    @pytest.mark.parametrize("trials", [0, -3])
    def test_refuses_a_trial_count_below_one(self, trials):
        # a count below one would make a passing stage out of no trials
        m = from_table(space("w1", "w2"), [0.0, 0.5, 0.5, 1.0])
        mn = min_op()
        cfg = config(mn, mn, (mn, mn, mn), mn, identity_triple(),
                     identity_triple(), cd_domain=cd_values(m.value_range()))
        with pytest.raises(ValueError, match="trials must be a positive count"):
            any_functions_check(cfg, m, trials=trials)


def random_trials_reference(cfg, m, trials, seed):
    """The random-trials stage and outcome of ``any_functions_check`` as its
    earlier loop drew them: one draw call per function and per mask, each
    instance checked by ``check_integral_inequality_reference``."""
    rng = np.random.default_rng(seed)
    n = m.space.n
    failures = 0
    first = None
    outcome = None
    for _ in range(trials):
        f = simple_function(m.space, rng.uniform(0.0, cfg.k, n), bound=cfg.k)
        g = simple_function(m.space, rng.uniform(0.0, cfg.k, n), bound=cfg.k)
        A = int(rng.integers(1, m.space.full_mask + 1))
        B = int(rng.integers(1, m.space.full_mask + 1))
        try:
            outcome = check_integral_inequality_reference(cfg, m, f, g, A, B)
        except HypothesisError as exc:
            return Stage("random-trials", "hypothesis-failed", str(exc)), None
        if not outcome.holds:
            failures += 1
            if first is None:
                first = (f.values, g.values, A, B, outcome.lhs, outcome.rhs)
    return Stage("random-trials", "pass" if failures == 0 else "fail",
                 f"{trials} trials, {failures} violations, seed {seed}"
                 + (f", first {first}" if first else "")), outcome


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_batched_draws_match_the_per_call_loop(n):
    sp = space(*[f"w{i}" for i in range(n)])
    m = random_monotone_measure(np.random.default_rng(n), sp, capacity=True)
    mn, w = min_op(), lukasiewicz_op()
    configs = (  # holds; violated, so the detail names the first violation; a shape refusal
        config(mn, mn, (mn, mn, mn), mn, identity_triple(), identity_triple()),
        config(prod_op(), prod_op(), (w, w, w), mn, (power_shape(2),) * 3,
               (power_shape(0.5),) * 3),
        config(mn, mn, (mn, mn, mn), mn, (shape("narrow", "x", domain=(0.0, 0.5)),) * 3,
               identity_triple()))
    for cfg in configs:
        for k, seed, trials in ((0.7, 0, 1), (0.7, 3, 25), (1.0, 7, 40), (0.35, 11, 8)):
            cfg = replace(cfg, k=k)
            report = any_functions_check(cfg, m, trials=trials, seed=seed, grid_step=0.1)
            stage, outcome = random_trials_reference(cfg, m, trials, seed)
            assert repr(report) == repr(PipelineReport(report.stages[:-1] + (stage,), outcome))


# ---------------------------------------------------------------------------
# q-integral corollary condition
# ---------------------------------------------------------------------------


class TestQCorollary:
    def test_godel_violated_on_boundary_slice(self):
        verdict = q_corollary_condition(godel_op(), identity_triple(), prod_op())
        assert verdict.status == "violated"
        assert verdict.witness == pytest.approx((0.01, 1.0, 0.01))

    def test_godel_contra_violated(self):
        verdict = q_corollary_condition(godel_contra_op(), identity_triple(), prod_op())
        assert verdict.status == "violated"
        assert verdict.witness == pytest.approx((0.01, 1.0, 0.01))

    def test_product_conjunction_holds(self):
        verdict = q_corollary_condition(prod_op(), identity_triple(), prod_op(),
                                        grid_step=0.05)
        assert verdict.status == "holds-on-grid"

    def test_requires_fuzzy_conjunction_flag(self):
        bare = expr_op("bare", "a*b", non_decreasing=True)
        verdict = q_corollary_condition(bare, identity_triple(), prod_op())
        assert verdict.status == "hypothesis-failed"
        assert "fuzzy_conjunction" in verdict.detail

    def test_requires_inverse(self):
        no_inv = shape("half", "0.5*x", non_decreasing=True)
        verdict = q_corollary_condition(godel_op(), (no_inv, no_inv, no_inv),
                                        prod_op())
        assert verdict.status == "hypothesis-failed"
        assert "inverse" in verdict.detail

    def test_requires_zero_at_origin(self):
        aff = shape("aff", "0.5*x + 0.5", inverse="2*(x - 0.5)",
                    inverse_domain=(0.5, 1.0), non_decreasing=True)
        verdict = q_corollary_condition(godel_op(), (aff, aff, aff), prod_op())
        assert verdict.status == "hypothesis-failed"
        assert "expected 0" in verdict.detail


# ---------------------------------------------------------------------------
# Searches
# ---------------------------------------------------------------------------


class TestSearches:
    def test_counterexample_found_for_interval_domain(self):
        witness = search_counterexample(w_config(cd_interval(0.0, 1.0)),
                                        grid_step=0.05)
        assert witness is not None
        lhs, rhs = scalar_condition_at(w_config(cd_interval(0.0, 1.0)), *witness)
        assert lhs < rhs - 1e-9

    def test_no_counterexample_for_two_valued_domain(self):
        assert search_counterexample(w_config(cd_values([0.0, 1.0]))) is None

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            search_counterexample(w_config(cd_values([0.0, 1.0])), budget=0)

    def test_commutativity_gap_for_asymmetric_op(self):
        asym = expr_op("asym", "a*b^2", non_decreasing=True,
                       left_continuous_in_first=True,
                       left_continuous_in_second=True)
        gap = search_commutativity_gap(asym, prod_op(), grid_step=0.05)
        assert gap is not None
        assert len(gap) == 3

    def test_no_gap_for_min(self):
        assert search_commutativity_gap(min_op(), prod_op(), grid_step=0.1) is None


class TestGridLimit:
    """Grids past MAX_ROW_POINTS are refused before any array of their size is
    built.  Only refused grids run here: an unguarded one would not fit in memory."""

    @staticmethod
    def no_tables(monkeypatch):
        # a scan that got past its row check would build its tables next
        def refuse(*args):
            raise AssertionError("a table was built before the row check")
        monkeypatch.setattr(chebyshev, "apply_op", refuse)
        monkeypatch.setattr(fusion, "apply_op", refuse)

    def test_axes_refuse_before_allocating(self):
        cfg = w_config(cd_interval(0.0, 1.0))
        for build in (lambda: chebyshev._k_grid(cfg, 1e-9),
                      lambda: cd_interval(0.0, 1.0).sample(1e-9),
                      lambda: scan.axis(0.0, 1.0, 5e-324),
                      lambda: scan.axis(float("-inf"), 1.0, 0.1)):
            with pytest.raises(scan.GridError, match="gives more than 16777216 points"):
                build()

    def test_scans_refuse_their_row_before_their_tables(self, monkeypatch):
        self.no_tables(monkeypatch)
        ids = identity_triple()
        cfg = w_config(cd_interval(0.0, 1.0))
        with pytest.raises(scan.GridError, match="row of 125751501 points"):  # 501^3
            check_scalar_condition(cfg, grid_step=0.002)
        with pytest.raises(scan.GridError, match="row of 16818201 points"):  # 4101^2
            check_condition_C2(cfg, grid_step=1 / 4100)
        with pytest.raises(scan.GridError, match="row of 16818201 points"):
            q_corollary_condition(prod_op(), ids, prod_op(), grid_step=1 / 4100)
        with pytest.raises(scan.GridError, match="row of 16818201 points"):
            search_commutativity_gap(prod_op(), prod_op(), grid_step=1 / 4100)
        with pytest.raises(scan.GridError, match="row of 125751501 points"):
            fusion.dominates(min_op(), prod_op(), grid_step=0.002)
        for step in (1e-9, 1e-300):
            with pytest.raises(scan.GridError, match="gives more than"):
                fusion.dominates(min_op(), prod_op(), grid_step=step)

    def test_kernel_refuses_an_oversize_row(self):
        axes = (np.zeros(1), np.zeros(4097), np.zeros(4097))
        built = []
        with pytest.raises(scan.GridError, match="row of 16785409 points"):
            scan.scan(axes, lambda i: built.append(i), lambda *p: (0.0, 0.0), "")
        assert built == []

    def test_h_0_005_c1_row_is_admitted(self):
        scan.check_row(201, 201, 201)

    def test_search_costs_the_grids_the_scan_builds(self, monkeypatch):
        # k = 0.1 at step 0.25 is a 2-point axis, cost 2^2 * 1^2; the old
        # formula counted 1 point and so also afforded the step 0.1 scan
        cfg = replace(w_config(cd_values([1.0])), k=0.1)
        steps = []
        real = chebyshev.check_scalar_condition
        monkeypatch.setattr(chebyshev, "check_scalar_condition",
                            lambda cfg, step: steps.append(step) or real(cfg, step))
        assert search_counterexample(cfg, grid_step=0.1, budget=5) is None
        assert steps == [0.25]
        steps.clear()
        assert search_counterexample(cfg, grid_step=0.1, budget=8) is None
        assert steps == [0.25, 0.1]

    def test_search_skips_steps_past_the_limit(self):
        cfg = w_config(cd_interval(0.0, 1.0))
        witness = search_counterexample(cfg, grid_step=1e-9)
        assert witness is not None
        lhs, rhs = scalar_condition_at(cfg, *witness)
        assert lhs < rhs - 1e-9
