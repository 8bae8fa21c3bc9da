import math

import numpy as np
import pytest

from chebint.extreal import INF
from chebint.fusion import (FusionError, apply_op, builtin, dominates,
                            eval_op, expr_op, godel_contra_op, godel_op,
                            leq_min, lukasiewicz_op, min_op, prod_op,
                            validate_flags)


class TestBuiltins:
    def test_min(self):
        op = min_op()
        assert eval_op(op, 0.3, 0.7) == 0.3
        assert op.semicopula and op.commutative

    def test_prod_zero_times_inf(self):
        op = prod_op(y_bar=INF)
        assert eval_op(op, 0.0, INF) == 0.0
        assert eval_op(op, INF, 0.0) == 0.0

    def test_lukasiewicz(self):
        op = lukasiewicz_op()
        assert eval_op(op, 0.7, 0.7) == pytest.approx(0.4)
        assert eval_op(op, 0.3, 0.6) == 0.0
        assert eval_op(op, 1.0, 0.25) == 0.25  # 1 is neutral
        assert op.semicopula

    def test_godel(self):
        op = godel_op()
        # second argument survives when a > 1 - b
        assert eval_op(op, 0.8, 0.5) == 0.5
        assert eval_op(op, 0.5, 0.5) == 0.0  # boundary is strict
        assert op.fuzzy_conjunction and not op.semicopula
        assert not op.commutative

    def test_godel_contra(self):
        op = godel_contra_op()
        # first argument survives when a > 1 - b
        assert eval_op(op, 0.8, 0.5) == 0.8
        assert eval_op(op, 0.5, 0.5) == 0.0
        assert op.fuzzy_conjunction and not op.commutative

    def test_builtin_lookup(self):
        for name in ("min", "prod", "lukasiewicz", "godel", "godel_contra"):
            assert builtin(name).name == name
        with pytest.raises(FusionError):
            builtin("nope")

    def test_builtins_are_memoised_by_y_bar_type_and_sign(self):
        assert builtin("prod", 1) is builtin("prod", 1) and min_op() is builtin("min", 1.0)
        for first, second in ((1, 1.0), (1.0, 1), (0.0, -0.0), (-0.0, 0.0)):
            a, b = builtin("prod", first), builtin("prod", second)
            assert (type(a.y_bar), math.copysign(1.0, a.y_bar)) == (
                type(first), math.copysign(1.0, first))
            assert (type(b.y_bar), math.copysign(1.0, b.y_bar)) == (
                type(second), math.copysign(1.0, second))
        for _ in range(2):  # an error is not cached
            with pytest.raises(FusionError, match="only defined on"):
                builtin("godel", 0.5)

    def test_eval_op_checks_bounds(self):
        with pytest.raises(FusionError):
            eval_op(min_op(), 1.5, 0.2)

    def test_apply_op_vectorized(self):
        op = lukasiewicz_op()
        a = np.array([0.2, 0.9])
        b = np.array([0.5, 0.5])
        assert np.allclose(apply_op(op, a, b), [0.0, 0.4])


class TestExprOps:
    def test_custom_op(self):
        op = expr_op("ab2", "a*b^2", non_decreasing=True)
        assert eval_op(op, 0.5, 0.4) == pytest.approx(0.08)

    def test_flag_validation_confirms_builtins(self):
        for name in ("min", "prod", "lukasiewicz", "godel", "godel_contra"):
            report = validate_flags(builtin(name), grid_step=0.05)
            assert report.all_confirmed, f"{name}: {report}"

    def test_misdeclared_commutativity_caught(self):
        op = expr_op("ab2", "a*b^2", non_decreasing=True, commutative=True)
        report = validate_flags(op, grid_step=0.05)
        bad = [c for c in report.checks if c.flag == "commutative" and not c.confirmed]
        assert bad and bad[0].witness is not None

    def test_misdeclared_monotonicity_caught(self):
        op = expr_op("dec", "(1 - a)*b", non_decreasing=True)
        report = validate_flags(op, grid_step=0.05)
        bad = [c for c in report.checks if c.flag == "non_decreasing" and not c.confirmed]
        assert bad

    def test_two_point_grid_refused_for_expression_ops(self):
        # the continuity probe's inner grid is empty at this step: it used to
        # end in numpy's "zero-size array to reduction operation maximum"
        for step in (1.0, 0.7):
            with pytest.raises(FusionError, match=rf"^grid step {step} leaves no inner grid "
                               r"point for the continuity probes of 'e' on \[0, 1.0\]$"):
                validate_flags(expr_op("e", "a*b"), grid_step=step)
        # builtins take their continuity from exact truths, not the probe
        assert validate_flags(builtin("prod"), grid_step=1.0).all_confirmed
        assert len(validate_flags(expr_op("e", "a*b"), grid_step=0.5).checks) == 7


class TestDomination:
    def test_min_dominates_lukasiewicz(self):
        assert dominates(min_op(), lukasiewicz_op(), grid_step=0.05).holds

    def test_min_dominates_prod(self):
        assert dominates(min_op(), prod_op(), grid_step=0.05).holds

    def test_lukasiewicz_does_not_dominate_min(self):
        verdict = dominates(lukasiewicz_op(), min_op(), grid_step=0.25)
        assert not verdict.holds
        a, b, c, d = verdict.witness
        lhs = eval_op(lukasiewicz_op(), min(a, b), min(c, d))
        rhs = min(eval_op(lukasiewicz_op(), a, c), eval_op(lukasiewicz_op(), b, d))
        assert lhs < rhs
        assert (verdict.lhs, verdict.rhs) == (lhs, rhs)

    @pytest.mark.parametrize("outer, inner", [(min_op(y_bar=2.0), min_op()),
                                              (min_op(), prod_op(y_bar=0.5))])
    def test_operations_off_the_unit_square_are_refused(self, outer, inner):
        with pytest.raises(FusionError, match=r"requires both operations on \[0,1\]$"):
            dominates(outer, inner, grid_step=0.5)


class TestLeqMin:
    def test_prod_below_min(self):
        assert leq_min(prod_op(), grid_step=0.05).holds

    def test_lukasiewicz_below_min(self):
        assert leq_min(lukasiewicz_op(), grid_step=0.05).holds

    def test_max_not_below_min(self):
        op = expr_op("max2", "max(a, b)", non_decreasing=True)
        assert not leq_min(op, grid_step=0.25).holds
