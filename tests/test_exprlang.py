import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chebint.exprlang import (EvalError, ParseError, check_monotone,
                              eval_expr, free_vars, parse, pretty)


def ev(source, **bindings):
    return eval_expr(parse(source), bindings)


class TestParsingAndEvaluation:
    def test_arithmetic(self):
        assert ev("1 + 2*3") == 7.0
        assert ev("(1 + 2)*3") == 9.0
        assert ev("2^3^2") == 512.0  # right-associative power
        assert ev("7 - 2 - 1") == 4.0  # left-associative minus

    def test_variables(self):
        assert ev("x^2 + y", x=3.0, y=1.0) == 10.0

    def test_functions(self):
        assert ev("sqrt(4)") == 2.0
        assert ev("abs(0 - 3)") == 3.0
        assert ev("pos(0.2 - 0.5)") == 0.0
        assert ev("pos(0.5 - 0.2)") == pytest.approx(0.3)
        assert ev("min(2, 3)") == 2.0
        assert ev("max(2, 3)") == 3.0

    def test_indicator(self):
        assert ev("ind[0, 0.5](x)", x=0.25) == 1.0
        assert ev("ind[0, 0.5](x)", x=0.75) == 0.0
        assert ev("x * ind(0.5, 1](x)", x=0.5) == 0.0

    def test_piecewise(self):
        src = "piecewise t { [0, 0.25]: 1 - t ; (0.25, 1]: 0 }"
        assert ev(src, t=0.1) == pytest.approx(0.9)
        assert ev(src, t=0.5) == 0.0

    def test_piecewise_outside_domain(self):
        src = "piecewise t { [0, 0.5]: t }"
        with pytest.raises(EvalError):
            ev(src, t=0.75)

    def test_array_evaluation(self):
        xs = np.linspace(0.0, 1.0, 11)
        out = ev("x^2", x=xs)
        assert np.allclose(out, xs ** 2)

    def test_unary_minus(self):
        assert parse("-x + 1") == parse("(-x) + 1") != parse("x + 1")
        assert ev("-x + 1", x=0.25) == 0.75
        assert ev("1 - -x", x=0.5) == 1.5
        assert ev("2^-1") == 0.5
        xs = np.array([0.0, 0.25, 1.0])
        assert ev("-x + 1", x=xs).tolist() == [1.0, 0.75, 0.0]
        assert ev("1 - -x", x=xs).tolist() == [1.0, 1.25, 2.0]
        assert [pretty(parse(src)) for src in ("-x + 1", "1 - -x", "2^-1")] == [
            "((-x) + 1)", "(1 - (-x))", "(2 ^ (-1))"]
        assert parse(pretty(parse("1 - -x"))) == parse("1 - -x")

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="unbound"):
            ev("x + y", x=1.0)

    def test_parse_error_has_location(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + * 2")
        assert exc.value.col > 0

    def test_parse_is_memoised_by_source(self):
        source = "piecewise t { [0, 0.5]: 1 - t ; (0.5, 1]: 0.5 }"
        assert parse(source) is parse(source)
        assert parse("x + 1") is not parse("x + 2")

    def test_a_parse_error_is_raised_again_not_cached(self):
        errors = []
        for _ in range(3):
            with pytest.raises(ParseError) as exc:
                parse("1 + * 2")
            errors.append(exc.value)
        assert len({id(e) for e in errors}) == 3
        assert {(str(e), e.line, e.col) for e in errors} == {(str(errors[0]), 1, 5)}

    def test_negative_result_rejected(self):
        with pytest.raises(EvalError):
            ev("0 - 1")

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalError):
            ev("sqrt(x - 1)", x=0.5)

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1 / x", x=0.0)

    @pytest.mark.parametrize("size", [2, 1 << 12])  # both of xmul's product forms
    @pytest.mark.parametrize("source, x", [("x + 1.7e308", 1.7e308),
                                           ("x - (0 - 1.7e308)", 1.7e308),
                                           ("x*1e300", 1e10), ("x/1e-300", 1e10)])
    def test_overflow_on_arrays_is_inf_without_a_warning(self, source, x, size):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            got = ev(source, x=np.full(size, x))
            assert ev(source, x=x) == math.inf
        assert got.tolist() == [math.inf] * size

    def test_free_vars(self):
        assert free_vars(parse("x*y + min(z, 1)")) == frozenset({"x", "y", "z"})


class TestPrettyRoundTrip:
    SOURCES = [
        "x^2 + 1",
        "min(a, b)",
        "pos(a + b - 1)",
        "b * ind(0.3, 1](a + b)",
        "piecewise t { [0, 0.5]: 1 ; (0.5, 1]: 1 - t }",
        "sqrt(x) * (1 - x)",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_round_trip(self, source):
        tree = parse(source)
        assert parse(pretty(tree)) == tree

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_pretty_preserves_value(self, a, b):
        tree = parse("pos(a + b - 1)")
        again = parse(pretty(tree))
        assert eval_expr(tree, {"a": a, "b": b}) == eval_expr(again, {"a": a, "b": b})


class TestMonotoneCheck:
    def test_increasing(self):
        verdict = check_monotone(parse("x^2"), "x", 0.0, 1.0, "nondecreasing")
        assert verdict.holds
        assert verdict.status == "holds-on-grid"

    def test_decreasing_witness(self):
        verdict = check_monotone(parse("1 - x"), "x", 0.0, 1.0, "nondecreasing")
        assert not verdict.holds
        assert verdict.witness is not None

    def test_constant_expression(self):
        # a constant used to end in numpy's "diff requires input that is at
        # least one dimensional"
        for direction in ("nondecreasing", "nonincreasing"):
            assert check_monotone(parse("0.5"), "x", 0, 1, direction).holds
        for direction in ("increasing", "decreasing"):
            verdict = check_monotone(parse("0.5"), "x", 0, 1, direction)
            assert not verdict.holds
            assert verdict.witness == ((0.0, 0.5), (0.01, 0.5))
