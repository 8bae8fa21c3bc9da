"""Differential tests: the float fast paths and the vectorised escape check
against the numpy paths and a brute-force reference."""

import itertools
import json
import pickle
from importlib import resources
from unittest import mock

import numpy as np
import pytest

from chebint.chebyshev import ShapeDomainError
from chebint.dependence import triangle_range_escapes
from chebint.exprlang import (EvalError, compile_expr, eval_expr, free_vars, parse,
                              pretty)
from chebint.extreal import as_scalar, xmul
from chebint.fusion import (BUILTIN_KINDS, FusionError, apply_op, builtin,
                            clip_args, eval_op, expr_op)
from chebint.measure import FiniteSpace, MonotoneMeasure
from chebint.scan import TOL
from chebint.randgen import random_capacity
from chebint.scenarios import build_op, build_shape

_ESCAPE_TOL = 1e-9


def bits(x):
    """Bitwise identity of a float result, signed zeros included."""
    return float(x).hex()


def assert_same_up_to_pow(scalar, array):
    """Float evaluation against array evaluation of one expression.

    Float ``^`` is the C library's pow and the array path is numpy's, which
    can differ in the last place (and in the sign of a zero result).
    """
    np.testing.assert_array_max_ulp(np.asarray(scalar, dtype=float),
                                    np.asarray(array, dtype=float), maxulp=2)


# ---------------------------------------------------------------------------
# Range escapes
# ---------------------------------------------------------------------------


def first_escape_reference(m, tri):
    """The O(|range(m)|^3) scan: every pair against every range value."""
    rng = m.value_range()
    for c in rng:
        for d in rng:
            out = eval_op(tri, c, d)
            if not any(abs(out - r) <= _ESCAPE_TOL for r in rng):
                return (c, d, out)
    return None


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (FusionError, EvalError) as exc:
        return (type(exc).__name__, str(exc))


def triangles():
    ops = [builtin(kind) for kind in BUILTIN_KINDS]
    ops.append(expr_op("ab2", "a*b^2"))
    ops.append(expr_op("sqrt-sum", "min(sqrt(a*b) + 0.1*a, 1)"))
    return ops


def random_measures(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 2 + i % 4
        m = random_capacity(rng, FiniteSpace(tuple(f"x{j}" for j in range(n))))
        yield m
        # rounding is monotone, so the rounded table is a capacity with
        # repeated values
        yield MonotoneMeasure(m.space, tuple(round(v, 1) for v in m.table))


@pytest.mark.parametrize("tri", triangles(), ids=lambda op: op.name)
def test_first_escape_matches_reference(tri):
    checked = escaped = 0
    for m in random_measures(seed=7, count=40):
        want = outcome(first_escape_reference, m, tri)
        got = outcome(triangle_range_escapes, m, tri)
        assert got == want, m.table
        checked += 1
        escaped += want[0] == "value" and want[1] is not None
    assert checked == 80
    if tri.name not in ("min", "godel", "godel_contra"):  # these return an argument or 0
        assert escaped > 0


def test_escape_errors_match_reference():
    sp = FiniteSpace(("x1", "x2"))
    too_big = MonotoneMeasure(sp, (0.0, 0.4, 1.5, 2.0))
    for tri in (builtin("lukasiewicz"), builtin("godel")):
        want = outcome(first_escape_reference, too_big, tri)
        assert want[0] == "FusionError" and "argument 1.5 outside" in want[1]
        assert outcome(triangle_range_escapes, too_big, tri) == want
    # negative values at some pairs: the error names the first such pair
    m = MonotoneMeasure(sp, (0.0, 0.3, 0.6, 1.0))
    diff = expr_op("diff", "a - b")
    want = outcome(first_escape_reference, m, diff)
    assert want == ("EvalError", "negative final value -0.3")
    assert outcome(triangle_range_escapes, m, diff) == want


def test_escape_check_scales_past_eight_atoms():
    rng = np.random.default_rng(3)
    m = random_capacity(rng, FiniteSpace(tuple(f"x{j}" for j in range(10))))
    assert len(m.value_range()) == 1024
    c, d, value = triangle_range_escapes(m, builtin("lukasiewicz"))
    assert value == eval_op(builtin("lukasiewicz"), c, d)


# ---------------------------------------------------------------------------
# Scalar eval_op
# ---------------------------------------------------------------------------


def unit_points():
    edge = [0.0, -0.0, 1.0, 0.5, 0.25, 0.75, 1e-300, 1 - 2**-53, 0.1, 0.9, 0.3, 0.7]
    rand = np.random.default_rng(11).uniform(0.0, 1.0, 40).tolist()
    return edge + rand


def op_cases():
    cases = [(builtin(kind), unit_points()) for kind in BUILTIN_KINDS]
    wide = unit_points() + [2.0, 1e6, 1e300, float("inf")]
    cases.append((builtin("min", y_bar=float("inf")), wide))
    cases.append((builtin("prod", y_bar=float("inf")), wide))
    cases.append((builtin("prod", y_bar=2.0), unit_points() + [1.5, 2.0]))
    return cases


@pytest.mark.parametrize("op, points", op_cases(),
                         ids=lambda v: f"{v.name}-{v.y_bar}" if hasattr(v, "kind") else "")
def test_float_eval_op_is_bitwise_apply_op(op, points):
    with np.errstate(over="ignore"):
        check_bitwise(op, points)


def check_bitwise(op, points):
    for a in points:
        for b in points:
            want = float(apply_op(op, np.array(a), np.array(b)))
            assert bits(eval_op(op, a, b)) == bits(want), (a, b)
            # numpy scalars skip the float path and must agree with it
            assert bits(eval_op(op, np.float64(a), np.float64(b))) == bits(want), (a, b)


@pytest.mark.parametrize("op", [builtin(kind) for kind in BUILTIN_KINDS]
                         + [builtin("prod", y_bar=float("inf")), expr_op("ab2", "a*b^2")],
                         ids=lambda op: f"{op.name}-{op.y_bar}")
def test_eval_op_rejects_nan_and_out_of_range(op):
    for bad in (float("nan"), -0.01, op.y_bar + 0.01, -float("inf")):
        if bad == op.y_bar + 0.01 and op.y_bar == float("inf"):
            continue
        message = f"argument {bad} outside [0, {op.y_bar}] for operation {op.name!r}"
        for args in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(FusionError) as exc:
                eval_op(op, *args)
            assert str(exc.value) == message
        with pytest.raises(FusionError) as exc:
            clip_args(op, [0.5, bad, 0.2])
        assert str(exc.value) == message


def test_eval_op_clamps_within_tolerance():
    op = builtin("lukasiewicz")
    assert eval_op(op, 1.0 + 5e-10, 0.5) == float(apply_op(op, 1.0, 0.5))
    assert eval_op(op, -5e-10, 1.0) == float(apply_op(op, 0.0, 1.0))


def eval_op_reference(op, a, b):
    """eval_op with its argument guard as a loop over (a, b) and its clamp as min/max."""
    for val in (a, b):
        if not (-TOL <= val <= op.y_bar + TOL):
            raise FusionError(f"argument {val} outside [0, {op.y_bar}] for operation {op.name!r}")
    a = min(max(a, 0.0), op.y_bar)
    b = min(max(b, 0.0), op.y_bar)
    return eval_op(op, a, b)  # in range, so its own guard and clamp pass them through


def typed_outcome(fn, *args):
    try:
        value = fn(*args)
    except FusionError as exc:
        return ("error", str(exc))
    return ("value", type(value), bits(value))


_GUARD_POINTS = [0.0, -0.0, 0.5, 1.0, 2.0, 1.0 + 5e-10, -5e-10, 1.0 + 2e-9, -2e-9, 1, 0,
                 np.float64(-0.0), np.float64(0.3), np.float64(-5e-10), np.float64(1.5),
                 float("nan"), np.float64("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("op", [builtin(kind) for kind in BUILTIN_KINDS]
                         + [builtin("prod", y_bar=float("inf")), builtin("min", y_bar=2.0),
                            expr_op("ab2", "a*b^2")],
                         ids=lambda op: f"{op.name}-{op.y_bar}")
def test_eval_op_guard_is_the_loop_form(op):
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in itertools.product(_GUARD_POINTS, repeat=2):
            assert typed_outcome(eval_op, op, a, b) == \
                typed_outcome(eval_op_reference, op, a, b), (a, b)


@pytest.mark.parametrize("a, b, bad", [
    (-0.5, 0.5, "-0.5"),  # a bad a
    (0.5, 1.5, "1.5"),  # a bad b
    (1.5, -0.5, "1.5"),  # both bad: a is checked first
    (float("nan"), 0.5, "nan"),
    (0.5, float("nan"), "nan"),
    (np.float64(-0.5), np.float64(0.5), "-0.5"),
    (np.float64(0.5), np.float64(1.5), "1.5"),
])
def test_eval_op_guard_messages(a, b, bad):
    with pytest.raises(FusionError) as exc:
        eval_op(builtin("prod"), a, b)
    assert str(exc.value) == f"argument {bad} outside [0, 1.0] for operation 'prod'"


# ---------------------------------------------------------------------------
# Compiled expressions: scalar vs array on the bundled expressions
# ---------------------------------------------------------------------------

_SHAPE_KEYS = ("phi", "psi")
_OP_KEYS = ("inner", "outer", "circ", "triangle", "star", "op", "conj")


def bundled_blocks():
    for entry in (resources.files("chebint") / "scenarios").iterdir():
        if entry.name.endswith(".json"):
            data = json.loads(entry.read_text())
            yield from data if isinstance(data, list) else [data]


def _walk(node, key=None):
    if isinstance(node, dict):
        yield key, node
        for k, v in node.items():
            yield from _walk(v, k)
    elif isinstance(node, list):
        for v in node:
            yield from _walk(v, key)
    else:
        yield key, node


def bundled_shapes():
    seen = {}
    for block in bundled_blocks():
        for key, node in _walk(block):
            if key in _SHAPE_KEYS and isinstance(node, (str, dict)):
                shape = build_shape(node)
                seen[(shape.name, str(shape.inverse), shape.domain)] = shape
    return list(seen.values())


def bundled_expressions():
    """Every expression in the bundled scenarios, custom ops included."""
    exprs = set()
    for block in bundled_blocks():
        for key, node in _walk(block):
            if key in _OP_KEYS and isinstance(node, dict) and "expr" in node:
                exprs.add(build_op(node).expr)
            elif key in ("expr", "inverse", "distortion", "lhs", "rhs") and isinstance(node, str):
                exprs.add(parse(node))
            elif key == "segments" and isinstance(node, str) and node[:1] not in "[(":
                exprs.add(parse(node))  # a segment's expression, not its interval
    return sorted(exprs, key=pretty)


def test_bundled_sets_are_found():
    assert len(bundled_shapes()) >= 5
    exprs = bundled_expressions()
    assert parse("a*b^2") in exprs and parse("1 - 2*sqrt(0.5*(t - 0.5))") in exprs


@pytest.mark.parametrize("e", bundled_expressions(), ids=pretty)
def test_scalar_and_array_evaluation_agree(e):
    names = sorted(free_vars(e))
    axis = np.linspace(0.0, 1.0, 21 if len(names) < 3 else 6).tolist()
    good, values = [], []
    for point in itertools.product(axis, repeat=len(names)):
        bindings = dict(zip(names, point))
        try:
            values.append(eval_expr(e, bindings))
        except EvalError as exc:
            with pytest.raises(EvalError) as arr_exc:
                eval_expr(e, {k: np.array([v]) for k, v in bindings.items()})
            assert str(arr_exc.value) == str(exc)
            continue
        good.append(point)
    assert good, "no point evaluates"
    if names:
        cols = np.array(good).T
        arr = np.asarray(eval_expr(e, dict(zip(names, cols))), dtype=float)
        arr = np.broadcast_to(arr, (len(good),))
    else:
        arr = np.array([eval_expr(e, {})])
    assert_same_up_to_pow(values, arr)


@pytest.mark.parametrize("shape", bundled_shapes(), ids=lambda s: s.name)
def test_shape_float_path_matches_numpy_path(shape):
    lo, hi = shape.domain
    xs = np.linspace(lo, hi, 41).tolist() + [lo - 5e-10, hi + 5e-10, -0.0 if lo == 0 else lo]
    arr = np.asarray(shape.apply(np.array(xs)), dtype=float)
    for x, want in zip(xs, arr):
        got = shape.apply(x)
        assert type(got) is float
        assert_same_up_to_pow(got, want)
        # a numpy scalar takes the numpy check and clamp, then float evaluation
        assert bits(got) == bits(shape.apply(np.float64(x))), x
    if shape.inverse is not None:
        ys = np.asarray(shape.apply(np.linspace(lo, hi, 41)), dtype=float).tolist()
        inv = np.asarray(shape.apply_inverse(np.array(ys)), dtype=float)
        for y, want in zip(ys, inv):
            assert_same_up_to_pow(shape.apply_inverse(y), want)
            assert bits(shape.apply_inverse(y)) == bits(shape.apply_inverse(np.float64(y)))
    for bad in (lo - 0.01, hi + 0.01):
        with pytest.raises(ShapeDomainError) as scalar_exc:
            shape.apply(bad)
        with pytest.raises(ShapeDomainError) as array_exc:
            shape.apply(np.array([lo, bad]))
        assert str(scalar_exc.value) == str(array_exc.value)


# ---------------------------------------------------------------------------
# eval_expr error messages, float and array bindings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("source, scalar, array, message", [
    ("x + y", {"x": 1.0}, {"x": np.array([1.0, 2.0])}, "unbound variable 'y'"),
    ("1 / x", {"x": 0.0}, {"x": np.array([0.5, 0.0])}, "division by zero"),
    ("x - 1", {"x": 0.5}, {"x": np.array([1.0, 0.5, 0.25])}, "negative final value -0.5"),
    ("x - inf", {"x": float("inf")}, {"x": np.array([float("inf")])},
     "indeterminate form in evaluation"),
    ("piecewise t { [0, 0.5]: t }", {"t": 0.75}, {"t": np.array([0.25, 0.75])},
     "point 0.75 outside all piecewise intervals"),
    ("sqrt(x - 1)", {"x": 0.5}, {"x": np.array([1.0, 0.5])}, "sqrt of a negative value"),
    ("piecewise { [0, 1]: x }", {"x": 0.5, "y": 0.5}, {"x": np.array([0.5]), "y": 0.5},
     "piecewise without an explicit guard variable needs exactly one bound variable"),
])
def test_eval_expr_error_messages(source, scalar, array, message):
    e = parse(source)
    for bindings in (scalar, array):
        with pytest.raises(EvalError) as exc:
            eval_expr(e, bindings)
        assert str(exc.value) == message


def test_compiled_once_and_kept_on_the_node():
    e = parse("x^2 + 1")
    other = parse("x^2 + 1")
    fn = compile_expr(e)
    assert compile_expr(e) is fn
    assert eval_expr(e, {"x": 2.0}) == 5.0 and compile_expr(e) is fn
    # the closure is not part of the node's value
    assert e == other and hash(e) == hash(other)
    assert compile_expr(other) is not fn


def test_compiled_node_still_pickles():
    e = parse("piecewise t { [0, 0.5]: t^2 ; (0.5, 1]: 1 }")
    assert eval_expr(e, {"t": 0.25}) == 0.0625
    again = pickle.loads(pickle.dumps(e))
    assert again == e
    assert eval_expr(again, {"t": 0.75}) == 1.0


# ---------------------------------------------------------------------------
# Array fast paths: xmul's direct product, in-place Lukasiewicz, one-reduction checks
# ---------------------------------------------------------------------------

_SPECIAL = [0.0, -0.0, 0.5, 1.0, 3.0, float("inf"), float("nan"), -float("nan"), -0.5, 1e-310]


def xmul_reference(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def xmul_operands():
    rng = np.random.default_rng(5)
    plain = rng.uniform(0.0, 2.0, 80)
    plain[::7] = 0.0
    yield plain[:, None], plain[None, :64]  # 5,120 elements: the direct product
    yield plain[:64, None], 0.25  # a scalar, below the direct-product size
    yield np.broadcast_to(plain[:70], (70, 70)), plain[:70, None]
    for special in _SPECIAL:  # one special value spoils the direct product
        bad = plain.copy()
        bad[3] = special
        yield bad[:, None], plain[None, :64]
        yield plain[:, None], bad[None, :64]
        yield bad[:, None], special
        yield special, bad[None, :]
    yield np.array(_SPECIAL)[:, None], np.array(_SPECIAL)[None, :]


@pytest.mark.parametrize("a, b", list(xmul_operands()))
def test_xmul_is_bitwise_the_where_form(a, b):
    assert same_bits(xmul(a, b), xmul_reference(a, b))
    assert same_bits(xmul(b, a), xmul_reference(b, a))


def test_xmul_direct_product_leaves_operands_alone():
    a = np.linspace(0.0, 1.0, 100)
    before = a.copy()
    out = xmul(a[:, None], a[None, :])
    assert out.shape == (100, 100) and not np.shares_memory(out, a)
    assert np.array_equal(a, before)


def as_scalar_reference(x):
    """as_scalar as it was, asking np.isscalar first."""
    if np.isscalar(x):
        return float(x)
    arr = np.asarray(x)
    return float(arr) if arr.ndim == 0 else arr


@pytest.mark.parametrize("x", [0.5, -0.0, 3, np.float64(-0.0), np.asarray(0.25),
                               np.asarray(-np.nan), np.array([0.0, -0.0, np.inf]), [1.0, 2.0],
                               np.ma.masked_array([1.0, 2.0])])
def test_as_scalar_is_the_isscalar_form(x):
    got, want = as_scalar(x), as_scalar_reference(x)
    assert type(got) is type(want) and same_bits(got, want)


def test_ndarray_arguments_skip_isscalar():
    # np.isscalar costs about 1 us a call, and an ndarray is never a scalar
    a = np.linspace(0.0, 1.0, 21)
    with mock.patch.object(np, "isscalar", side_effect=AssertionError("np.isscalar called")):
        got = [xmul(a, a), xmul(a, 0.5), xmul(0.5, a[:, None]), as_scalar(np.asarray(0.5))]
        assert as_scalar(a) is a
    for value, want in zip(got, [xmul_reference(a, a), xmul_reference(a, 0.5),
                                 xmul_reference(0.5, a[:, None]), 0.5]):
        assert same_bits(value, want)


_ARRAY_NODES = [  # compiled nodes that test for a scalar, with their numpy forms
    ("x^2", lambda x: np.power(x, 2.0)),
    ("2^x", lambda x: np.power(2.0, x)),
    ("x^x", lambda x: np.power(x, x)),
    ("sqrt(x)", np.sqrt),
    ("abs(x - 0.5)", lambda x: np.abs(x - 0.5)),
    ("pos(x - 0.5)", lambda x: np.maximum(x - 0.5, 0.0)),
    ("min(x, 0.5)", lambda x: np.minimum(x, 0.5)),
    ("max(0.5, x)", lambda x: np.maximum(0.5, x)),
    ("ind[0.25, 0.75)(x)", lambda x: np.where((x >= 0.25) & (x < 0.75), 1.0, 0.0)),
    ("piecewise x { [0, 0.5]: x ; (0.5, 1]: 1 - x }", lambda x: np.where(x <= 0.5, x, 1 - x)),
]


@pytest.mark.parametrize("source, numpy_form", _ARRAY_NODES, ids=[s for s, _ in _ARRAY_NODES])
def test_ndarray_operands_skip_isscalar_in_compiled_nodes(source, numpy_form):
    x = np.linspace(0.0, 1.0, 21)
    e = parse(source)
    with mock.patch.object(np, "isscalar", side_effect=AssertionError("np.isscalar called")):
        got = eval_expr(e, {"x": x})
    assert type(got) is np.ndarray and same_bits(got, numpy_form(x))
    # a numpy scalar still takes the scalar branch
    assert same_bits(eval_expr(e, {"x": np.float64(0.3)}), eval_expr(e, {"x": 0.3}))


@pytest.mark.parametrize("a, b", [
    (np.linspace(-0.5, 1.5, 41)[:, None], np.linspace(-0.5, 1.5, 41)[None, :]),
    (np.array(_SPECIAL)[:, None], np.array(_SPECIAL)[None, :]),
    (np.array(_SPECIAL), 0.75),
    (0.75, np.array(_SPECIAL)),
    (np.asarray(0.6), np.asarray(0.7)),
    (0.6, 0.7),
])
def test_lukasiewicz_in_place_is_bitwise(a, b):
    with np.errstate(invalid="ignore"):
        want = np.maximum(np.asarray(a, dtype=float) + b - 1.0, 0.0)
        got = apply_op(builtin("lukasiewicz"), a, b)
    assert same_bits(got, want)
    assert type(got) is (float if np.ndim(want) == 0 else np.ndarray)


def test_lukasiewicz_leaves_its_arguments_alone():
    a = np.linspace(0.0, 1.0, 11)
    before = a.copy()
    apply_op(builtin("lukasiewicz"), a, 0.5)
    apply_op(builtin("lukasiewicz"), a[:, None], a[None, :])
    assert np.array_equal(a, before)


def old_shape_outcome(shape, x):
    """The shape-function array path before the one-reduction checks."""
    lo, hi = shape.domain
    arr = np.asarray(x, dtype=float)
    if np.any(arr < lo - 1e-9) or np.any(arr > hi + 1e-9):
        bad = arr[(arr < lo - 1e-9) | (arr > hi + 1e-9)].flat[0]
        return ("ShapeDomainError", str(ShapeDomainError(shape.name, float(bad), shape.domain)))
    try:  # the raw value, before eval_expr's own final checks
        val = np.asarray(compile_expr(shape.expr)({shape.var: np.clip(arr, lo, hi)}), dtype=float)
    except EvalError as exc:
        return ("EvalError", str(exc))
    if np.any(np.isnan(val)):
        return ("EvalError", "indeterminate form in evaluation")
    if np.any(val < 0.0):
        return ("EvalError", f"negative final value {float(val[val < 0.0].flat[0])}")
    return ("value", val.tolist())


def new_shape_outcome(shape, x):
    try:
        return ("value", np.asarray(shape.apply(x), dtype=float).tolist())
    except (ShapeDomainError, EvalError) as exc:
        return (type(exc).__name__, str(exc))


_NAN = float("nan")


@pytest.mark.parametrize("source", ["x", "x - 0.5", "sqrt(x) - 0.2", "1 / (x - 0.25) + 3"])
@pytest.mark.parametrize("x", [
    [0.2, _NAN, 0.7],  # NaN alone: indeterminate
    [_NAN, 0.3, 1.5, -0.2],  # NaN beside out-of-range values: the domain error wins
    [_NAN, -0.2, 0.3],
    [0.3, _NAN, 1.5],
    [0.3, _NAN, -1e-10, 1.0 + 1e-10],  # within the tolerance: clamped
    [[0.9, 0.1], [_NAN, 0.2]],
    [_NAN, _NAN],
    [0.1, 0.2, 0.6],  # negatives from "x - 0.5" in the middle
    [[0.4, 0.8], [0.3, 2.0]],
    [],
])
def test_shape_and_eval_checks_match_the_old_masks(source, x):
    s = build_shape({"expr": source})
    with np.errstate(all="ignore"):
        assert new_shape_outcome(s, x) == old_shape_outcome(s, x)


# ---------------------------------------------------------------------------
# The array contract the grid scans rely on
# ---------------------------------------------------------------------------


_ARRAY_ARGS = [(np.linspace(0, 1, 5)[:, None], np.linspace(0, 1, 4)[None, :]),
               (np.float64(0.3), np.linspace(0, 1, 4)), (np.linspace(0, 1, 5), 0.5),
               (np.linspace(0, 1, 6).reshape(2, 1, 3), np.linspace(0, 1, 4)[:, None])]


def assert_float_array(out, shape):
    assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == shape


@pytest.mark.parametrize("op", [builtin(k) for k in BUILTIN_KINDS]
                         + [expr_op(s, s) for s in ("a*b", "a", "b^2", "0.5", "sqrt(a)")])
@pytest.mark.parametrize("a, b", _ARRAY_ARGS)
def test_apply_op_gives_a_float_array_of_the_broadcast_shape(op, a, b):
    # "a" and "b^2" used to keep the shape of the one argument they use
    assert_float_array(apply_op(op, a, b), np.broadcast_shapes(np.shape(a), np.shape(b)))


@pytest.mark.parametrize("source", ["x", "x^2", "0.5"])
@pytest.mark.parametrize("x", [np.linspace(0, 1, 5), np.linspace(0, 1, 6).reshape(2, 3),
                               np.zeros(0)])
def test_shape_apply_gives_a_float_array_of_the_argument_shape(source, x):
    fn = build_shape({"expr": source, "inverse": source, "inverse_domain": [0, 1]})
    assert_float_array(fn.apply(x), x.shape)
    assert_float_array(fn.apply_inverse(x), x.shape)
