"""Fusion functions: binary operations on [0, y_bar]^2 with declared flags.

Builtins: min, prod, lukasiewicz, godel, godel_contra.  Custom operations are
two-variable expressions from the expression language.  Flags are declarations
that can be validated on grids (builtins also get exact case analysis at the
boundary); they are consumed as hypotheses by the inequality checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .exprlang import Expr, eval_expr, parse
from .extreal import INF, INF_CAP, as_scalar, xmul
from .scan import (EQ_TOL, TOL, Verdict, axis, check_row, check_step, first_flagged,
                   scan_separable)


class FusionError(Exception):
    pass


@dataclass(frozen=True)
class FusionOp:
    name: str
    kind: str  # min | prod | lukasiewicz | godel | godel_contra | expr
    y_bar: float = 1.0
    expr: Expr | None = None
    arg_names: tuple = ("a", "b")
    non_decreasing: bool = False
    left_continuous_in_first: bool = False
    left_continuous_in_second: bool = False
    right_continuous: bool = False
    commutative: bool = False
    semicopula: bool = False
    fuzzy_conjunction: bool = False


def _lukasiewicz(a, b):
    out = np.asarray(a, dtype=float) + b
    if isinstance(out, np.ndarray):  # a fresh array: finish it in place
        out -= 1.0
        return np.maximum(out, 0.0, out=out)
    return as_scalar(np.maximum(out - 1.0, 0.0))


def _godel(a, b, keep_first=False):
    """b*1{a > 1-b}, or a*1{a > 1-b} with keep_first (godel_contra)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return as_scalar(np.where(a > 1.0 - b, a if keep_first else b, 0.0))


_T_NORM = dict(non_decreasing=True, left_continuous_in_first=True,
               left_continuous_in_second=True, right_continuous=True,
               commutative=True, semicopula=True, fuzzy_conjunction=True)
# The godel jumps are from below, so left-continuity holds in both coordinates
# while right-continuity fails at the jump.
_GODEL = dict(_T_NORM, right_continuous=False, commutative=False, semicopula=False)

# name -> (array form, exact flag truths on [0,1]^2 by case analysis, not grid evidence)
_BUILTINS = {
    "min": (lambda a, b: as_scalar(np.minimum(a, b)), _T_NORM),
    "prod": (lambda a, b: as_scalar(xmul(a, b)), _T_NORM),
    "lukasiewicz": (_lukasiewicz, _T_NORM),
    "godel": (_godel, _GODEL),
    "godel_contra": (partial(_godel, keep_first=True), _GODEL),
}
BUILTIN_KINDS = tuple(_BUILTINS)


def monotone_box(op: FusionOp):
    """(0, y_bar), where a builtin is non-decreasing in both arguments by case
    analysis; None for an expression, whose flag is only grid evidence."""
    return (0.0, op.y_bar) if op.kind in _BUILTINS else None


def builtin(name, y_bar=1.0) -> FusionOp:
    """A builtin operation; only min and prod take a y_bar other than 1."""
    if name not in _BUILTINS:
        raise FusionError(f"unknown builtin fusion operation {name!r}")
    truth = _BUILTINS[name][1]
    if name not in ("min", "prod"):
        if y_bar != 1.0:
            raise FusionError(f"builtin {name!r} is only defined on [0,1]^2")
        y_bar = 1.0
    elif y_bar != 1.0:  # the boundary identities need the unit square
        truth = dict(truth, semicopula=False, fuzzy_conjunction=False)
    return FusionOp(name, name, y_bar=y_bar, **truth)


min_op = partial(builtin, "min")
prod_op = partial(builtin, "prod")
lukasiewicz_op = partial(builtin, "lukasiewicz")
godel_op = partial(builtin, "godel")
godel_contra_op = partial(builtin, "godel_contra")


def expr_op(name, source, y_bar=1.0, arg_names=("a", "b"), **flags) -> FusionOp:
    """Custom fusion operation from an expression in two variables."""
    body = parse(source) if isinstance(source, str) else source
    return FusionOp(name, "expr", y_bar=y_bar, expr=body, arg_names=tuple(arg_names), **flags)


def apply_op(op: FusionOp, a, b):
    """Raw evaluation on scalars or arrays, without bound checks.

    Float arguments give a float.  With a float64 array argument of at least
    one dimension the result is a float64 array of the arguments' broadcast
    shape, also for an expression that uses one argument or none.
    """
    if op.kind in _BUILTINS:
        return _BUILTINS[op.kind][0](a, b)
    if op.kind == "expr":
        out = eval_expr(op.expr, {op.arg_names[0]: a, op.arg_names[1]: b})
        if np.ndim(a) or np.ndim(b):  # spread over an argument the expression does not use
            shape = np.broadcast_shapes(np.shape(a), np.shape(b))
            if np.shape(out) != shape:
                return np.full(shape, out)
        return out
    raise FusionError(f"unknown fusion kind {op.kind!r}")


def _argument_error(op: FusionOp, val) -> FusionError:
    return FusionError(f"argument {val} outside [0, {op.y_bar}] for operation {op.name!r}")


def eval_op(op: FusionOp, a: float, b: float) -> float:
    """Checked scalar evaluation; arguments must lie in [0, y_bar].

    Float arguments of the builtins are computed in plain float arithmetic,
    bit for bit what ``apply_op`` gives on the same values.
    """
    y_bar = op.y_bar
    if not -TOL <= a <= y_bar + TOL:  # NaN refused
        raise _argument_error(op, a)
    if not -TOL <= b <= y_bar + TOL:
        raise _argument_error(op, b)
    # min(max(v, 0.0), y_bar), which keeps v on ties (-0.0 stays -0.0)
    a = 0.0 if 0.0 > a else a
    a = y_bar if y_bar < a else a
    b = 0.0 if 0.0 > b else b
    b = y_bar if y_bar < b else b
    kind = op.kind
    if type(a) is float and type(b) is float:
        if kind == "min":  # np.minimum returns b on ties, which decides the sign of zero
            return a if a < b else b
        if kind == "prod":
            return 0.0 if a == 0.0 or b == 0.0 else a * b
        if kind == "lukasiewicz":
            s = a + b - 1.0
            return s if s > 0.0 else 0.0
        if kind == "godel":
            return b if a > 1.0 - b else 0.0
        if kind == "godel_contra":
            return a if a > 1.0 - b else 0.0
    if kind == "expr":
        return float(eval_expr(op.expr, {op.arg_names[0]: a, op.arg_names[1]: b}))
    return float(apply_op(op, a, b))


def clip_args(op: FusionOp, values):
    """Clamp an array of arguments into [0, y_bar] as ``eval_op`` does.

    Raises the FusionError ``eval_op`` would raise for the first value that
    lies outside [0, y_bar] by more than the tolerance.
    """
    arr = np.asarray(values, dtype=float)
    ok = (arr >= -TOL) & (arr <= op.y_bar + TOL)
    if not np.all(ok):
        raise _argument_error(op, float(arr[first_flagged(~ok)]))
    return np.minimum(np.maximum(arr, 0.0), op.y_bar)


# ---------------------------------------------------------------------------
# Flag validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlagCheck:
    flag: str
    declared: bool
    confirmed: bool
    exact: bool
    witness: tuple | None = None
    detail: str = ""


@dataclass(frozen=True)
class FlagReport:
    op_name: str
    checks: tuple
    step: float
    notes: tuple = ()

    @property
    def all_confirmed(self):
        return all(c.confirmed for c in self.checks if c.declared)


def _grid(op: FusionOp, step: float):
    check_step(step)
    top = op.y_bar if op.y_bar != INF else INF_CAP
    return np.linspace(0.0, top, max(int(round(min(top / step, 4000))), 1) + 1)


_FUZZY_PROBES = ((1.0, 1.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
# continuity flag -> (coordinate, shift): the jump to a point moved by 1e-7 from
# below (left-continuity) or from above (right-continuity, in both coordinates)
_CONTINUITY = {"left_continuous_in_first": ((0, -1e-7),),
               "left_continuous_in_second": ((1, -1e-7),),
               "right_continuous": ((0, 1e-7), (1, 1e-7))}


def validate_flags(op: FusionOp, grid_step=0.01) -> FlagReport:
    """Check each declared flag: Confirmed-on-grid or a violating tuple.

    Builtins are additionally resolved by exact case analysis, so their
    checks carry exact=True even where grids could not decide (continuity).
    """
    xs = _grid(op, grid_step)
    notes = (f"infinite bound capped at {INF_CAP} for grid checks",) if op.y_bar == INF else ()
    table = apply_op(op, xs[:, None], xs[None, :])
    truth = _BUILTINS[op.kind][1] if op.kind in _BUILTINS else None
    checks = []

    def add(flag, confirmed, witness=None, detail="", exact=truth is not None):
        checks.append(FlagCheck(flag, getattr(op, flag), confirmed, exact, witness, detail))

    def first_bad(mask):
        index = first_flagged(mask)
        return None if index is None else tuple(float(xs[i]) for i in index)

    # non-decreasing in each coordinate implies joint non-decrease
    mono_bad = (first_bad(np.diff(table, axis=0) < -TOL)
                or first_bad(np.diff(table, axis=1) < -TOL))
    add("non_decreasing", mono_bad is None, mono_bad)
    comm_bad = first_bad(np.abs(table - table.T) > EQ_TOL)
    add("commutative", comm_bad is None, comm_bad)

    def boundary(flag, probes, bound_detail="", mono_detail=""):
        """Exact: y_bar = 1, then op(a, b) = want at each probe, then monotone."""
        if op.y_bar != 1.0:
            return add(flag, False, None, bound_detail, exact=True)
        for a, b, want in probes:
            if abs(float(apply_op(op, a, b)) - want) > TOL:
                return add(flag, False, (float(a), float(b)), exact=True)
        if mono_bad is not None:
            return add(flag, False, mono_bad, mono_detail, exact=True)
        add(flag, True, exact=True)

    # semicopula: op(t, 1) = op(1, t) = t; fuzzy conjunction: the corners
    boundary("semicopula", ((a, b, t) for t in np.linspace(0.0, 1.0, 21)
                            for a, b in ((t, 1.0), (1.0, t))),
             "semicopula requires y_bar = 1", "monotonicity failed")
    boundary("fuzzy_conjunction", _FUZZY_PROBES)

    # continuity: exact for builtins, a small-jump probe at the inner grid points otherwise
    inner = xs[1:-1]
    if truth is None and not inner.size:
        raise FusionError(f"grid step {grid_step} leaves no inner grid point for the "
                          f"continuity probes of {op.name!r} on [0, {xs[-1]}]")
    for flag, shifts in _CONTINUITY.items():
        if truth is not None:
            add(flag, truth[flag])
            continue
        jumps = []
        for coord, delta in shifts:
            moved = inner + delta
            if coord == 0:
                jump = table[1:-1, :] - apply_op(op, moved[:, None], xs[None, :])
            else:
                jump = table[:, 1:-1] - apply_op(op, xs[:, None], moved[None, :])
            jumps.append(float(np.max(np.abs(jump))))
        add(flag, max(jumps) <= 1e-3, detail="delta-probe heuristic")

    return FlagReport(op.name, tuple(checks), grid_step, notes)


# ---------------------------------------------------------------------------
# Structural relations
# ---------------------------------------------------------------------------


def dominates(outer: FusionOp, inner: FusionOp, grid_step=0.01) -> Verdict:
    """Grid check of outer(inner(a,b), inner(c,d)) >= inner(outer(a,c), outer(b,d)).

    Both operations must live on [0,1].  On failure the lexicographically
    smallest violating (a, b, c, d) grid point is reported, with both sides
    re-evaluated there by ``eval_op``.
    """
    if outer.y_bar != 1.0 or inner.y_bar != 1.0:
        raise FusionError("domination check requires both operations on [0,1]")
    xs = axis(0.0, 1.0, grid_step, least=0)
    check_row(len(xs), len(xs), len(xs))
    inner_cd = apply_op(inner, xs[:, None], xs[None, :])  # (c, d)
    outer_cd = apply_op(outer, xs[:, None], xs[None, :])

    def at(a, b, c, d):
        return (eval_op(outer, eval_op(inner, a, b), eval_op(inner, c, d)),
                eval_op(inner, eval_op(outer, a, c), eval_op(outer, b, d)))

    return scan_separable(xs, xs, lambda a: apply_op(inner, a, xs), inner_cd, outer_cd, outer_cd,
                          partial(apply_op, outer), partial(apply_op, inner), at,
                          f"grid({grid_step})", monotone_box(inner), monotone_box(outer))


def leq_min(op: FusionOp, grid_step=0.01) -> Verdict:
    """Grid check of op(a,b) <= min(a,b); a violation reports lhs = op(a,b), rhs = min(a,b)."""
    xs = _grid(op, grid_step)
    table = apply_op(op, xs[:, None], xs[None, :])
    cap = np.minimum(xs[:, None], xs[None, :])
    if (index := first_flagged(table > cap + TOL)) is None:
        return Verdict("holds-on-grid", evidence=f"grid({grid_step})")
    return Verdict("violated", tuple(float(xs[i]) for i in index), float(table[index]),
                   float(cap[index]), evidence=f"grid({grid_step})")
