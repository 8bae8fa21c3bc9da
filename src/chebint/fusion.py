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
from .extreal import INF, as_scalar, xmul
from .scan import EQ_TOL, TOL, Verdict, axis, check_row, scan_separable


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


BUILTIN_KINDS = ("min", "prod", "lukasiewicz", "godel", "godel_contra")

# Exact flag truths for the builtins (case analysis, not grid evidence).
_BUILTIN_TRUTH = {
    "min": dict(non_decreasing=True, left_continuous_in_first=True,
                left_continuous_in_second=True, right_continuous=True,
                commutative=True, semicopula=True, fuzzy_conjunction=True),
    "prod": dict(non_decreasing=True, left_continuous_in_first=True,
                 left_continuous_in_second=True, right_continuous=True,
                 commutative=True, semicopula=True, fuzzy_conjunction=True),
    "lukasiewicz": dict(non_decreasing=True, left_continuous_in_first=True,
                        left_continuous_in_second=True, right_continuous=True,
                        commutative=True, semicopula=True, fuzzy_conjunction=True),
    # b*1{a > 1-b}: jumps are from below, so left-continuity holds in both
    # coordinates while right-continuity fails at the jump.
    "godel": dict(non_decreasing=True, left_continuous_in_first=True,
                  left_continuous_in_second=True, right_continuous=False,
                  commutative=False, semicopula=False, fuzzy_conjunction=True),
    "godel_contra": dict(non_decreasing=True, left_continuous_in_first=True,
                         left_continuous_in_second=True, right_continuous=False,
                         commutative=False, semicopula=False, fuzzy_conjunction=True),
}


def min_op(y_bar=1.0) -> FusionOp:
    truth = dict(_BUILTIN_TRUTH["min"])
    if y_bar != 1.0:
        truth["semicopula"] = False
        truth["fuzzy_conjunction"] = False
    return FusionOp("min", "min", y_bar=y_bar, **truth)


def prod_op(y_bar=1.0) -> FusionOp:
    truth = dict(_BUILTIN_TRUTH["prod"])
    if y_bar != 1.0:
        truth["semicopula"] = False
        truth["fuzzy_conjunction"] = False
    return FusionOp("prod", "prod", y_bar=y_bar, **truth)


def lukasiewicz_op() -> FusionOp:
    return FusionOp("lukasiewicz", "lukasiewicz", y_bar=1.0, **_BUILTIN_TRUTH["lukasiewicz"])


def godel_op() -> FusionOp:
    return FusionOp("godel", "godel", y_bar=1.0, **_BUILTIN_TRUTH["godel"])


def godel_contra_op() -> FusionOp:
    return FusionOp("godel_contra", "godel_contra", y_bar=1.0, **_BUILTIN_TRUTH["godel_contra"])


def expr_op(name, source, y_bar=1.0, arg_names=("a", "b"), **flags) -> FusionOp:
    """Custom fusion operation from an expression in two variables."""
    body = parse(source) if isinstance(source, str) else source
    return FusionOp(name, "expr", y_bar=y_bar, expr=body, arg_names=tuple(arg_names), **flags)


BUILTIN_FACTORIES = {
    "min": min_op,
    "prod": prod_op,
    "lukasiewicz": lukasiewicz_op,
    "godel": godel_op,
    "godel_contra": godel_contra_op,
}


def builtin(name, y_bar=1.0) -> FusionOp:
    try:
        factory = BUILTIN_FACTORIES[name]
    except KeyError:
        raise FusionError(f"unknown builtin fusion operation {name!r}") from None
    if name in ("min", "prod"):
        return factory(y_bar=y_bar)
    if y_bar != 1.0:
        raise FusionError(f"builtin {name!r} is only defined on [0,1]^2")
    return factory()


def apply_op(op: FusionOp, a, b):
    """Raw evaluation on scalars or arrays, without bound checks.

    Float arguments give a float.  With a float64 array argument of at least
    one dimension the result is a float64 array of the arguments' broadcast
    shape, also for an expression that uses one argument or none.
    """
    if op.kind == "min":
        return as_scalar(np.minimum(a, b))
    if op.kind == "prod":
        return as_scalar(xmul(a, b))
    if op.kind == "lukasiewicz":
        out = np.asarray(a, dtype=float) + b
        if isinstance(out, np.ndarray):  # a fresh array: finish it in place
            out -= 1.0
            return np.maximum(out, 0.0, out=out)
        return as_scalar(np.maximum(out - 1.0, 0.0))
    if op.kind == "godel":
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return as_scalar(np.where(a > 1.0 - b, b, 0.0))
    if op.kind == "godel_contra":
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return as_scalar(np.where(a > 1.0 - b, a, 0.0))
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
    for val in (a, b):
        if not (-TOL <= val <= op.y_bar + TOL):
            raise _argument_error(op, val)
    a = min(max(a, 0.0), op.y_bar)
    b = min(max(b, 0.0), op.y_bar)
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
        raise _argument_error(op, float(arr[~ok].flat[0]))
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


def _grid(op: FusionOp, step: float, inf_cap: float):
    top = op.y_bar if op.y_bar != INF else inf_cap
    return np.linspace(0.0, top, max(int(round(min(top / step, 4000))), 1) + 1)


def validate_flags(op: FusionOp, grid_step=0.01, inf_cap=1e6) -> FlagReport:
    """Check each declared flag: Confirmed-on-grid or a violating tuple.

    Builtins are additionally resolved by exact case analysis, so their
    checks carry exact=True even where grids could not decide (continuity).
    """
    notes = []
    xs = _grid(op, grid_step, inf_cap)
    if op.y_bar == INF:
        notes.append(f"infinite bound capped at {inf_cap} for grid checks")
    table = apply_op(op, xs[:, None], xs[None, :])
    exact_truth = _BUILTIN_TRUTH.get(op.kind)
    checks = []

    def add(flag, declared, confirmed, witness=None, detail="", exact=False):
        checks.append(FlagCheck(flag, declared, confirmed, exact, witness, detail))

    def first_bad(mask):
        idx = np.argwhere(mask)
        if idx.size == 0:
            return None
        i, j = idx[0]
        return (float(xs[i]), float(xs[j]))

    # non-decreasing in each coordinate implies joint non-decrease
    bad = (np.diff(table, axis=0) < -TOL) | False
    w1 = first_bad(bad)
    bad2 = np.diff(table, axis=1) < -TOL
    w2 = first_bad(bad2)
    nondec_ok = w1 is None and w2 is None
    add("non_decreasing", op.non_decreasing, nondec_ok, w1 or w2,
        exact=exact_truth is not None)

    # commutativity on the grid
    comm_bad = np.abs(table - table.T) > EQ_TOL
    wc = first_bad(comm_bad)
    add("commutative", op.commutative, wc is None, wc, exact=exact_truth is not None)

    # semicopula: y_bar = 1 and boundary identities, checked exactly
    semi_ok = op.y_bar == 1.0
    semi_witness = None
    semi_detail = ""
    if not semi_ok:
        semi_detail = "semicopula requires y_bar = 1"
    else:
        probes = np.linspace(0.0, 1.0, 21)
        for t in probes:
            if abs(float(apply_op(op, t, 1.0)) - t) > TOL:
                semi_ok, semi_witness = False, (float(t), 1.0)
                break
            if abs(float(apply_op(op, 1.0, t)) - t) > TOL:
                semi_ok, semi_witness = False, (1.0, float(t))
                break
        if semi_ok and not nondec_ok:
            semi_ok, semi_witness = False, w1 or w2
            semi_detail = "monotonicity failed"
    add("semicopula", op.semicopula, semi_ok, semi_witness, semi_detail, exact=True)

    # fuzzy conjunction: exact boundary evaluations
    fc_ok = op.y_bar == 1.0
    fc_witness = None
    if fc_ok:
        for (a, b, want) in ((1.0, 1.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)):
            if abs(float(apply_op(op, a, b)) - want) > TOL:
                fc_ok, fc_witness = False, (a, b)
                break
        if fc_ok and not nondec_ok:
            fc_ok, fc_witness = False, w1 or w2
    add("fuzzy_conjunction", op.fuzzy_conjunction, fc_ok, fc_witness, exact=True)

    # continuity flags: exact for builtins, a small-jump probe otherwise
    for flag in ("left_continuous_in_first", "left_continuous_in_second", "right_continuous"):
        declared = getattr(op, flag)
        if exact_truth is not None:
            add(flag, declared, exact_truth[flag], exact=True)
            continue
        delta = 1e-7
        inner = xs[1:-1]
        if flag == "left_continuous_in_first":
            jump = np.abs(table[1:-1, :] - apply_op(op, (inner - delta)[:, None], xs[None, :]))
        elif flag == "left_continuous_in_second":
            jump = np.abs(table[:, 1:-1] - apply_op(op, xs[:, None], (inner - delta)[None, :]))
        else:
            jump_a = np.abs(table[1:-1, :] - apply_op(op, (inner + delta)[:, None], xs[None, :]))
            jump_b = np.abs(table[:, 1:-1] - apply_op(op, xs[:, None], (inner + delta)[None, :]))
            jump = max(float(np.max(jump_a)), float(np.max(jump_b)))
            add(flag, declared, jump <= 1e-3, None,
                detail="delta-probe heuristic", exact=False)
            continue
        ok = float(np.max(jump)) <= 1e-3
        add(flag, declared, ok, None, detail="delta-probe heuristic", exact=False)

    return FlagReport(op.name, tuple(checks), grid_step, tuple(notes))


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
                          f"grid({grid_step})")


def leq_min(op: FusionOp, grid_step=0.01, inf_cap=1e6) -> Verdict:
    """Grid check of op(a,b) <= min(a,b); a violation reports lhs = op(a,b), rhs = min(a,b)."""
    xs = _grid(op, grid_step, inf_cap)
    table = apply_op(op, xs[:, None], xs[None, :])
    cap = np.minimum(xs[:, None], xs[None, :])
    idx = np.argwhere(table > cap + TOL)
    if idx.size:
        i, j = idx[0]
        return Verdict("violated", (float(xs[i]), float(xs[j])), float(table[i, j]),
                       float(cap[i, j]), evidence=f"grid({grid_step})")
    return Verdict("holds-on-grid", evidence=f"grid({grid_step})")
