"""Differential test: flag validation and ``leq_min`` against their reference.

The reference is the earlier form of ``validate_flags`` and ``leq_min``: a
truth table and an ``apply_op`` branch per builtin, separate semicopula and
fuzzy-conjunction probe blocks, one continuity branch per flag and an
``inf_cap`` argument of 1e6.  The builtins (also min and prod at y_bar 2 and
infinity) and random expression operations must give the same FlagReport and
the same Verdict, or raise the same exception with the same message.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebint import fusion
from chebint.exprlang import eval_expr
from chebint.extreal import INF, as_scalar, xmul
from chebint.fusion import FlagCheck, FlagReport
from chebint.scan import EQ_TOL, TOL, Verdict

_TRUTH = {
    "min": dict(non_decreasing=True, left_continuous_in_first=True,
                left_continuous_in_second=True, right_continuous=True,
                commutative=True, semicopula=True, fuzzy_conjunction=True),
    "prod": dict(non_decreasing=True, left_continuous_in_first=True,
                 left_continuous_in_second=True, right_continuous=True,
                 commutative=True, semicopula=True, fuzzy_conjunction=True),
    "lukasiewicz": dict(non_decreasing=True, left_continuous_in_first=True,
                        left_continuous_in_second=True, right_continuous=True,
                        commutative=True, semicopula=True, fuzzy_conjunction=True),
    "godel": dict(non_decreasing=True, left_continuous_in_first=True,
                  left_continuous_in_second=True, right_continuous=False,
                  commutative=False, semicopula=False, fuzzy_conjunction=True),
    "godel_contra": dict(non_decreasing=True, left_continuous_in_first=True,
                         left_continuous_in_second=True, right_continuous=False,
                         commutative=False, semicopula=False, fuzzy_conjunction=True),
}


def reference_apply(op, a, b):
    if op.kind == "min":
        return as_scalar(np.minimum(a, b))
    if op.kind == "prod":
        return as_scalar(xmul(a, b))
    if op.kind == "lukasiewicz":
        return as_scalar(np.maximum(np.asarray(a, dtype=float) + b - 1.0, 0.0))
    if op.kind == "godel":
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return as_scalar(np.where(a > 1.0 - b, b, 0.0))
    if op.kind == "godel_contra":
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return as_scalar(np.where(a > 1.0 - b, a, 0.0))
    out = eval_expr(op.expr, {op.arg_names[0]: a, op.arg_names[1]: b})
    if np.ndim(a) or np.ndim(b):
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        if np.shape(out) != shape:
            return np.full(shape, out)
    return out


def reference_grid(op, step, inf_cap):
    top = op.y_bar if op.y_bar != INF else inf_cap
    return np.linspace(0.0, top, max(int(round(min(top / step, 4000))), 1) + 1)


def reference_validate_flags(op, grid_step=0.01, inf_cap=1e6):
    notes = []
    xs = reference_grid(op, grid_step, inf_cap)
    if op.y_bar == INF:
        notes.append(f"infinite bound capped at {inf_cap} for grid checks")
    table = reference_apply(op, xs[:, None], xs[None, :])
    exact_truth = _TRUTH.get(op.kind)
    checks = []

    def add(flag, declared, confirmed, witness=None, detail="", exact=False):
        checks.append(FlagCheck(flag, declared, confirmed, exact, witness, detail))

    def first_bad(mask):
        idx = np.argwhere(mask)
        if idx.size == 0:
            return None
        i, j = idx[0]
        return (float(xs[i]), float(xs[j]))

    w1 = first_bad(np.diff(table, axis=0) < -TOL)
    w2 = first_bad(np.diff(table, axis=1) < -TOL)
    nondec_ok = w1 is None and w2 is None
    add("non_decreasing", op.non_decreasing, nondec_ok, w1 or w2,
        exact=exact_truth is not None)

    wc = first_bad(np.abs(table - table.T) > EQ_TOL)
    add("commutative", op.commutative, wc is None, wc, exact=exact_truth is not None)

    semi_ok = op.y_bar == 1.0
    semi_witness = None
    semi_detail = ""
    if not semi_ok:
        semi_detail = "semicopula requires y_bar = 1"
    else:
        for t in np.linspace(0.0, 1.0, 21):
            if abs(float(reference_apply(op, t, 1.0)) - t) > TOL:
                semi_ok, semi_witness = False, (float(t), 1.0)
                break
            if abs(float(reference_apply(op, 1.0, t)) - t) > TOL:
                semi_ok, semi_witness = False, (1.0, float(t))
                break
        if semi_ok and not nondec_ok:
            semi_ok, semi_witness = False, w1 or w2
            semi_detail = "monotonicity failed"
    add("semicopula", op.semicopula, semi_ok, semi_witness, semi_detail, exact=True)

    fc_ok = op.y_bar == 1.0
    fc_witness = None
    if fc_ok:
        for (a, b, want) in ((1.0, 1.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)):
            if abs(float(reference_apply(op, a, b)) - want) > TOL:
                fc_ok, fc_witness = False, (a, b)
                break
        if fc_ok and not nondec_ok:
            fc_ok, fc_witness = False, w1 or w2
    add("fuzzy_conjunction", op.fuzzy_conjunction, fc_ok, fc_witness, exact=True)

    for flag in ("left_continuous_in_first", "left_continuous_in_second", "right_continuous"):
        declared = getattr(op, flag)
        if exact_truth is not None:
            add(flag, declared, exact_truth[flag], exact=True)
            continue
        delta = 1e-7
        inner = xs[1:-1]
        if flag == "left_continuous_in_first":
            jump = np.abs(table[1:-1, :] - reference_apply(op, (inner - delta)[:, None], xs[None, :]))
        elif flag == "left_continuous_in_second":
            jump = np.abs(table[:, 1:-1] - reference_apply(op, xs[:, None], (inner - delta)[None, :]))
        else:
            jump_a = np.abs(table[1:-1, :] - reference_apply(op, (inner + delta)[:, None], xs[None, :]))
            jump_b = np.abs(table[:, 1:-1] - reference_apply(op, xs[:, None], (inner + delta)[None, :]))
            jump = max(float(np.max(jump_a)), float(np.max(jump_b)))
            add(flag, declared, jump <= 1e-3, None, detail="delta-probe heuristic", exact=False)
            continue
        ok = float(np.max(jump)) <= 1e-3
        add(flag, declared, ok, None, detail="delta-probe heuristic", exact=False)

    return FlagReport(op.name, tuple(checks), grid_step, tuple(notes))


def reference_leq_min(op, grid_step=0.01, inf_cap=1e6):
    xs = reference_grid(op, grid_step, inf_cap)
    table = reference_apply(op, xs[:, None], xs[None, :])
    cap = np.minimum(xs[:, None], xs[None, :])
    idx = np.argwhere(table > cap + TOL)
    if idx.size:
        i, j = idx[0]
        return Verdict("violated", (float(xs[i]), float(xs[j])), float(table[i, j]),
                       float(cap[i, j]), evidence=f"grid({grid_step})")
    return Verdict("holds-on-grid", evidence=f"grid({grid_step})")


def outcome(fn, *args):
    with np.errstate(all="ignore"):
        try:
            return ("result", fn(*args))
        except Exception as exc:  # noqa: BLE001 - the type and message are compared
            return (type(exc).__name__, str(exc))


def assert_same(op, step):
    assert outcome(fusion.validate_flags, op, step) == outcome(reference_validate_flags, op, step)
    assert outcome(fusion.leq_min, op, step) == outcome(reference_leq_min, op, step)


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

# an infinite bound is capped at 1e6, so the steps there are coarse: a step
# below 250 would reach the 4,000-step limit, a 4,001^2 table
BUILTIN_CASES = ([(fusion.builtin(name), step) for name in fusion.BUILTIN_KINDS
                  for step in (0.25, 0.05, 0.01)]
                 + [(fusion.builtin(name, 2), step) for name in ("min", "prod")
                    for step in (0.25, 0.05, 0.01)]
                 + [(fusion.builtin(name, INF), step) for name in ("min", "prod")
                    for step in (2.5e5, 1e4)])


@pytest.mark.parametrize("name", fusion.BUILTIN_KINDS)
def test_builtin_flags_match_reference_truth(name):
    op = fusion.builtin(name)
    assert (op.name, op.kind, op.y_bar) == (name, name, 1.0)
    assert {flag: getattr(op, flag) for flag in _TRUTH[name]} == _TRUTH[name]
    # y_bar shows in error messages: min and prod keep the value given, the rest say 1.0
    assert repr(fusion.builtin(name, 1).y_bar) == ("1" if name in ("min", "prod") else "1.0")
    if name in ("min", "prod"):  # off the unit square the boundary identities lapse
        wide = fusion.builtin(name, 2)
        assert wide.y_bar == 2
        assert {flag: getattr(wide, flag) for flag in _TRUTH[name]} == dict(
            _TRUTH[name], semicopula=False, fuzzy_conjunction=False)
    else:
        with pytest.raises(fusion.FusionError, match=r"only defined on \[0,1\]\^2"):
            fusion.builtin(name, 2)


@pytest.mark.parametrize("op, step", BUILTIN_CASES,
                         ids=[f"{op.name}-{op.y_bar}-{step}" for op, step in BUILTIN_CASES])
def test_builtins_match_reference(op, step):
    assert_same(op, step)


# ---------------------------------------------------------------------------
# Expression operations: each template fails a different check, c tunes it
# ---------------------------------------------------------------------------

BOUNDARY = "{c}*a*b"  # a boundary identity fails for c != 1
DIP = "pos(min(a, b) - {c}*a*b*(1 - a)*(1 - b))"  # boundary identities hold; monotone for small c
JUMP_FIRST = "b*ind[{c}, 1](a)"  # left-continuity in a fails at a = c
JUMP_SECOND = "a*ind[{c}, 1](b)"  # left-continuity in b fails at b = c
JUMP_ABOVE = "b*ind({c}, 1](a) + a*ind({c}, 1](b)"  # right-continuity fails in both
SMALL_JUMP = "a*b + 0.01*ind[{c}, 1](a)*ind[{c}, 1](b)"  # one jump of 0.01, on a few points
TEMPLATES = [BOUNDARY, DIP, JUMP_FIRST, JUMP_SECOND, JUMP_ABOVE, SMALL_JUMP, "a*b^{c}"]


def expr_from(template, c, y_bar=1.0, declared=True):
    if "ind" in template:  # an interval [c, 1] needs c <= 1
        c = min(c, 1.0)
    flags = dict.fromkeys(("non_decreasing", "left_continuous_in_first",
                           "left_continuous_in_second", "right_continuous", "commutative",
                           "semicopula", "fuzzy_conjunction"), declared)
    return fusion.expr_op("e", template.format(c=c), y_bar=y_bar, **flags)


def _check(report, flag):
    return next(c for c in report.checks if c.flag == flag)


@pytest.mark.parametrize("template, c, y_bar, flag, detail", [
    (BOUNDARY, 0.5, 1.0, "semicopula", ""),
    (BOUNDARY, 0.5, 1.0, "fuzzy_conjunction", ""),
    (DIP, 8.0, 1.0, "semicopula", "monotonicity failed"),
    (DIP, 8.0, 1.0, "fuzzy_conjunction", ""),
    (BOUNDARY, 1.0, 2.0, "semicopula", "semicopula requires y_bar = 1"),
    (BOUNDARY, 1.0, 2.0, "fuzzy_conjunction", ""),
    (JUMP_FIRST, 0.5, 1.0, "left_continuous_in_first", "delta-probe heuristic"),
    (JUMP_SECOND, 0.5, 1.0, "left_continuous_in_second", "delta-probe heuristic"),
    (JUMP_ABOVE, 0.5, 1.0, "right_continuous", "delta-probe heuristic"),
    (SMALL_JUMP, 0.5, 1.0, "left_continuous_in_first", "delta-probe heuristic"),
])
def test_each_failure_branch_is_reached(template, c, y_bar, flag, detail):
    op = expr_from(template, c, y_bar)
    report = fusion.validate_flags(op, 0.05)
    check = _check(report, flag)
    assert not check.confirmed and check.detail == detail
    if template == DIP:  # the boundary passes; only monotonicity fails
        assert check.witness == _check(report, "non_decreasing").witness is not None
    if template in (JUMP_FIRST, JUMP_SECOND):  # the other continuity flags hold
        others = [k for k in report.checks if k.detail == "delta-probe heuristic" and k is not check]
        assert all(k.confirmed for k in others)
    assert_same(op, 0.05)


@settings(max_examples=60, deadline=None)
@given(template=st.sampled_from(TEMPLATES),
       c=st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0, 2.0, 8.0]),
       y_bar=st.sampled_from([1.0, 1.0, 2.0, 0.5]),
       declared=st.booleans(),
       step=st.sampled_from([0.05, 0.1, 0.25]))
@example(template=BOUNDARY, c=0.5, y_bar=1.0, declared=True, step=0.05)
@example(template=DIP, c=8.0, y_bar=1.0, declared=True, step=0.05)
@example(template=BOUNDARY, c=1.0, y_bar=2.0, declared=True, step=0.05)
@example(template=JUMP_FIRST, c=0.5, y_bar=1.0, declared=True, step=0.05)
@example(template=JUMP_SECOND, c=0.5, y_bar=1.0, declared=False, step=0.1)
@example(template=JUMP_ABOVE, c=0.5, y_bar=1.0, declared=True, step=0.05)
@example(template=SMALL_JUMP, c=0.5, y_bar=1.0, declared=True, step=0.05)
def test_expression_ops_match_reference(template, c, y_bar, declared, step):
    assert_same(expr_from(template, c, y_bar, declared), step)
