"""Generalized upper Sugeno integrals.

Exact candidate-set evaluation for simple functions on finite spaces,
bisection/grid evaluation for survival scenarios, plus the named special
cases (Sugeno, Shilkret, opposite-Sugeno, seminormed, q-integral).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprlang import eval_expr
from .extreal import INF_CAP
from .fusion import FusionOp, apply_op, builtin, clip_args, eval_op
from .measure import FiniteSpace, MonotoneMeasure, SurvivalScenario
from .scan import EQ_TOL, axis, check_step


class IntegralError(Exception):
    pass


_BISECT_TOL = 1e-10


@dataclass(frozen=True)
class SimpleFunction:
    """Atom-indexed values in [0, bound]; the f, g of the finite examples."""

    space: FiniteSpace
    values: tuple
    bound: float

    def __post_init__(self):
        if len(self.values) != self.space.n:
            raise IntegralError("one value per atom required")
        if not self.bound > 0:
            raise IntegralError("bound k must be positive")
        for v in self.values:
            if not 0.0 <= v <= self.bound:
                raise IntegralError(f"values must lie in [0, {self.bound}]")

    def transform(self, fn) -> "SimpleFunction":
        """Apply a pointwise map; the bound becomes the max transformed value."""
        vals = tuple(float(fn(v)) for v in self.values)
        return SimpleFunction(self.space, vals, fitted_bound(vals))

    def combine(self, other: "SimpleFunction", op: FusionOp) -> "SimpleFunction":
        if other.space != self.space:
            raise IntegralError("functions live on different spaces")
        vals = tuple(eval_op(op, a, b) for a, b in zip(self.values, other.values))
        return SimpleFunction(self.space, vals, fitted_bound(vals))


def fitted_bound(vals) -> float:
    """The bound of transformed or combined values: the largest of them, or
    1.0 when none is positive."""
    top = max(vals)
    return max(top, 1e-300) if top > 0 else 1.0


def level_sets(vals, space: FiniteSpace, D: int) -> list:
    """Ascending (t, {vals >= t} & D) over t in {0} and the distinct values
    on D of the atom-indexed ``vals``, such as a SimpleFunction's values.

    One descending sort of the atoms of D, ORed into a running mask.  Tied
    values give one level, whose t is the value at the lowest atom index;
    t = 0 is the literal 0.0 (a -0.0 value ties with it) and its set is D.
    """
    desc = []
    mask = 0
    for i in sorted(space.atoms_of(D), key=vals.__getitem__, reverse=True):
        mask |= 1 << i
        if desc and desc[-1][0] == vals[i]:
            desc[-1] = (desc[-1][0], mask)
        else:
            desc.append((vals[i], mask))
    if desc and desc[-1][0] == 0.0:
        desc.pop()
    desc.append((0.0, D))
    desc.reverse()
    return desc


def simple_function(space, values, bound=None) -> SimpleFunction:
    vals = tuple(map(float, values))
    if bound is None:
        bound = max(vals) if vals and max(vals) > 0 else 1.0
    return SimpleFunction(space, vals, float(bound))


@dataclass(frozen=True)
class IntegralResult:
    value: float
    method: str  # exact-candidate-set | grid(step)+refinement | bisection(tol) [+ warnings]
    candidates: tuple  # (t, level measure, term) triples examined

    def __float__(self):
        return self.value


def integrate_simple(op: FusionOp, m: MonotoneMeasure, D: int, f: SimpleFunction) -> IntegralResult:
    """sup over t of op(t, m(D & {f >= t})) for a simple function f.

    Exact via the finite candidate set {distinct values of f on D, 0, y_bar}
    for any non-decreasing op: on each piece (v_i, v_{i+1}] between sorted
    values the level set {f >= t} is constant, so the sup over the piece is
    attained at t = v_{i+1}.  An op that does not declare left-continuity in
    its first coordinate keeps a warning in `method`.
    """
    if f.space != m.space:
        raise IntegralError("function and measure live on different spaces")
    return IntegralResult(*_integrate_values(op, m, D, f.values, f.bound))


def _integrate_values(op: FusionOp, m: MonotoneMeasure, D: int, vals, bound):
    """(value, method, candidates) of ``integrate_simple`` for the function
    with values ``vals`` and bound ``bound`` on the space of m."""
    if not 0 <= D <= m.space.full_mask:
        raise IntegralError(f"invalid subset mask {D}")
    if not op.non_decreasing:
        raise IntegralError(f"operation {op.name!r} must be declared non-decreasing")
    if bound > op.y_bar + EQ_TOL:
        raise IntegralError("function bound exceeds the operation's y_bar")

    table = m.table
    cands = [(t, table[mask], eval_op(op, t, table[mask]))
             for t, mask in level_sets(vals, m.space, D)]
    cands.append((op.y_bar, 0.0, eval_op(op, op.y_bar, 0.0)))
    value = max([term for _, _, term in cands])  # the first maximal term
    method = "exact-candidate-set"
    if not op.left_continuous_in_first:
        method += ";warning:left-continuity-not-declared"
    return value, method, tuple(cands)


def _integrate_rows(op: FusionOp, m: MonotoneMeasure, D, vals):
    """The value of ``_integrate_values(op, m, D[r], vals[r], fitted_bound(vals[r]))``
    for every row r of a (T, n) array of values and a (T,) array of masks,
    in one array pass.

    Each row's level walk is one stable descending sort of its atoms, those
    of D first, and its level masks the running OR of their bits, so every
    mask lies in D and the last is D.  It raises wherever a row's scalar
    integral raises, and may raise where none does.  The values are the
    scalar ones up to the sign of a zero, and for an expression operation
    up to the last bit, where numpy's power and libm's pow round differently.
    """
    if not op.non_decreasing:
        raise IntegralError(f"operation {op.name!r} must be declared non-decreasing")
    # a row's fitted_bound is its top value (at least 1e-300), or 1.0 when none is positive
    limit = op.y_bar + EQ_TOL
    if max(float(vals.max()), 1e-300) > limit or (1.0 > limit and not (vals.max(axis=1) > 0).all()):
        raise IntegralError("function bound exceeds the operation's y_bar")
    rows, n = vals.shape
    bits = 1 << np.arange(n, dtype=np.int64)
    in_d = (D[:, None] & bits) != 0
    walk = np.argsort(np.where(in_d, -vals, 1.0), axis=1, kind="stable")
    walk += np.arange(0, rows * n, n)[:, None]  # flat indices into the (T, n) arrays
    level = vals.take(walk)
    masks = np.bitwise_or.accumulate(np.where(in_d, bits, 0).take(walk), axis=1)
    # a level ends at the last atom of D with its value, and t = 0 is its own candidate
    in_walk = in_d.take(walk)
    ends = in_walk & (level > 0)
    ends[:, :-1] &= (level[:, :-1] != level[:, 1:]) | ~in_walk[:, 1:]
    measure = clip_args(op, m.values[masks])
    # the values need no check: they lie in [0, bound], and the bound was checked
    terms = apply_op(op, np.minimum(level, op.y_bar), measure)
    return np.maximum(terms.max(axis=1, where=ends, initial=eval_op(op, op.y_bar, 0.0)),
                      apply_op(op, 0.0, measure[:, -1]))


def oracle_grid_integral(op: FusionOp, m: MonotoneMeasure, D: int, f: SimpleFunction,
                         grid_step: float) -> float:
    """Brute-force sup over the t-grid of op(t, m(D & {f >= t}))."""
    if not 0 < grid_step < np.inf:  # NaN included
        raise IntegralError(f"grid_step {grid_step} is not a finite positive number")
    top = min(op.y_bar, INF_CAP)
    ts = axis(0.0, top, grid_step, least=0)
    masks = np.zeros(ts.shape, dtype=np.int64)
    for i in m.space.atoms_of(D):  # the atom is in {f >= t} for the grid's t up to f(i)
        masks[:int(np.searchsorted(ts, f.values[i], "right"))] += 1 << i
    return float(np.max(apply_op(op, ts, m.values[masks])))


def q_integral(conj: FusionOp, m: MonotoneMeasure, f: SimpleFunction) -> IntegralResult:
    """q-integral sup over t of conj(m({f >= t}), t), measure slot first.

    conj must be a declared fuzzy conjunction, left-continuous in its second
    coordinate (the level slot); m must be a capacity and f bounded by 1.
    The t=1 candidate is always included (with level m({f >= 1})).
    """
    if not conj.fuzzy_conjunction:
        raise IntegralError(f"operation {conj.name!r} lacks the fuzzy_conjunction flag")
    if not conj.left_continuous_in_second:
        raise IntegralError(
            f"operation {conj.name!r} must be left-continuous in its second coordinate"
        )
    if not m.is_capacity:
        raise IntegralError("q-integral requires a capacity (m(X)=1)")
    if f.bound > 1.0 + EQ_TOL:
        raise IntegralError("q-integral requires f bounded by 1")
    levels = level_sets(f.values, f.space, m.space.full_mask)
    # the t=1 candidate: the literal 1.0, on the least level set at or above it
    i = next((i for i, (t, _) in enumerate(levels) if t >= 1.0), len(levels))
    if i < len(levels) and levels[i][0] == 1.0:
        levels[i] = (1.0, levels[i][1])
    else:
        levels.insert(i, (1.0, levels[i][1] if i < len(levels) else 0))
    table = m.table
    cands = [(t, table[mask], eval_op(conj, table[mask], t)) for t, mask in levels]
    best = max(cands, key=lambda c: c[2])  # the first maximal term
    return IntegralResult(best[2], "exact-candidate-set", tuple(cands))


# ---------------------------------------------------------------------------
# Named wrappers
# ---------------------------------------------------------------------------


def sugeno(m, D, f) -> IntegralResult:
    return integrate_simple(builtin("min"), m, D, f)


def shilkret(m, D, f) -> IntegralResult:
    return integrate_simple(builtin("prod"), m, D, f)


def opposite_sugeno(m, D, f) -> IntegralResult:
    return integrate_simple(builtin("lukasiewicz"), m, D, f)


def seminormed(S: FusionOp, m, D, f) -> IntegralResult:
    return integrate_simple(S, m, D, f)


# ---------------------------------------------------------------------------
# Survival scenarios
# ---------------------------------------------------------------------------


def integrate_survival(op: FusionOp, scenario: SurvivalScenario, grid_step=1e-4) -> IntegralResult:
    """sup over t in [0, y_bar] of op(t, G(t)) for a closed-form level function.

    With op = min each segment is solved by bisection for the crossing of t
    and the nonincreasing G (tolerance 1e-10); other operations get a dense
    grid with local refinement around the best grid point.
    """
    if not op.non_decreasing:
        raise IntegralError(f"operation {op.name!r} must be declared non-decreasing")
    check_step(grid_step)
    scenario.validate(max(grid_step, 1e-4))
    if op.kind == "min":
        return _survival_min(scenario)
    return _survival_grid(op, scenario, grid_step)


def _seg_eval(scenario, expr, ts):
    ts = np.asarray(ts, dtype=float)
    # a constant segment expression gives a float
    return np.maximum(np.broadcast_to(eval_expr(expr, {scenario.var: ts}), ts.shape), 0.0)


_BISECT_STEPS = 200
_BATCH_LEVELS = 5  # bisection levels evaluated per _seg_eval call


def _seg_points(scenario, expr, ts):
    """The floats of ``_seg_eval`` at each of ``ts``, from one call; if that
    call raises, from one call per point in order, so any error is the one
    the first failing point raises alone."""
    try:
        return _seg_eval(scenario, expr, ts).tolist()
    except Exception:
        return [float(_seg_eval(scenario, expr, [t])[0]) for t in ts]


def _bisect(scenario, expr, a, b):
    """The bracket [a, b] of the crossing of t and G that bisection reaches:
    at most _BISECT_STEPS halvings, stopping once b - a <= _BISECT_TOL.

    Each round evaluates the midpoints of the next _BATCH_LEVELS levels of the
    bisection tree in one call, then walks them; a midpoint is 0.5 * (a + b)
    of its parent bracket, as one step at a time computes it, so the walk
    takes the same branches.  The batch holds points the walk never reaches,
    so if it raises the round is redone one reached point at a time.
    """
    steps = 0
    while steps < _BISECT_STEPS and b - a > _BISECT_TOL:
        # heap order: the midpoint at i splits its bracket into those at 2i+1 and 2i+2
        brackets, mids = [(a, b)], []
        for lo, hi in brackets:  # grows while it is read, up to the last level
            mid = 0.5 * (lo + hi)
            mids.append(mid)
            if len(brackets) < (1 << _BATCH_LEVELS) - 1:
                brackets += ((lo, mid), (mid, hi))
        try:
            gs = _seg_eval(scenario, expr, mids).tolist()
        except Exception:
            gs = None
        i = 0
        for _ in range(_BATCH_LEVELS):
            if steps == _BISECT_STEPS or b - a <= _BISECT_TOL:
                break
            mid = mids[i]
            g_mid = float(_seg_eval(scenario, expr, [mid])[0]) if gs is None else gs[i]
            if mid < g_mid:
                a, i = mid, 2 * i + 2
            else:
                b, i = mid, 2 * i + 1
            steps += 1
    return a, b


def _survival_min(scenario: SurvivalScenario) -> IntegralResult:
    best = 0.0
    cands = []
    for interval, expr in scenario.segments:
        lo, hi = interval.lo, interval.hi
        g_lo, g_hi = (float(v) for v in _seg_eval(scenario, expr, [lo, hi]))
        cands.append((lo, g_lo, min(lo, g_lo)))
        cands.append((hi, g_hi, min(hi, g_hi)))
        if lo >= g_lo:
            seg_best = (lo, g_lo, min(lo, g_lo))
        elif hi <= g_hi:
            seg_best = (hi, g_hi, min(hi, g_hi))
        else:
            a, b = _bisect(scenario, expr, lo, hi)
            g_a, g_b = _seg_points(scenario, expr, [a, b])
            seg_best = max(((a, g_a, min(a, g_a)), (b, g_b, min(b, g_b))),
                           key=lambda c: c[2])
            cands.append(seg_best)
        best = max(best, seg_best[2])
    value = max(best, 0.0)
    return IntegralResult(value, f"bisection({_BISECT_TOL})", tuple(cands))


def _survival_grid(op: FusionOp, scenario: SurvivalScenario, grid_step: float) -> IntegralResult:
    best = (0.0, 0.0, -np.inf)
    for interval, expr in scenario.segments:
        lo, hi = interval.lo, interval.hi
        ts = np.linspace(lo, hi, max(int(round(min((hi - lo) / grid_step, 200000))), 8) + 1)
        for _ in range(3):
            gs = _seg_eval(scenario, expr, ts)
            terms = apply_op(op, ts, gs)
            i = int(np.argmax(terms))
            if terms[i] > best[2]:
                best = (float(ts[i]), float(gs[i]), float(terms[i]))
            a = ts[max(i - 1, 0)]
            b = ts[min(i + 1, len(ts) - 1)]
            ts = np.linspace(a, b, 101)
    return IntegralResult(best[2], f"grid({grid_step})+refinement", (best,))
