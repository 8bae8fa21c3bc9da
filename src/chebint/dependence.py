"""Comonotonicity, m-positive dependence and related measure-level conditions.

All decision procedures are exact for simple functions: the continuum of
levels collapses to the finite set of function values because the level-set
maps are step functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprlang import EvalError
from .fusion import FusionOp, apply_op, clip_args, eval_op
from .integral import SimpleFunction, level_sets
from .measure import MAX_SCAN_ATOMS, MeasureError, MonotoneMeasure, _pair_blocks
from .scan import EQ_TOL, TOL, Verdict, first_flagged


class DependenceError(Exception):
    pass


class RangeEscapeError(DependenceError):
    """The triangle operation leaves the measure's range on range(m)^2."""


@dataclass(frozen=True)
class DependenceQuery:
    m: MonotoneMeasure
    f: SimpleFunction
    g: SimpleFunction
    A: int
    B: int
    triangle: FusionOp
    k: float
    allow_range_escape: bool = False

    def __post_init__(self):
        if self.f.space != self.m.space or self.g.space != self.m.space:
            raise DependenceError("functions and measure must share a space")
        if self.f.bound > self.k + EQ_TOL or self.g.bound > self.k + EQ_TOL:
            raise DependenceError("f and g must be bounded by k")


def _exact(witness=None, lhs=None, rhs=None, detail="", warnings=()) -> Verdict:
    """An exact verdict: violated at ``witness``, or holds when there is none."""
    return Verdict("holds" if witness is None else "violated", witness, lhs, rhs, detail,
                   "exact", tuple(warnings))


def is_comonotone(f: SimpleFunction, g: SimpleFunction, D: int) -> Verdict:
    """Exhaustive pairwise check of (f(x)-f(y))(g(x)-g(y)) >= 0 on D."""
    atoms = f.space.atoms_of(D)
    for i in atoms:
        for j in atoms:
            if (f.values[i] - f.values[j]) * (g.values[i] - g.values[j]) < 0:
                return _exact((f.space.labels[i], f.space.labels[j]))
    return _exact()


def triangle_range_escapes(m: MonotoneMeasure, tri: FusionOp):
    """The lexicographically first (c, d, value) in range(m)^2 whose triangle
    value leaves range(m), or None when the triangle stays inside it.

    One array evaluation over range(m)^2; each value is tested against its
    two neighbours in the sorted range.  The reported value is recomputed
    with ``eval_op`` at the point.  The builtin min never escapes: min(c, d)
    is c or d, clamped as its arguments are, so within TOL of a range value.
    Nor do the godel kinds, whose value is a clamped argument or 0, when
    range(m) holds a value within TOL of 0 (m(empty) = 0 in a ``from_table``
    measure; a directly built table may lack it).  A range of more than
    2^MAX_SCAN_ATOMS values is refused with a MeasureError.
    """
    rng = m.value_range()
    clipped = clip_args(tri, rng)
    if tri.kind == "min" or tri.kind in ("godel", "godel_contra") and rng[0] <= TOL:
        return None
    if len(rng) > 1 << MAX_SCAN_ATOMS:  # the arrays below hold |range(m)|^2 values
        raise MeasureError(f"range escape check refused for n = {m.space.n} atoms: range(m) "
                           f"holds {len(rng)} values, more than {1 << MAX_SCAN_ATOMS}")
    try:
        with np.errstate(all="ignore"):
            out = apply_op(tri, clipped[:, None], clipped[None, :])
    except EvalError:
        # Array evaluation can fail where pointwise evaluation does not (a
        # piecewise branch sees every point); pointwise, the first bad pair raises.
        out = np.array([[eval_op(tri, c, d) for d in rng] for c in rng])
    values = np.asarray(rng, dtype=float)
    right = np.searchsorted(values, out)
    below = values[np.maximum(right - 1, 0)]
    above = values[np.minimum(right, len(values) - 1)]
    inside = (np.abs(out - below) <= TOL) | (np.abs(out - above) <= TOL)
    if (index := first_flagged(~inside)) is None:
        return None
    i, j = index
    return rng[i], rng[j], eval_op(tri, rng[i], rng[j])


def _range_escape_warnings(m: MonotoneMeasure, tri: FusionOp, allow: bool,
                           with_value: bool = False) -> list:
    """Warnings for a triangle that leaves range(m); raises unless allowed."""
    escape = triangle_range_escapes(m, tri)
    if escape is None:
        return []
    c, d, value = escape
    msg = f"triangle {tri.name!r} leaves range(m) at (c,d)={(c, d)}"
    if with_value:
        msg += f" with value {value}"
    if not allow:
        raise RangeEscapeError(msg)
    return [msg]


def _level_grid(f: SimpleFunction, k: float, D: int):
    """Representative (level, {f >= level} & D) pairs: 0, the distinct values
    of f on the whole space, and k with the empty set when k > max f."""
    levels = [(t, mask & D) for t, mask in level_sets(f.values, f.space, f.space.full_mask)]
    if k > max(f.values) + EQ_TOL:
        levels.append((k, 0))
    return levels


def is_m_positively_dependent(q: DependenceQuery) -> Verdict:
    """Decide m-positive dependence of f|_A and g|_B w.r.t. the triangle op.

    Exact: levels alpha (beta) range over {0} + distinct values of f (g),
    plus k when it exceeds the max value (the empty-level case).  The
    lexicographically first violating (alpha, beta) is the witness.
    """
    warnings = _range_escape_warnings(q.m, q.triangle, q.allow_range_escape, with_value=True)
    table, tri = q.m.table, q.triangle
    g_levels = [(beta, g_mask, table[g_mask]) for beta, g_mask in _level_grid(q.g, q.k, q.B)]
    for alpha, f_mask in _level_grid(q.f, q.k, q.A):
        m_f = table[f_mask]
        for beta, g_mask, m_g in g_levels:
            lhs = table[f_mask & g_mask]
            rhs = eval_op(tri, m_f, m_g)
            if lhs < rhs - TOL:
                return _exact((alpha, beta), lhs, rhs, f"m(...)={lhs} < {rhs}", warnings)
    return _exact(warnings=warnings)


def measure_supports_all_pairs(m: MonotoneMeasure, tri: FusionOp,
                               allow_range_escape: bool = False) -> Verdict:
    """Exhaustive check of m(C & D) >= tri(m(C), m(D)) over all set pairs.

    The witness is the first violating pair in C order.  An expression is
    evaluated over all pairs at once: array evaluation can raise on one point
    for another's sake (a piecewise branch sees every point), so row blocks
    would change whether it raises.
    """
    blocks = _pair_blocks(m, rows=(1 << m.space.n) if tri.kind == "expr" else None)
    warnings = _range_escape_warnings(m, tri, allow_range_escape)
    tab = m.values
    for c, d in blocks:
        inter = tab[c & d]
        combo = apply_op(tri, tab[c], tab[d])
        if (index := first_flagged(inter < combo - TOL)) is not None:
            i, j = index
            C, D = int(c[i, 0]), int(d[j])
            return _exact((m.space.labels_of(C), m.space.labels_of(D)), float(inter[i, j]),
                          float(combo[i, j]), f"m(C&D)={inter[i, j]} < {combo[i, j]}",
                          warnings)
    return _exact(warnings=warnings)


def condition_Z1(m: MonotoneMeasure, tri: FusionOp,
                 allow_range_escape: bool = False) -> Verdict:
    """Condition (Z1): every (c, d) in range(m)^2 is realized by sets C, D
    with m(C)=c, m(D)=d and m(C & D) = tri(c, d)."""
    if m.space.n > MAX_SCAN_ATOMS:
        raise MeasureError(f"exhaustive realization search refused for n > {MAX_SCAN_ATOMS}")
    warnings = _range_escape_warnings(m, tri, allow_range_escape)
    rng = m.value_range()
    tab = m.values
    by_value = {c: np.flatnonzero(np.abs(tab - c) <= EQ_TOL) for c in rng}
    for c in rng:
        cs = by_value[c]
        for d in rng:
            ds = by_value[d]
            target = eval_op(tri, c, d)
            inter = tab[cs[:, None] & ds[None, :]]
            if not np.any(np.abs(inter - target) <= TOL):
                return _exact((c, d), detail=f"no sets realize m(C&D)={target}",
                              warnings=warnings)
    return _exact(warnings=warnings)
