"""Finite measurable spaces, monotone measures and survival scenarios."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .exprlang import EvalError, Expr, Interval, eval_expr, parse, parse_interval
from .scan import _BLOCK, EQ_TOL, TOL, axis, first_flagged


class MeasureError(Exception):
    pass


MAX_ATOMS = 24
MAX_SCAN_ATOMS = 12  # exhaustive pair scans are 4^n; refuse beyond this
# value_range's gap test beats the Python loop from about 2^8 distinct values,
# but on tables with about 100 distinct values the loop is as fast up to 2^12
_VECTOR_MIN = 1 << 10


@dataclass(frozen=True)
class FiniteSpace:
    labels: tuple

    def __post_init__(self):
        if not 1 <= len(self.labels) <= MAX_ATOMS:
            raise MeasureError(f"atom count must be in 1..{MAX_ATOMS}")
        if len(set(self.labels)) != len(self.labels):
            raise MeasureError("atom labels must be unique")

    @property
    def n(self):
        return len(self.labels)

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def mask_of(self, labels) -> int:
        mask = 0
        for lab in labels:
            try:
                mask |= 1 << self.labels.index(lab)
            except ValueError:
                raise MeasureError(f"unknown atom label {lab!r}") from None
        return mask

    def atoms_of(self, mask):
        return [i for i in range(self.n) if mask & (1 << i)]

    def labels_of(self, mask):
        return tuple(self.labels[i] for i in self.atoms_of(mask))


def space(*labels) -> FiniteSpace:
    return FiniteSpace(tuple(labels))


@dataclass(frozen=True)
class MonotoneMeasure:
    space: FiniteSpace
    table: tuple  # 2^n values indexed by mask

    def __call__(self, mask: int) -> float:
        return self.table[mask]

    @property
    def is_capacity(self):
        return abs(self.table[self.space.full_mask] - 1.0) <= EQ_TOL

    def value_range(self):
        """Sorted distinct values of the measure (EQ_TOL dedup tolerance).

        Greedy rule: a sorted value is kept when it exceeds the last kept one
        by more than EQ_TOL.
        """
        vals = sorted(self.table)
        if len(vals) >= _VECTOR_MIN:
            # the gaps come from a copy sorted in place: reading the floats
            # in sorted order instead would miss the cache at every value
            arr = np.fromiter(self.table, float, len(vals))
            arr.sort()
            gaps = np.diff(arr)
            wide, flat = gaps > EQ_TOL, gaps == 0.0
            del arr, gaps  # freed before the result tuple is built
            if wide.all():
                return tuple(vals)
            if np.all(wide | flat):
                # every gap is 0 or above EQ_TOL, so the last kept value
                # equals the previous sorted one and the rule is a gap test
                return tuple(compress(vals, np.concatenate(([True], wide)).tolist()))
        out = [vals[0]]
        for v in vals[1:]:
            if v - out[-1] > EQ_TOL:
                out.append(v)
        return tuple(out)


def _above_superset(arr, upper, bit):
    """``arr[a] > upper[a | 1 << bit]`` for the masks a without ``bit``, shaped
    (k, j) for mask k * (2 << bit) + j."""
    return arr.reshape(-1, 2, 1 << bit)[:, 0, :] > upper.reshape(-1, 2, 1 << bit)[:, 1, :]


def from_table(sp: FiniteSpace, entries) -> MonotoneMeasure:
    """Build a monotone measure from a full mask->value assignment.

    entries is a sequence of 2^n values indexed by mask, or a dict keyed by
    mask.  Monotonicity and the boundary conditions are checked exhaustively.
    """
    size = 1 << sp.n
    if isinstance(entries, dict):
        missing = [m for m in range(size) if m not in entries]
        if missing:
            raise MeasureError(f"missing mask {missing[0]} in measure table")
        entries = [entries[m] for m in range(size)]
    try:
        table = list(map(float, entries))
    except (TypeError, OverflowError):
        for mask, v in enumerate(entries):
            try:
                float(v)
            except (TypeError, OverflowError):
                raise MeasureError(f"measure value m({sp.labels_of(mask)}) at mask {mask} "
                                   f"is not a number: {v!r}") from None
        raise
    if len(table) != size:
        raise MeasureError(f"measure table needs {size} entries, got {len(table)}")
    if table[0] != 0.0:
        raise MeasureError(f"m(empty set) must be 0, got {table[0]}")
    if not table[size - 1] > 0.0:
        raise MeasureError("m(X) must be positive")
    arr = np.fromiter(table, float, size)
    if np.count_nonzero(arr < 0.0):
        raise MeasureError("measure values must be nonnegative")
    upper = arr + EQ_TOL
    # in a table larger than _BLOCK, a bit below _BLOCK pairs masks inside one
    # _BLOCK-aligned chunk, so those bits are compared a cached chunk at a
    # time; on a violation the per-bit loop runs from bit 0 and names the first
    low = _BLOCK.bit_length() - 1 if size > _BLOCK else 0
    if low and any(np.count_nonzero(_above_superset(arr[s:s + _BLOCK], upper[s:s + _BLOCK], b))
                   for s in range(0, size, _BLOCK) for b in range(low)):
        low = 0
    for bit in range(low, sp.n):
        if (index := first_flagged(_above_superset(arr, upper, bit))) is not None:
            k, j = index
            a = int(k * (2 << bit) + j)
            raise MeasureError(
                f"monotonicity violation: m({sp.labels_of(a)})={arr[a]} > "
                f"m({sp.labels_of(a | (1 << bit))})={arr[a | (1 << bit)]}"
            )
    # NaN fails every comparison above, so it is looked for last
    if (index := first_flagged(np.isnan(arr))) is not None:
        a = int(index[0])
        raise MeasureError(f"measure value m({sp.labels_of(a)}) at mask {a} is NaN")
    return MonotoneMeasure(sp, tuple(table))


def necessity_from_possibility(sp: FiniteSpace, pi) -> MonotoneMeasure:
    """Necessity measure of a normalized possibility distribution.

    m(A) = 1 - max_{x not in A} pi(x); the result is minitive.
    """
    pi = [float(v) for v in pi]
    if len(pi) != sp.n:
        raise MeasureError("possibility vector length must match atom count")
    if any(not 0.0 <= v <= 1.0 for v in pi):
        raise MeasureError("possibility values must lie in [0,1]")
    if abs(max(pi) - 1.0) > EQ_TOL:
        raise MeasureError("possibility distribution must be normalized (max = 1)")
    # top[mask] is the largest pi over mask (0 on the empty set), built by
    # doubling: the masks with highest atom k are those below 1 << k plus k
    top = [0.0]
    for v in pi:
        top += [t if t > v else v for t in top]
    # the outside of mask is full ^ mask = full - mask
    m = from_table(sp, [1.0 - t for t in reversed(top)])
    if sp.n <= 10 and not is_minitive(m):
        raise MeasureError("internal error: necessity measure failed minitivity check")
    return m


def distorted_probability(sp: FiniteSpace, p, h) -> MonotoneMeasure:
    """Distorted probability m(B) = h(P(B)) for increasing convex h.

    h is an Expr (or source string) in one variable with h(0)=0, h(1)=1;
    convexity and monotonicity are grid-checked, supermodularity is then
    verified exhaustively for small spaces.
    """
    p = [float(v) for v in p]
    if len(p) != sp.n:
        raise MeasureError("probability vector length must match atom count")
    if any(not v >= 0 for v in p) or not abs(sum(p) - 1.0) <= TOL:  # NaN fails both
        raise MeasureError("p must be a probability vector")
    expr = parse(h) if isinstance(h, str) else h
    var = _sole_var(expr)
    xs = np.linspace(0.0, 1.0, 101)
    hv = np.asarray(eval_expr(expr, {var: xs}), dtype=float)
    if abs(hv[0]) > TOL or abs(hv[-1] - 1.0) > TOL:
        raise MeasureError("h must satisfy h(0)=0 and h(1)=1")
    if np.any(np.diff(hv) <= -EQ_TOL):
        raise MeasureError("h must be increasing (grid check failed)")
    if np.any(np.diff(hv, n=2) < -TOL):
        raise MeasureError("h must be convex (grid check failed)")
    # P(mask) by the same doubling, adding the atoms in increasing order
    probs = [0.0]
    for v in p:
        probs += [q + v for q in probs]
    # the distortion stays on the scalar path: numpy's x^2 and libm's pow
    # differ in the last bit on some sums
    m = from_table(sp, [float(eval_expr(expr, {var: min(q, 1.0)})) for q in probs])
    if sp.n <= 10 and not is_supermodular(m):
        raise MeasureError("distorted probability failed the supermodularity check")
    return m


def dual(m: MonotoneMeasure) -> MonotoneMeasure:
    """Dual capacity m^d(C) = 1 - m(complement of C)."""
    if not m.is_capacity:
        raise MeasureError("dual is defined for capacities (m(X)=1)")
    full = m.space.full_mask
    table = [1.0 - m.table[full ^ mask] for mask in range(full + 1)]
    return from_table(m.space, table)


def _sole_var(expr: Expr):
    from .exprlang import free_vars

    names = free_vars(expr)
    if len(names) != 1:
        raise MeasureError("expected an expression in exactly one variable")
    return next(iter(names))


# ---------------------------------------------------------------------------
# Structural predicates (exhaustive over all set pairs)
# ---------------------------------------------------------------------------


def _pair_blocks(m: MonotoneMeasure, symmetric=False, rows=None):
    """The set pairs (C, D) of ``m`` in C order, in blocks of ``rows`` masks C
    (about ``_BLOCK`` pairs by default): intp mask arrays C, shaped (rows, 1),
    and D.

    A ``symmetric`` predicate gets only the masks D from the block's first C
    on, which covers every pair with D >= C.  Beyond MAX_SCAN_ATOMS atoms the
    call, not the first block, raises a MeasureError.
    """
    n = m.space.n
    if n > MAX_SCAN_ATOMS:
        raise MeasureError(f"exhaustive pair scan refused for n > {MAX_SCAN_ATOMS} atoms")
    masks = np.arange(1 << n, dtype=np.intp)
    rows = rows or max(_BLOCK >> n, 1)
    return ((masks[s:s + rows, None], masks[s:] if symmetric else masks)
            for s in range(0, 1 << n, rows))


def is_minitive(m: MonotoneMeasure) -> bool:
    """m(C & D) == min(m(C), m(D)) for all set pairs."""
    tab = np.asarray(m.table)
    return all(np.all(np.abs(tab[c & d] - np.minimum(tab[c], tab[d])) <= EQ_TOL)
               for c, d in _pair_blocks(m, symmetric=True))


def is_subadditive(m: MonotoneMeasure) -> bool:
    """m(C | D) <= m(C) + m(D) for all set pairs."""
    tab = np.asarray(m.table)
    return all(np.all(tab[c | d] <= tab[c] + tab[d] + EQ_TOL)
               for c, d in _pair_blocks(m, symmetric=True))


def is_supermodular(m: MonotoneMeasure) -> bool:
    """m(C | D) + m(C & D) >= m(C) + m(D) for all set pairs."""
    tab = np.asarray(m.table)
    return all(np.all(tab[c | d] + tab[c & d] >= tab[c] + tab[d] - EQ_TOL)
               for c, d in _pair_blocks(m, symmetric=True))


# ---------------------------------------------------------------------------
# Survival scenarios for continuum examples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurvivalScenario:
    """The level function G(t) = m(D & {f >= t}) given in closed form.

    Segments are (interval, expression in ``var``) pairs partitioning
    [0, y_bar]; G must be nonincreasing (grid-validated) and nonnegative.
    """

    y_bar: float
    segments: tuple  # of (Interval, Expr)
    var: str = "t"

    def __post_init__(self):
        if not self.y_bar > 0:
            raise MeasureError("y_bar must be positive")
        segs = sorted(self.segments, key=lambda s: s[0].lo)
        if not segs:
            raise MeasureError("survival scenario needs at least one segment")
        first = segs[0][0]
        if first.lo != 0.0 or not first.closed_lo:
            raise MeasureError("segments must start at [0, ...")
        for (a, _), (b, _) in zip(segs, segs[1:]):
            if a.hi != b.lo or a.closed_hi == b.closed_lo:
                raise MeasureError(
                    f"segments {a} and {b} do not partition the domain"
                )
        last = segs[-1][0]
        if last.hi != self.y_bar or not last.closed_hi:
            raise MeasureError(f"segments must end at ..., {self.y_bar}]")
        object.__setattr__(self, "segments", tuple(segs))

    def g_value(self, t: float) -> float:
        for interval, expr in self.segments:
            if interval.contains(t):
                return float(eval_expr(expr, {self.var: t}))
        raise MeasureError(f"level {t} outside the scenario domain")

    def validate(self, grid_step=1e-3):
        """Grid check that G is nonnegative and nonincreasing on [0, y_bar]."""
        prev = None
        for interval, expr in self.segments:
            ts = axis(interval.lo, interval.hi, grid_step, least=2)
            try:  # a constant segment expression gives a float
                vals = np.broadcast_to(eval_expr(expr, {self.var: ts}), ts.shape)
            except EvalError as exc:
                raise MeasureError(f"survival segment on {interval}: {exc}") from exc
            if (bad := first_flagged(vals < -EQ_TOL)) is not None:
                raise MeasureError(f"survival function negative at t={float(ts[bad])}")
            if (up := first_flagged(np.diff(vals) > TOL)) is not None:
                i = int(up[0])
                raise MeasureError(
                    f"survival function increases between t={ts[i]} and t={ts[i + 1]}"
                )
            if prev is not None and vals[0] > prev + TOL:
                raise MeasureError(
                    f"survival function jumps upward at segment boundary t={interval.lo}"
                )
            prev = float(vals[-1])
        return True


def survival_scenario(y_bar, segments, var="t") -> SurvivalScenario:
    """Build a SurvivalScenario from (interval-text, expr-text) pairs."""
    parsed = []
    for interval, source in segments:
        iv = interval if isinstance(interval, Interval) else parse_interval(interval)
        expr = parse(source) if isinstance(source, str) else source
        parsed.append((iv, expr))
    scenario = SurvivalScenario(float(y_bar), tuple(parsed), var)
    scenario.validate()
    return scenario
