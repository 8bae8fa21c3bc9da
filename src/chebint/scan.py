"""The verdict of every check, its first-witness rule, the grid scans, their
grid limits and the package's tolerance policy.

Every scalar condition is checked the same way: walk the first axis in order,
compare lhs and rhs arrays over the other axes, re-check the first flagged point.

``scan`` hands its ``sides`` a slice of consecutive rows, as many as fit in
half of ``_BLOCK`` points, and compares the block in one pass: a small row
(441 points for c2 at h = 0.05) costs a dozen numpy calls whose fixed cost
outweighs their arithmetic.  Every block, of one row or more, passes its
operations the column of its rows' values, so a row's points are the same
whatever block holds it.  The witness is still the first flagged row's first
flagged point in C order, re-checked, then the next flagged row's.
``scan_separable`` compares the maximal points of its rows in blocks the
same way: a c1 row over a few exact c/d values is a few thousand points, and
its maxima a few hundred.  A row whose maximal points flag is confirmed from
one (c, d) slab, at the first b where they flag.  Both run their blocks
through one loop, ``_flagged_rows``: a block whose comparison raises is
re-run one row at a time, so an earlier row's witness, or the first error a
row raises, comes out as in a row-by-row scan.

One halving rule serves the conditions that are mirror-symmetric across
rows.  c2 is the same at (a, b, c) and (b, a, c), c1 and ``dominates`` at
(a, b, c, d) and (b, a, d, c), when the caller's exact guard says so, bit for
bit and errors included (builtin operations that commute exactly, shared
shapes and operations on both sides of the mirror, errors that come from one
point alone): it sets ``mirrored``.  A flagged point's mirror flags too and
comes first in C order when b < a, so the first flagged point has b >= a,
and each block of rows compares only the b from the block's first row on
(a row run alone takes b >= a), in blocks of the narrower rows no larger
than the full scan's.  The points left out mirror points of earlier rows,
which flag and raise nowhere.  The rule gathers nothing, so small grids are
halved too.  A rejected re-check or any error ends the halved scan, and the
full scan decides with its own verdict or exception (``_halved_or_full``).
c1's cut c <= d at b = a is left out.

q's symmetry, (b, c) inside a row a, is the one the rows cannot reach: each
of its rows packs the pairs (b, c) with c >= b as one axis (``mirror_pairs``),
a (steps, 2) array whose witness takes both coordinates of its pair, and
only when the full grid holds more than ``_BLOCK`` points, which the full
scan would cover in a block or two faster than the pairs are gathered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TOL = 1e-9  # computed values: inequality sides, argument bounds, equality checks
EQ_TOL = 1e-12  # stored values: measure values, function bounds, monotone samples
_BLOCK = 1 << 15  # elements a scan compares at a time (256 KB of float64); ``scan`` takes half
# points in one scan row (128 MB of float64); the h = 0.005 c1 row, 201^3, fits
MAX_ROW_POINTS = 1 << 24
# grids of at most this many points are memoised, 128 of them: about 4 MB
_MEMO_POINTS = 1 << 12


class GridError(ValueError):
    """A grid the scans refuse to build: a step that is not a finite positive
    number, or more than MAX_ROW_POINTS points in a row."""


def check_step(step):
    """Refuse (GridError) a grid step that is not a finite positive number."""
    if not 0 < step < math.inf:  # NaN included
        raise GridError(f"grid step {step} is not a finite positive number")


def axis(lo, hi, step, least=1):
    """``np.linspace(lo, hi, max(round((hi - lo) / step), least) + 1)``.

    Refused with a GridError, before anything is allocated, when the step is
    not a finite positive number or that is more than MAX_ROW_POINTS points.
    The grid is read-only and may be shared (``linspace``).
    """
    check_step(step)
    spans = (hi - lo) / step
    if not spans <= MAX_ROW_POINTS - 1:  # NaN and inf included
        raise GridError(f"grid step {step} gives more than {MAX_ROW_POINTS} points on [{lo}, {hi}]")
    return linspace(lo, hi, max(int(round(spans)), least) + 1)


def linspace(lo, hi, n):
    """``np.linspace(lo, hi, n)`` as a read-only array, bit for bit: every
    grid of the package comes from here, and one of at most ``_MEMO_POINTS``
    points is built once and shared by every caller."""
    if n > _MEMO_POINTS:
        return _read_only_linspace(lo, hi, n)
    return _memo_linspace(lo, hi, n, *signs(lo, hi))


def signs(*values):
    """The sign of each value, signed zeros included: a memo key carries them,
    since -0.0 == 0.0 and both hash alike."""
    return tuple(math.copysign(1.0, v) for v in values)


def _read_only_linspace(lo, hi, n, *_signs):
    out = np.linspace(lo, hi, n)
    out.flags.writeable = False
    return out


# typed, so an int, a float and a numpy endpoint each get np.linspace's own
# grid; a raised error is not cached
_memo_linspace = lru_cache(maxsize=128, typed=True)(_read_only_linspace)


def check_row(*lengths):
    """Refuse (GridError) a scan row over axes of these lengths that holds more
    than MAX_ROW_POINTS points.  A scan calls it before it builds its tables,
    which are never larger than its row."""
    points = math.prod(lengths)
    if points > MAX_ROW_POINTS:
        raise GridError(f"a scan row of {points} points exceeds the limit of {MAX_ROW_POINTS}")


@dataclass(frozen=True)
class Verdict:
    """The result of every check: it holds (exactly or on a grid), or it is
    violated at a first witness, or a hypothesis failed."""

    status: str  # holds | holds-on-grid | violated | hypothesis-failed
    witness: tuple | None = None
    lhs: float | None = None
    rhs: float | None = None
    detail: str = ""
    evidence: str = ""
    warnings: tuple = ()

    @property
    def holds(self):
        return self.status in ("holds", "holds-on-grid")


def first_flagged(mask):
    """The C-order index tuple of the first flagged point of ``mask``, or None."""
    if not np.count_nonzero(mask):  # cheaper than argmax when nothing is flagged
        return None
    return np.unravel_index(int(np.argmax(mask)), np.shape(mask))


def scan(axes, sides, at, evidence, mirrored=False) -> Verdict:
    """Scan the grid axes[0] x axes[1] x ... for a point where lhs < rhs.

    An axis after the first is a 1-D array of values, or a (steps, 2) array
    of packed pairs (``mirror_pairs``), which counts as one axis of ``steps``
    points and gives the witness both coordinates of its pair.

    ``sides(rows, b0)`` returns the (lhs, rhs) arrays of ``rows``, a slice of
    consecutive indices into axes[0], over axes[1][b0:] and the other axes,
    or anything that broadcasts to (number of rows, len(axes[1]) - b0) + the
    shape of the rest; b0 is 0 unless the scan is halved.  A block holds as
    many rows as fit in ``_BLOCK // 2`` points, and at least one: each float64
    temporary then stays within 128 KB, glibc's default mmap threshold, past
    which a scan in a fresh process page-faults every block.  The block is
    compared in one pass, into buffers allocated once per scan; its flagged
    rows are visited in order, each row's first flagged point in C order is
    re-checked by ``_confirm``, and the first confirmed one is the witness.

    ``mirrored`` is the caller's exact guard that the condition is the same,
    errors included, at (a, b, ...) and at (b, a, ...), and that each error
    comes from one point alone.  The first flagged point then has b >= a, and
    each block of rows compares axes[1] only from the block's first row on
    (a row run alone takes b >= a), in blocks of narrower rows no larger than
    the full scan's: the points it leaves out mirror points of earlier rows,
    which flag and raise nowhere.  A rejected re-check or any error ends the
    halved scan, and the full scan decides (``_halved_or_full``).

    A block whose ``sides`` raises is re-run one row at a time
    (``_flagged_rows``).  A block may raise where none of its rows does: an
    expression's piecewise evaluates a branch on the whole array once any of
    its points takes that branch.  The scan only reads what ``sides``
    returns, which may be views of hoisted tables.  A row of more than
    MAX_ROW_POINTS points is refused.
    """
    first, rest = axes[0], axes[1:]
    row = tuple(len(ax) for ax in rest)
    check_row(*row)
    lead = min(max(_BLOCK // 2 // max(math.prod(row), 1), 1), max(len(first), 1))
    size = lead * max(math.prod(row), 1)  # a block's points, halved or not
    viol, shifted = np.empty(size, dtype=bool), np.empty(size)

    def run(at, half):
        def shape(i):  # a row's shape in a block that starts at row i
            return (row[0] - i,) + row[1:] if half else row

        def flagged(start, n):  # (row, first b, its flags) of the rows start..start+n-1 that flag
            b0, block = start if half else 0, (n,) + shape(start)
            lhs, rhs = sides(slice(start, start + n), b0)
            flags = _view(viol, block)
            np.less(lhs, np.subtract(rhs, TOL, out=_view(shifted, block)), out=flags)
            if not flags.any():
                return ()
            return [(start + j, b0, flags[j])
                    for j in np.flatnonzero(flags.reshape(n, -1).any(axis=1)).tolist()]

        def rows_at_once(i):  # as many rows from row i as fit in a full block
            return max(size // max(math.prod(shape(i)), 1), 1)

        for i, b0, flags in _flagged_rows(0, len(first), rows_at_once, flagged):
            if verdict := _confirm(flags, first[i], (rest[0][b0:],) + rest[1:], at, evidence):
                return verdict
        return Verdict("holds-on-grid", evidence=evidence)

    return _halved_or_full(run, at, mirrored)


def _flagged_rows(start, stop, lead, flagged):
    """The items ``flagged(i, n)`` lists for the rows i..i+n-1, over blocks of
    ``lead(i)`` consecutive rows from start to stop, in row order.

    When a block raises, its rows are re-run one at a time, lazily, as in a
    row-by-row scan: the caller takes an earlier row's items before a later
    row is run, the error of the first row that raises surfaces, and when
    no row raises the loop goes on to the next block.  The caller takes each
    item before the next block or row is run, so items may be views of
    buffers that the next run overwrites.
    """
    i = start
    while i < stop:
        n = min(lead(i), stop - i)
        try:
            items = flagged(i, n)
        except Exception:
            if n == 1:
                raise
            items = (item for j in range(i, i + n) for item in flagged(j, 1))
        yield from items
        i += n


class _Unmirrored(Exception):
    """A halved scan rejected a re-check, which only the full scan decides."""


def _halved_or_full(run, at, mirrored):
    """``run(at, half)``'s verdict: the halved pass when ``mirrored``, and the
    full pass (half False) otherwise or once the halved pass ends, which a
    rejected re-check or any error does.  The full pass decides with its own
    verdict or exception: its next flagged row may hold points the halved
    pass left out."""
    if mirrored:
        def checked(*point):
            wl, wr = at(*point)
            if not wl < wr - TOL:
                raise _Unmirrored
            return wl, wr

        try:
            return run(checked, True)
        except Exception:  # noqa: BLE001 - the full pass raises or decides it
            pass
    return run(at, False)


def _confirm(viol, value, rest, at, evidence):
    """The row's first flagged point, in C order of ``viol`` over the axes
    ``rest``, re-checked with ``at``: its violated Verdict, or None (the scan
    goes on to the next flagged row) when the re-check does not confirm it.
    The callers test ``viol.any()`` first, which is faster than
    ``first_flagged``'s count on a whole row.  ``value`` is the row's value;
    a packed axis of ``rest`` gives both coordinates of its pair."""
    index = first_flagged(viol)
    coords = [value.tolist()] + [ax[j].tolist() for ax, j in zip(rest, index)]
    point = tuple(x for c in coords for x in (c if type(c) is list else (c,)))  # a pair is two
    wl, wr = at(*point)
    return Verdict("violated", point, wl, wr, evidence=evidence) if wl < wr - TOL else None


def scan_separable(ab, cd, u, v, p, q, left, right, at, evidence, box=None,
                   left_box=None, mirrored=False) -> Verdict:
    """Scan ab x ab x cd x cd for a point (a, b, c, d) where
    ``left(u(a)[b], v[c, d]) < right(p[a, c], q[b, d])``.

    ``u`` is the row function: it takes the column ``ab[rows, None]`` of a
    block of rows and returns their (row, b) table over ab.  ``v``, ``p``
    and ``q`` are tables hoisted over (c, d), (a, c) and (b, d), which the
    scan only reads; ``left`` and ``right`` are array operations that
    broadcast.  Witnesses are those of ``scan`` over (b, c, d) rows, and
    ``at`` re-checks them.

    Rows run over (c, d, b), compared a cache-sized block of leading slabs at
    a time.  The left side is taken once per distinct value of v, as a
    (value, b) table gathered through v's index.  The right side is taken
    once per distinct bit pattern of the row's p[a, :], as a (key, d, b)
    table over the contiguous (d, b) block of q, and each block gathers its
    slabs from it (``_gather``).  When an evaluation of one row raises, the
    row is re-run in (b, c, d) order, so the error names the first bad value
    ``scan`` meets.

    ``box`` is None or a box (lo, hi) on which ``right`` is non-decreasing in
    both arguments.  Inside a level set of v the left side is constant, so
    when p and q lie in the box and do not decrease along their second axis,
    a point's rhs is at most that of the level set's maximal point reached by
    stepping c or d up inside the set.  The rows then compare only their
    maximal points, in blocks of as many consecutive rows as keep each
    (row, maximal point, b) array within ``_BLOCK // 2`` points, through
    ``scan``'s loop (``_flagged_rows``), and skip the rows where none flags.
    A row whose maximal points over ab exceed ``_BLOCK // 2`` and are more
    than half its (c, d) points is scanned whole as above instead.  At each
    b a row flags exactly where its maximal points do, so the first flagged
    point of a row whose maximal points flag, in (b, c, d) order, is the
    first in C order of its (c, d) slab at the first b where they flag: the
    row compares that slab, with its left side from the block, and
    ``_confirm`` re-checks the point.

    ``left_box`` is the dual: None or a box on which ``left`` is
    non-decreasing in both arguments.  Inside level sets of p over (a, c)
    and q over (b, d) the right side is constant, and where v and the rows
    u(a) lie in the box and do not decrease, the left side only falls as a,
    b, c or d step down inside the sets.  So every row before the first
    whose minimal points flag holds (``_level_set_minima``), and the rows
    run as above from that one.

    ``mirrored`` is ``scan``'s, under the mirror (a, b, c, d) -> (b, a, d, c):
    u(a)[b] = u(b)[a], v and ``right`` are symmetric and p = q, bit for bit,
    and each error of ``left`` and ``u`` comes from one point alone (no
    piecewise).  c1 sets it when ``_c2_mirrored`` holds and its triangle
    commutes exactly, ``dominates`` when its inner operation commutes exactly
    and its outer one is a builtin or an expression without a piecewise.
    Each block of rows then compares only the b from its first row on, from
    row ``first`` (``_level_set_minima``) in both passes; the maxima pass
    packs these narrower rows up to ``_BLOCK // 2`` points by their actual
    width, and a whole row views its buffers at its width.  The cut to
    c <= d at b = a is left out: it would split the diagonal's (c, d) slab
    for about 1/len(ab) of the points.
    """
    row = (len(cd), len(cd), len(ab))
    check_row(*row)
    v_values, v_index = distinct(v)
    q_db = np.ascontiguousarray(q.T)
    keys = np.broadcast_to(np.asarray(p, dtype=float), (len(ab), len(cd)))
    if (maxima := _level_set_maxima(v, p, q, box)) is not None:
        kc, kd = maxima
        levels, kept_keys, kept_q = v_index[kc, kd], keys[:, kc, None], q_db[kd]
    # the whole rows' flat buffers, viewed at each row's width (``_view``)
    size = max(min(_BLOCK // max(row[1] * row[2], 1), row[0]), 1) * row[1] * row[2]
    viol, shifted, gathered = np.empty(math.prod(row), dtype=bool), np.empty(size), np.empty(size)

    def sides(i, n, b0, row_keys, q_side):  # lhs over (row, value, b >= b0)
        try:
            lhs = left(u(ab[i:i + n, None])[..., None, b0:], v_values[:, None])
            return _fit(lhs, (n, len(v_values), len(ab) - b0)), right(row_keys, q_side)
        except Exception:
            if n == 1:  # re-run over (b, c, d), so that any error is the plain scan's
                left(u(ab[i:i + 1, None])[0][:, None, None], v[None, :, :])
                right(p[i][None, :, None], q[:, None, :])
            raise

    def slab(i, lhs, kept, b0, at):  # the row's witness: its (c, d) slab at its first flagged b
        j = int(np.argmax(kept.any(axis=0)))
        flags = np.less(np.take(lhs[:, j], v_index, mode="clip"),
                        np.subtract(right(keys[i, :, None], q[b0 + j, None, :]), TOL))
        return _confirm(flags[None], ab[i], (ab[b0 + j:b0 + j + 1], cd, cd), at, evidence)

    def whole(i, b0, at):  # the row's witness over every point from b0 on, or None
        values, index = distinct(keys[i])  # the rhs is one (d, b) slab per distinct key
        lhs, rhs = sides(i, 1, b0, values[:, None, None], q_db[None, :, b0:])
        plane = (row[1], len(ab) - b0)  # (d, b)
        lhs, rhs = lhs[0], _fit(rhs, (len(values),) + plane)
        lead = max(min(size // math.prod(plane), row[0]), 1)
        flags = _view(viol, (row[0],) + plane)
        slots = index.tolist()
        for k in range(0, row[0], lead):
            n = min(lead, row[0] - k)
            out = _view(shifted, (n,) + plane)
            slabs = _gather(rhs, slots[k:k + n], out)
            slabs = np.subtract(slabs, TOL, out=out[:len(slabs)])  # a repeat stays one slab
            np.less(np.take(lhs, v_index[k:k + n], axis=0, out=_view(gathered, (n,) + plane),
                            mode="clip"), slabs, out=flags[k:k + n])
        del lhs, rhs  # free the sides before the next row is built
        return (_confirm(flags.transpose(2, 0, 1), ab[i], (ab[b0:], cd, cd), at, evidence)
                if flags.any() else None)

    # minimal points are compared when at most half the points and no more than
    # the maximal points' rows compare; an equal q shares p's level sets
    most = len(levels) * len(ab) ** 2 if maxima is not None else keys.size ** 2 // 2
    first = _level_set_minima(ab, u, v, keys, keys if q is p else q, left, right, box,
                              left_box, most)

    def run(at, half):
        def pruned(i, n):  # (row, lhs, maximal points' flags, first b) of the rows that flag
            b0 = i if half else 0
            if maxima is None:
                return [(i, None, None, b0)]
            lhs, rhs = sides(i, n, b0, kept_keys[i:i + n], kept_q[:, b0:])
            rhs = np.subtract(rhs, TOL)  # frees right's
            kept = np.less(np.take(lhs, levels, axis=1, mode="clip"), rhs)
            return [(i + j, lhs[j], kept[j], b0)
                    for j in np.flatnonzero(kept.reshape(n, -1).any(axis=1)).tolist()]

        def rows_at_once(i):  # the maximal points of as many rows as fit in half a block
            return max(_BLOCK // 2 // max(len(levels) * (len(ab) - (i if half else 0)), 1), 1) \
                if maxima is not None else 1

        for i, lhs, kept, b0 in _flagged_rows(first, len(ab), rows_at_once, pruned):
            if verdict := (whole(i, b0, at) if kept is None else slab(i, lhs, kept, b0, at)):
                return verdict
        return Verdict("holds-on-grid", evidence=evidence)

    return _halved_or_full(run, at, mirrored)


def _level_set_maxima(v, p, q, box):
    """The (c, d) indices of the points that are maximal in their level set
    of v: neither v[c + 1, d] nor v[c, d + 1] has v[c, d]'s bits.

    None, for a scan of every point, when there is no box, when p or q is not
    a 2-D table of finite values inside the box that does not decrease along
    axis 1, or when more than half the points are maximal and, over q's rows
    (one per b), they exceed ``_BLOCK // 2`` points.
    """
    if box is None or not (_monotone(p, box, (1,)) and _monotone(q, box, (1,))):
        return None
    kc, kd = np.nonzero(_level_set_ends(v, up=True))
    return (kc, kd) if 2 * len(kc) <= np.size(v) or len(kc) * len(q) <= _BLOCK // 2 else None


def _level_set_minima(ab, u, v, p, q, left, right, box, left_box, most):
    """The first row of a separable scan with a flagged point that is minimal
    in its level sets of p over (a, c) and q over (b, d), or len(ab): every
    row before it holds.  A point is minimal when neither p[a - 1, c] nor
    p[a, c - 1] has p[a, c]'s bits, and the same for q.  The minimal points
    are compared in row order, ``_BLOCK`` points at a time.

    0, for a scan of every row, when either box is missing (both operations
    must be builtins: exact, elementwise and unable to raise), when more
    than ``most`` (a, b, c, d) points are minimal, when ``u(ab[:, None])``
    is not an (a, b) table, or when it or v is not a table of finite values
    inside ``left_box`` that does not decrease along either axis.
    """
    if box is None or left_box is None:
        return 0
    ends_p = _level_set_ends(p, up=False)
    ends_q = ends_p if q is p else _level_set_ends(q, up=False)
    if (np.count_nonzero(ends_p) * np.count_nonzero(ends_q) > most
            or not _monotone(v, left_box, (0, 1))
            or np.shape(u_ab := u(ab[:, None])) != (len(ab), len(ab))
            or not _monotone(u_ab, left_box, (0, 1))):
        return 0
    (ka, kc), (kb, kd) = np.nonzero(ends_p), np.nonzero(ends_q)
    p_k, q_k = p[ka, kc, None], q[kb, kd]
    block = max(_BLOCK // len(kb), 1)  # minimal (a, c) points per comparison
    for start in range(0, len(ka), block):
        ks = slice(start, start + block)
        flags = np.less(left(np.take(u_ab[ka[ks]], kb, axis=1), np.take(v[kc[ks]], kd, axis=1)),
                        np.subtract(right(p_k[ks], q_k), TOL))
        if (hit := first_flagged(flags)) is not None:
            return int(ka[start + hit[0]])
    return len(ab)


def _level_set_ends(table, up):
    """The points of a 2-D table whose bit pattern no neighbour one step up
    (``up``), or one step down, along either axis shares."""
    ids = np.ascontiguousarray(table, dtype=float).view(np.int64)
    keep = np.ones(ids.shape, dtype=bool)
    end = slice(None, -1) if up else slice(1, None)
    keep[end] &= ids[1:] != ids[:-1]
    keep[:, end] &= ids[:, 1:] != ids[:, :-1]
    return keep


def _monotone(table, box, axes):
    """Whether ``table`` is a 2-D table of finite values inside ``box`` that
    does not decrease along ``axes``."""
    table = np.asarray(table, dtype=float)
    steps = (table.T if ax else table for ax in axes)
    if table.ndim != 2 or not all((t[1:] >= t[:-1]).all() for t in steps):  # NaN fails
        return False
    ends = np.array([table.min(initial=box[1]), table.max(initial=box[0])])
    return bool(np.isfinite(ends).all() and box[0] <= ends[0] and ends[1] <= box[1])


def _gather(data, slots, out):
    """The slabs ``data[slots]``: a view when the slots run consecutively or
    repeat one slab (which broadcasts), else a copy into ``out``."""
    first = slots[0]
    if slots == list(range(first, first + len(slots))):
        return data[first:first + len(slots)]
    if slots.count(first) == len(slots):
        return data[first:first + 1]
    return np.take(data, slots, axis=0, out=out, mode="clip")


def _view(buffer, shape):
    """The leading points of a flat buffer, as an array of ``shape``."""
    return buffer[:math.prod(shape)].reshape(shape)


def _fit(side, shape):
    """``side`` as an array of ``shape``: itself if it has that shape, else a broadcast view."""
    return side if np.shape(side) == shape else np.broadcast_to(side, shape)


def mirror_pairs(values):
    """The pairs (x, y) of ``values`` with y >= x, in C order, as a packed
    (steps, 2) axis for ``scan``, and the index arrays of x and of y (int32,
    half the memory of intp: a scan holds them beside its tables)."""
    first, second = (ix.astype(np.int32) for ix in np.triu_indices(len(values)))
    return np.stack((values[first], values[second]), axis=1), first, second


def distinct(table):
    """The distinct values of ``table``, in the order of their int64 bit
    patterns, and the index that rebuilds it.

    Values are told apart by bit pattern, so ``values[index]`` is ``table``
    bit for bit, signed zeros and NaN payloads included.  One sort of the
    int64 view finds them: about 5.5 us on 4-25 entries and 90-145 us on a
    101^2 table (a dict of bit patterns cost 0.55 ms there); its first use
    maps about 0.4 MB of numpy's sort code.
    """
    arr = np.ascontiguousarray(table, dtype=float)
    bits, index = np.unique(arr.view(np.int64).ravel(), return_inverse=True)
    return bits.view(float), index.reshape(arr.shape)
