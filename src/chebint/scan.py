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
its maxima a few hundred.  Both run their blocks through one loop,
``_flagged_rows``: a block whose comparison raises is re-run one row at a
time, so an earlier row's witness, or the first error a row raises, comes out
as in a row-by-row scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9  # computed values: inequality sides, argument bounds, equality checks
EQ_TOL = 1e-12  # stored values: measure values, function bounds, monotone samples
_BLOCK = 1 << 15  # elements a scan compares at a time (256 KB of float64); ``scan`` takes half
# points in one scan row (128 MB of float64); the h = 0.005 c1 row, 201^3, fits
MAX_ROW_POINTS = 1 << 24


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
    """
    check_step(step)
    spans = (hi - lo) / step
    if not spans <= MAX_ROW_POINTS - 1:  # NaN and inf included
        raise GridError(f"grid step {step} gives more than {MAX_ROW_POINTS} points on [{lo}, {hi}]")
    return np.linspace(lo, hi, max(int(round(spans)), least) + 1)


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


def scan(axes, sides, at, evidence) -> Verdict:
    """Scan the grid axes[0] x axes[1] x ... for a point where lhs < rhs.

    ``sides(rows)`` returns the (lhs, rhs) arrays of ``rows``, a slice of
    consecutive indices into axes[0], or anything that broadcasts to
    (number of rows,) + the row's shape.  A block holds as many rows as fit in
    ``_BLOCK // 2`` points, and at least one: each float64 temporary then
    stays within 128 KB, glibc's default mmap threshold, past which a scan
    in a fresh process page-faults every block.  The block is compared in
    one pass, into buffers allocated once per scan; its flagged rows are
    visited in order, each row's first flagged point in C order is
    re-checked by ``_confirm``, and the first confirmed one is the witness.

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
    lead = max(min(_BLOCK // 2 // max(math.prod(row), 1), len(first)), 1)
    viol = np.empty((lead,) + row, dtype=bool)
    shifted = np.empty((lead,) + row)

    def flagged(start, n):  # (row, its flags) of the rows start..start+n-1 that flag
        lhs, rhs = sides(slice(start, start + n))
        np.less(lhs, np.subtract(rhs, TOL, out=shifted[:n]), out=viol[:n])
        if not viol[:n].any():
            return ()
        return [(start + j, viol[j])
                for j in np.flatnonzero(viol[:n].reshape(n, -1).any(axis=1)).tolist()]

    for i, flags in _flagged_rows(0, len(first), lead, flagged):
        if verdict := _confirm(flags, first[i], rest, at, evidence):
            return verdict
    return Verdict("holds-on-grid", evidence=evidence)


def _flagged_rows(start, stop, lead, flagged):
    """The items ``flagged(i, n)`` lists for the rows i..i+n-1, over blocks of
    ``lead`` consecutive rows from start to stop, in row order.

    When a block raises, its rows are re-run one at a time, lazily, as in a
    row-by-row scan: the caller takes an earlier row's items before a later
    row is run, the error of the first row that raises surfaces, and when
    no row raises the loop goes on to the next block.  The caller takes each
    item before the next block or row is run, so items may be views of
    buffers that the next run overwrites.
    """
    for i in range(start, stop, lead):
        n = min(lead, stop - i)
        try:
            items = flagged(i, n)
        except Exception:
            if n == 1:
                raise
            items = (item for j in range(i, i + n) for item in flagged(j, 1))
        yield from items


def _confirm(viol, value, rest, at, evidence):
    """The row's first flagged point, in C order of ``viol`` over the axes
    ``rest``, re-checked with ``at``: its violated Verdict, or None (the scan
    goes on to the next flagged row) when the re-check does not confirm it.
    The callers test ``viol.any()`` first, which is faster than
    ``first_flagged``'s count on a whole row."""
    index = first_flagged(viol)
    point = (float(value),) + tuple(float(ax[j]) for ax, j in zip(rest, index))
    wl, wr = at(*point)
    return Verdict("violated", point, wl, wr, evidence=evidence) if wl < wr - TOL else None


def scan_separable(ab, cd, u, v, p, q, left, right, at, evidence, box=None,
                   left_box=None) -> Verdict:
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
    stepping c or d up inside the set.  When at most half the (c, d) points
    are maximal, the rows first compare only those, in blocks of as many
    consecutive rows as keep each (row, maximal point, b) array within
    ``_BLOCK // 2`` points, through ``scan``'s loop (``_flagged_rows``).
    A row that flags is then scanned whole as above, for its witness, with
    its row of the block's left side; the other rows are skipped.

    ``left_box`` is the dual: None or a box on which ``left`` is
    non-decreasing in both arguments.  Inside level sets of p over (a, c)
    and q over (b, d) the right side is constant, and where v and the rows
    u(a) lie in the box and do not decrease, the left side only falls as a,
    b, c or d step down inside the sets.  So every row before the first
    whose minimal points flag holds (``_level_set_minima``), and the rows
    run as above from that one.
    """
    rest, row = (ab, cd, cd), (len(cd), len(cd), len(ab))
    check_row(*row)
    v_values, v_index = distinct(v)
    q_db = np.ascontiguousarray(q.T)
    keys = np.broadcast_to(np.asarray(p, dtype=float), (len(ab), len(cd)))
    if (maxima := _level_set_maxima(v, p, q, box)) is not None:
        kc, kd = maxima
        levels, kept_keys, kept_q = v_index[kc, kd], keys[:, kc, None], q_db[kd]
    viol = np.empty(row, dtype=bool)
    flagged = viol.transpose(2, 0, 1)  # a (b, c, d) view of each row's flags
    lead = max(min(_BLOCK // max(row[1] * row[2], 1), row[0]), 1)
    shifted, gathered = np.empty((lead,) + row[1:]), np.empty((lead,) + row[1:])

    def sides(i, n, row_keys, q_side, lhs=None):  # lhs over (row, value, b)
        try:
            if lhs is None:  # it does not depend on the keys: a row computes it once
                lhs = _fit(left(u(ab[i:i + n, None])[..., None, :], v_values[:, None]),
                           (n, len(v_values), len(ab)))
            return lhs, right(row_keys, q_side)
        except Exception:
            if n == 1:  # re-run over (b, c, d), so that any error is the plain scan's
                left(u(ab[i:i + 1, None])[0][:, None, None], v[None, :, :])
                right(p[i][None, :, None], q[:, None, :])
            raise

    def pruned(i, n):  # (row, its lhs) of the rows i..i+n-1 whose maximal points flag
        if maxima is None:
            return [(i, None)]
        lhs, rhs = sides(i, n, kept_keys[i:i + n], kept_q)
        rhs = np.subtract(rhs, TOL)  # frees right's
        kept = np.less(np.take(lhs, levels, axis=1, mode="clip"), rhs)
        return [(i + j, lhs[j:j + 1])
                for j in np.flatnonzero(kept.reshape(n, -1).any(axis=1)).tolist()]

    def whole(i, lhs):  # the row's witness over every point, or None
        values, index = distinct(keys[i])  # the rhs is one (d, b) slab per distinct key
        lhs, rhs = sides(i, 1, values[:, None, None], q_db[None, :, :], lhs)
        lhs, rhs = lhs[0], _fit(rhs, (len(values),) + row[1:])
        slots = index.tolist()
        for k in range(0, row[0], lead):
            n = min(lead, row[0] - k)
            slabs = _gather(rhs, slots[k:k + n], shifted[:n])
            slabs = np.subtract(slabs, TOL, out=shifted[:len(slabs)])  # a repeat stays one slab
            np.less(np.take(lhs, v_index[k:k + n], axis=0, out=gathered[:n], mode="clip"),
                    slabs, out=viol[k:k + n])
        del lhs, rhs  # free the sides before the next row is built
        return _confirm(flagged, ab[i], rest, at, evidence) if viol.any() else None

    # minimal points are compared when at most half the points and no more than
    # the maximal points' rows compare; an equal q shares p's level sets
    most = len(levels) * len(ab) ** 2 if maxima is not None else keys.size ** 2 // 2
    first = _level_set_minima(ab, u, v, keys, keys if q is p else q, left, right, box,
                              left_box, most)
    # the maximal points of as many rows as fit in half a block
    block_rows = max(min(_BLOCK // 2 // max(len(levels) * len(ab), 1), len(ab) - first), 1) \
        if maxima is not None else 1
    for i, lhs in _flagged_rows(first, len(ab), block_rows, pruned):
        if verdict := whole(i, lhs):
            return verdict
    return Verdict("holds-on-grid", evidence=evidence)


def _level_set_maxima(v, p, q, box):
    """The (c, d) indices of the points that are maximal in their level set
    of v: neither v[c + 1, d] nor v[c, d + 1] has v[c, d]'s bits.

    None, for a scan of every point, when there is no box, when p or q is not
    a 2-D table of finite values inside the box that does not decrease along
    axis 1, or when more than half the points are maximal.
    """
    if box is None or not (_monotone(p, box, (1,)) and _monotone(q, box, (1,))):
        return None
    kc, kd = np.nonzero(_level_set_ends(v, up=True))
    return (kc, kd) if 2 * len(kc) <= np.size(v) else None


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


def _fit(side, shape):
    """``side`` as an array of ``shape``: itself if it has that shape, else a broadcast view."""
    return side if np.shape(side) == shape else np.broadcast_to(side, shape)


def distinct(table):
    """The distinct values of ``table`` and the index that rebuilds it.

    Values are told apart by bit pattern, so ``values[index]`` is ``table``
    bit for bit, signed zeros and NaN payloads included.
    """
    arr = np.ascontiguousarray(table, dtype=float)
    # a dict, not np.unique: the tables are small (|c/d domain|^2), and
    # numpy's int64 sort costs 0.5 MB of resident code on first use
    slot = {}  # bit pattern -> position of its value
    index = [slot.setdefault(bits, len(slot)) for bits in arr.view(np.int64).ravel().tolist()]
    values = np.fromiter(slot, np.int64, len(slot)).view(float)
    return values, np.asarray(index, dtype=np.intp).reshape(arr.shape)

