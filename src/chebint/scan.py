"""The grid-scan kernel, its verdict, its grid limit and the package's tolerance policy.

Every scalar condition is checked the same way: walk the first axis in order,
compare lhs and rhs arrays over the other axes, re-check the first flagged point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9  # computed values: inequality sides, argument bounds, equality checks
EQ_TOL = 1e-12  # stored values: measure values, function bounds, monotone samples
_BLOCK = 1 << 15  # elements the scan compares at a time (256 KB of float64)
# points in one scan row (128 MB of float64); the h = 0.005 c1 row, 201^3, fits
MAX_ROW_POINTS = 1 << 24


class GridError(ValueError):
    """A grid the scans refuse to build: more than MAX_ROW_POINTS points in a row."""


def axis(lo, hi, step, least=1):
    """``np.linspace(lo, hi, max(round((hi - lo) / step), least) + 1)``.

    Refused with a GridError, before anything is allocated, when that is
    more than MAX_ROW_POINTS points.
    """
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
    status: str  # holds-on-grid | violated | hypothesis-failed
    witness: tuple | None = None
    lhs: float | None = None
    rhs: float | None = None
    detail: str = ""
    evidence: str = ""

    @property
    def holds(self):
        return self.status == "holds-on-grid"


def scan(axes, sides, at, evidence, order=None, lhs_index=None, rhs_keys=None) -> Verdict:
    """Scan the grid axes[0] x axes[1] x ... for a point where lhs < rhs.

    Rows of axes[0] are visited in order; ``sides(i)`` returns the (lhs, rhs)
    arrays of row i, or anything that broadcasts to the row.  The first
    flagged point of a row, in C order of axes[1:], is re-checked with
    ``at(*point)``; if the re-check does not confirm it, the rest of the row
    is skipped.  A row of more than MAX_ROW_POINTS points is refused.

    ``scan_separable`` lays its rows out in its own way, and says how:
    - ``order`` lists, for each axis of the row arrays, the index into
      axes[1:] of the axis it runs along (by default axes[1:] in order);
    - with ``lhs_index``, an integer array over the leading row axes, the
      lhs is a table with one row per index value, and the row's lhs is
      ``table[lhs_index]``;
    - with ``rhs_keys``, a row of keys per value of axes[0] along the leading
      row axis, the rhs depends on axes[0] only through the key, and
      ``sides(i, keys)`` returns one rhs slab per key of ``keys``.  A row of
      at least ``_BLOCK`` points is gathered from a table of ``slab - TOL``
      keyed by the key's bit pattern, which holds at most one row's worth
      and is filled with the keys rows lack; a smaller row, or one whose new
      keys are more than half the row or do not fit, is evaluated whole,
      ``sides(i, rhs_keys[i])``.  Both paths compare the same values.

    The scan compares a block of leading slabs at a time, small enough to
    stay in cache, into buffers it allocates once; it only reads what
    ``sides`` returns, which may be views of hoisted tables.
    """
    first, rest = axes[0], axes[1:]
    order = tuple(range(len(rest))) if order is None else tuple(order)
    back = tuple(int(k) for k in np.argsort(order))
    row = tuple(len(rest[k]) for k in order)
    check_row(*row)
    viol = np.empty(row, dtype=bool)
    lead = max(min(_BLOCK // max(math.prod(row[1:]), 1), row[0]), 1)
    shifted = np.empty((lead,) + row[1:])
    if lhs_index is not None:
        gathered = np.empty_like(shifted)
        table = (int(lhs_index.max()) + 1,) + row[lhs_index.ndim:]
    if rhs_keys is not None:
        rhs_keys = np.broadcast_to(np.asarray(rhs_keys, dtype=float), (len(first), row[0]))
        slabs = _Slabs(row) if viol.size >= _BLOCK else None
    for i in range(len(first)):
        slots = None  # the row's slab indices when it is gathered from the table
        if rhs_keys is None:
            lhs, rhs = sides(i)
        elif (placed := slabs and slabs.place(rhs_keys[i])) is not None:
            slots, fresh, store = placed
            lhs, rhs = sides(i, fresh)
            np.subtract(rhs, TOL, out=store)
        else:
            lhs, rhs = sides(i, rhs_keys[i])
        if slots is None:
            rhs = _fit(rhs, row)
        lhs = _fit(lhs, row if lhs_index is None else table)
        for k in range(0, len(viol), lead):
            n = min(lead, len(viol) - k)
            if slots is None:
                right = np.subtract(rhs[k:k + n], TOL, out=shifted[:n])
            else:
                right = _gather(slabs.data, slots[k:k + n], shifted[:n])
            left = lhs[k:k + n] if lhs_index is None else np.take(
                lhs, lhs_index[k:k + n], axis=0, out=gathered[:n], mode="clip")
            np.less(left, right, out=viol[k:k + n])
        del lhs, rhs  # free the sides before the next row is built
        if not viol.any():
            continue
        flagged = viol.transpose(back)
        index = np.unravel_index(int(np.argmax(flagged)), flagged.shape)
        point = (float(first[i]),) + tuple(float(ax[j]) for ax, j in zip(rest, index))
        wl, wr = at(*point)
        if wl < wr - TOL:
            return Verdict("violated", point, wl, wr, evidence=evidence)
    return Verdict("holds-on-grid", evidence=evidence)


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


class _Slabs:
    """The rhs slabs of a scan, ``slab - TOL``, keyed by the bit pattern of their key.

    Holds at most one row's worth of slabs: the memory of the one rhs row
    the dense path builds at a time.
    """

    def __init__(self, row):
        self.data = np.empty(row)
        self.slot = {}  # key bit pattern -> index of its slab in data

    def place(self, keys):
        """The slab index of each key, the keys the table lacks (in first-seen
        order) and the slabs to write their ``slab - TOL`` into.

        None, and no change, when the keys the table lacks are more than half
        the row or do not fit.
        """
        slot = self.slot
        bits = np.ascontiguousarray(keys).view(np.int64).tolist()
        fresh = [b for b in dict.fromkeys(bits) if b not in slot]
        start, end = len(slot), len(slot) + len(fresh)
        # a row that reuses less than half its slabs gains little from the
        # table, and storing them would cost up to a row of extra memory
        if 2 * len(fresh) > len(bits) or end > len(self.data):
            return None
        slot.update(zip(fresh, range(start, end)))
        slots = list(map(slot.__getitem__, bits))
        return slots, np.array(fresh, dtype=np.int64).view(float), self.data[start:end]


def scan_separable(ab, cd, u, v, p, q, left, right, at, evidence) -> Verdict:
    """Scan ab x ab x cd x cd for a point (a, b, c, d) where
    ``left(u(a)[b], v[c, d]) < right(p[a, c], q[b, d])``.

    ``u(a)`` is the row function over ab; ``v``, ``p`` and ``q`` are tables
    hoisted over (c, d), (a, c) and (b, d); ``left`` and ``right`` are array
    operations that broadcast.  Witnesses are those of the plain scan over
    (b, c, d) rows, and ``at`` re-checks them.

    Rows are laid out as (c, d, b).  The left side is taken once per distinct
    value of v, as a (value, b) table gathered through v's index; the right
    side runs over the contiguous (d, b) block of q, once per value of p, and
    the kernel keeps those slabs in its table.  When that evaluation raises,
    whether for a whole row or for the keys the table lacks, the row is
    re-run in (b, c, d) order, so the error names the first bad value the
    plain scan meets.
    """
    v_values, v_index = distinct(v)
    q_db = np.ascontiguousarray(q.T)

    def sides(i, keys):  # lhs over (value, b); rhs over (key, d, b)
        try:
            return (left(u(ab[i])[None, :], v_values[:, None]),
                    right(keys[:, None, None], q_db[None, :, :]))
        except Exception:  # re-run over (b, c, d), so that any error is the plain scan's
            left(u(ab[i])[:, None, None], v[None, :, :])
            right(p[i][None, :, None], q[:, None, :])
            raise

    return scan((ab, ab, cd, cd), sides, at, evidence,
                order=(1, 2, 0), lhs_index=v_index, rhs_keys=p)


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

