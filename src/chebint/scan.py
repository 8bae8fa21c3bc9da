"""The grid-scan kernel, its verdict, and the package's tolerance policy.

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


def scan(axes, sides, at, evidence, order=None, lhs_index=None) -> Verdict:
    """Scan the grid axes[0] x axes[1] x ... for a point where lhs < rhs.

    Rows of axes[0] are visited in order; ``sides(i)`` returns the (lhs, rhs)
    arrays of row i, or anything that broadcasts to the row.  ``order`` lists,
    for each axis of those arrays, the index into axes[1:] of the axis it
    runs along; by default the arrays run along axes[1:] in that order.
    Whatever the order, the first flagged point of a row is taken in C order
    of axes[1:] and re-checked with ``at(*point)``; if the re-check does not
    confirm it, the rest of that row is skipped and the scan moves on.

    With ``lhs_index``, an integer array over the leading axes of the row,
    the lhs ``sides`` returns is a table with one row per index value over
    the remaining axes, and the row's lhs is ``table[lhs_index]``.

    The scan compares a block of leading slabs at a time, small enough for
    ``rhs - TOL`` and the gathered lhs to stay in cache, into buffers it
    allocates once: the row's mask ``lhs < rhs - TOL`` and the two blocks.
    The arrays ``sides`` returns are only read, so they may be views of
    hoisted tables.
    """
    first, rest = axes[0], axes[1:]
    order = tuple(range(len(rest))) if order is None else tuple(order)
    back = tuple(int(k) for k in np.argsort(order))
    row = tuple(len(rest[k]) for k in order)
    viol = np.empty(row, dtype=bool)
    lead = max(min(_BLOCK // max(math.prod(row[1:]), 1), row[0]), 1)
    shifted = np.empty((lead,) + row[1:])
    if lhs_index is not None:
        gathered = np.empty_like(shifted)
        table = (int(lhs_index.max()) + 1,) + row[lhs_index.ndim:]
    for i in range(len(first)):
        lhs, rhs = sides(i)
        rhs = np.broadcast_to(rhs, row)
        lhs = np.broadcast_to(lhs, row if lhs_index is None else table)
        for k in range(0, len(viol), lead):
            n = min(lead, len(viol) - k)
            np.subtract(rhs[k:k + n], TOL, out=shifted[:n])
            left = lhs[k:k + n] if lhs_index is None else np.take(
                lhs, lhs_index[k:k + n], axis=0, out=gathered[:n], mode="clip")
            np.less(left, shifted[:n], out=viol[k:k + n])
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


def checked_rows(fast, reference):
    """Row sides from ``fast``, with ``reference`` answering for its errors.

    ``reference`` evaluates a row point by point in the layout of axes[1:],
    so the first bad value it meets (and names in its error) is the one the
    scan's own order meets first.  When ``fast`` raises, the row is re-run
    through ``reference``, whose error surfaces instead.
    """
    def sides(i):
        try:
            return fast(i)
        except Exception:
            reference(i)
            raise
    return sides
