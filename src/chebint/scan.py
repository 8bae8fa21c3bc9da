"""The grid-scan kernel, its verdict, and the package's tolerance policy.

Every scalar condition is checked the same way: walk the first axis in order,
compare lhs and rhs arrays over the other axes, re-check the first flagged point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-9  # computed values: inequality sides, argument bounds, equality checks
EQ_TOL = 1e-12  # stored values: measure values, function bounds, monotone samples


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


def scan(axes, sides, at, evidence) -> Verdict:
    """Scan the grid axes[0] x axes[1] x ... for a point where lhs < rhs.

    Rows of axes[0] are visited in order; ``sides(i)`` returns the (lhs, rhs)
    arrays of row i over axes[1:].  The first flagged point of a row in C
    order is re-checked with ``at(*point)``; if the re-check does not confirm
    it, the rest of that row is skipped and the scan moves to the next row.
    """
    first, rest = axes[0], axes[1:]
    for i in range(len(first)):
        lhs, rhs = sides(i)
        viol = lhs < rhs - TOL
        # Free the sides before the next row is built.  The mask lives on until
        # the next one replaces it; freeing it too lets glibc trim the row blocks
        # and fault them back in every row (50-70x the faults, 2x the time at 101^4).
        del lhs, rhs
        if not np.any(viol):
            continue
        index = np.unravel_index(int(np.argmax(viol)), viol.shape)
        point = (float(first[i]),) + tuple(float(ax[j]) for ax, j in zip(rest, index))
        wl, wr = at(*point)
        if wl < wr - TOL:
            return Verdict("violated", point, wl, wr, evidence=evidence)
    return Verdict("holds-on-grid", evidence=evidence)
