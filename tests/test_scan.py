"""The grid-scan kernel: row order, C order within a row, and the re-check rule."""

import numpy as np

import chebint
from chebint import chebyshev, scan as scan_module
from chebint.scan import TOL, Verdict, scan


def recording_scan(axes, flagged, confirmed):
    """Scan with lhs = 0 and rhs = 1 at the `flagged` (row, *rest) indices.

    `confirmed` holds the points whose re-check succeeds.  Returns the
    verdict, the rows built and the points re-checked.
    """
    rows, rechecked = [], []
    shape = tuple(len(ax) for ax in axes[1:])

    def sides(i):
        rows.append(i)
        rhs = np.zeros(shape)
        for index in flagged:
            if index[0] == i:
                rhs[index[1:]] = 1.0
        return np.zeros(shape), rhs

    def at(*point):
        rechecked.append(point)
        return (0.0, 1.0) if point in confirmed else (1.0, 1.0)

    verdict = scan(axes, sides, at, "evidence text")
    return verdict, rows, rechecked


def test_rows_in_order_and_first_point_in_c_order():
    axes = (np.array([0.0, 0.5, 1.0]), np.array([10.0, 11.0, 12.0]),
            np.array([20.0, 21.0, 22.0, 23.0]))
    flagged = [(1, 2, 0), (1, 0, 3), (1, 1, 1), (2, 0, 0)]
    confirmed = {(0.5, 10.0, 23.0), (0.5, 11.0, 21.0), (0.5, 12.0, 20.0), (1.0, 10.0, 20.0)}
    verdict, rows, rechecked = recording_scan(axes, flagged, confirmed)
    assert rows == [0, 1]
    assert rechecked == [(0.5, 10.0, 23.0)]
    assert verdict == Verdict("violated", (0.5, 10.0, 23.0), 0.0, 1.0, evidence="evidence text")


def test_failed_recheck_abandons_the_row():
    axes = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))
    # row 1: the first flagged point (1, 0) does not confirm; (1, 2) would
    flagged = [(1, 0), (1, 2), (2, 1)]
    confirmed = {(1.0, 2.0), (2.0, 1.0)}
    verdict, rows, rechecked = recording_scan(axes, flagged, confirmed)
    assert rows == [0, 1, 2]
    assert rechecked == [(1.0, 0.0), (2.0, 1.0)]
    assert verdict.status == "violated" and verdict.witness == (2.0, 1.0)


def test_holds_when_nothing_confirms():
    axes = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    verdict, rows, rechecked = recording_scan(axes, [(0, 1)], set())
    assert rows == [0, 1]
    assert rechecked == [(0.0, 1.0)]
    assert verdict.holds and verdict.witness is None
    assert verdict.evidence == "evidence text"


def test_flags_only_beyond_the_tolerance():
    axes = (np.array([0.0]), np.array([0.0, 1.0]))
    verdict = scan(axes, lambda i: (np.zeros(2), np.array([TOL / 2, 2 * TOL])),
                   lambda *p: (0.0, 2 * TOL), "")
    assert verdict.witness == (0.0, 1.0)


def test_one_verdict_type():
    assert chebint.Verdict is chebyshev.Verdict is scan_module.Verdict
    assert isinstance(chebint.leq_min(chebint.prod_op(), grid_step=0.25), Verdict)
