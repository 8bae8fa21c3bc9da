"""The grid-scan kernel: row order, C order within a row, and the re-check rule."""

import numpy as np
import pytest

import chebint
from chebint import chebyshev, scan as scan_module
from chebint.scan import TOL, Verdict, distinct, scan, scan_separable


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


def test_sides_may_be_views_of_hoisted_tables():
    # rhs rows are views of one table; the scan must only read them
    axes = (np.arange(3.0), np.arange(4.0), np.arange(5.0))
    table = np.linspace(0.0, 1.0, 60).reshape(3, 4, 5)
    before = table.copy()
    verdict = scan(axes, lambda i: (table[i], table[i][::-1]), lambda *p: (0.0, 0.0), "")
    assert verdict.holds
    assert np.array_equal(table, before)


def test_permuted_row_order_reports_the_plain_first_witness():
    rng = np.random.default_rng(7)
    axes = (np.arange(4.0), np.arange(3.0), np.arange(5.0), np.arange(6.0))
    lhs = rng.uniform(size=(4, 3, 5, 6))
    rhs = rng.uniform(size=(4, 3, 5, 6)) * 0.6  # some points of every row flagged

    def at(a, b, c, d):
        return lhs[int(a), int(b), int(c), int(d)], rhs[int(a), int(b), int(c), int(d)]

    plain = scan(axes, lambda i: (lhs[i], rhs[i]), at, "")
    assert plain.status == "violated"
    for order in ((1, 2, 0), (2, 0, 1), (0, 2, 1)):
        # axis k of the row arrays runs along axes[1:][order[k]]
        permuted = scan(axes, lambda i: (lhs[i].transpose(order), rhs[i].transpose(order)),
                        at, "", order=order)
        assert permuted == plain, order


def test_rows_broadcast_and_blocks_cover_the_row():
    # a (c, 1, b) lhs against a (c, d, b) rhs, over more slabs than one block
    c, d, b = 7, 6000, 3
    axes = (np.arange(2.0), np.arange(float(b)), np.arange(float(c)), np.arange(float(d)))
    rhs = np.zeros((c, d, b))
    rhs[5, 4321, 2] = 1.0  # the only flagged point: (b, c, d) = (2, 5, 4321)
    verdict = scan(axes, lambda i: (np.zeros((c, 1, b)), rhs), lambda *p: (0.0, 1.0), "",
                   order=(1, 2, 0))
    assert verdict.witness == (0.0, 2.0, 5.0, 4321.0)


def test_distinct_rebuilds_the_table_bit_for_bit():
    table = np.array([[0.0, -0.0, np.nan], [0.5, 0.0, -np.nan], [np.inf, 0.5, 1.0]])
    values, index = distinct(table)
    assert np.array_equal(values[index].view(np.int64), table.view(np.int64))
    assert len(values) == 7  # +0 and -0, and the two NaNs, stay apart


def test_lhs_from_a_table_of_distinct_values():
    # a lhs given as rows of a table, one per distinct value of a (c, d)
    # table, flags what the same lhs spread over the row flags
    rng = np.random.default_rng(3)
    c, d, b = 70, 60, 9  # more slabs than one block
    axes = (np.arange(4.0), np.arange(float(b)), np.arange(float(c)), np.arange(float(d)))
    values, index = distinct(rng.integers(0, 40, size=(c, d)).astype(float))
    tables = rng.uniform(size=(4, len(values), b))
    rhs = rng.uniform(0.5, 1.2, size=(4, c, d, b))
    rhs[:, :65] = 0.0  # flagged points only in the last block of slabs

    def at(a, bb, cc, dd):
        a, bb, cc, dd = int(a), int(bb), int(cc), int(dd)
        return tables[a][index[cc, dd], bb], rhs[a, cc, dd, bb]

    want = scan(axes, lambda i: (tables[i][index].transpose(2, 0, 1), rhs[i].transpose(2, 0, 1)),
                at, "")
    assert want.status == "violated"
    order = (1, 2, 0)  # rows over (c, d, b): the index covers the leading (c, d)
    got = scan(axes, lambda i: (tables[i], rhs[i]), at, "", order=order, lhs_index=index)
    assert got == want
    table = tables[0]
    before = table.copy()
    scan(axes, lambda i: (table, np.zeros((c, d, b))), lambda *p: (1.0, 0.0), "",
         order=order, lhs_index=index)
    assert np.array_equal(table, before)


def test_separable_row_errors_come_from_the_plain_row():
    # left raises on the (value, b) layout of the fast path; the error that
    # surfaces is the one the row over (b, c, d) raises, or the fast one when
    # that row raises nothing
    ab, cd = np.array([0.0, 1.0]), np.array([0.0, 0.5])
    table = np.zeros((2, 2))

    def separable(plain_error):
        def left(x, t):
            if np.ndim(x) == 2:
                raise ValueError("fast")
            if plain_error:
                raise KeyError("plain row")
            return x + t
        return scan_separable(ab, cd, lambda a: a + ab, table, table, table, left, np.add,
                              lambda *p: (0.0, 0.0), "")

    with pytest.raises(KeyError, match="plain row"):
        separable(True)
    with pytest.raises(ValueError, match="fast"):
        separable(False)


def test_separable_scan_matches_the_plain_scan():
    # left(u(a)[b], v[c, d]) against right(p[a, c], q[b, d]) over (b, c, d) rows
    rng = np.random.default_rng(11)
    ab, cd = np.arange(5.0), np.arange(4.0)
    u = rng.uniform(size=(5, 5))
    v = rng.integers(0, 3, size=(4, 4)).astype(float)  # repeated values
    p, q = rng.uniform(size=(5, 4)), rng.uniform(size=(5, 4))

    def at(a, b, c, d):
        a, b, c, d = int(a), int(b), int(c), int(d)
        return u[a, b] * v[c, d], p[a, c] + q[b, d]

    def plain_sides(i):
        return u[i][:, None, None] * v[None], p[i][None, :, None] + q[:, None, :]

    want = scan((ab, ab, cd, cd), plain_sides, at, "e")
    assert want.status == "violated"
    got = scan_separable(ab, cd, lambda a: u[int(a)], v, p, q, np.multiply, np.add, at, "e")
    assert got == want


def test_constant_sides_flag_the_first_point_of_the_row():
    # sides that do not depend on the row's axes broadcast over the whole row,
    # so the witness has every coordinate
    axes = (np.array([0.0, 1.0]), np.array([2.0, 3.0]), np.array([4.0, 5.0]))
    verdict = scan(axes, lambda i: (0.0, 1.0), lambda a, b, c: (0.0, 1.0), "")
    assert verdict.witness == (0.0, 2.0, 4.0)


def test_constant_operations_give_complete_witnesses():
    # a constant star made every row 0-d: the witness lost its b and c, and
    # re-checking it raised a TypeError; a constant triangle raised IndexError
    flags = dict(non_decreasing=True, fuzzy_conjunction=True)
    half = chebint.expr_op("half", "0.5*b", **flags)
    quarter = chebint.expr_op("quarter", "0.25", **flags)
    ident = chebyshev.identity_shape()
    verdict = chebyshev.q_corollary_condition(half, (ident,) * 3, quarter, grid_step=0.1)
    assert verdict == Verdict("violated", (0.0, 1.0, 0.0), 0.125, 0.25,
                              evidence="grid(0.1), boundary slice b=1 scanned first")
    mn = chebint.min_op()
    cfg = chebyshev.config(mn, mn, (mn,) * 3, chebint.expr_op("half", "0.5", **flags),
                           (ident,) * 3, (ident,) * 3, cd_domain=chebyshev.cd_interval(0, 1))
    verdict = chebyshev.check_scalar_condition(cfg, grid_step=0.1)
    assert verdict.status == "violated" and len(verdict.witness) == 4
    assert verdict.lhs == 0.5 and verdict.lhs < verdict.rhs


def keyed_scan(keys, calls, raise_on=None):
    """A scan whose rhs depends on the leading axis only through `keys`.

    Rows are (c, d, b) = (8, 64, 64), `_BLOCK` points, so the slab table is
    in play.  Every row flags points, but only a point of the last row
    confirms, so every row is compared and re-checked.  `calls` records
    (row, keys asked for); asking for row `raise_on` raises.
    """
    c, d, b = keys.shape[1], 64, 64
    assert c * d * b >= scan_module._BLOCK
    rng = np.random.default_rng(5)
    lhs = rng.uniform(size=(len(keys), c, d, b))
    base = rng.uniform(size=(d, b))
    axes = (np.arange(float(len(keys))), np.arange(float(c)), np.arange(float(d)),
            np.arange(float(b)))
    rechecked = []

    def fill(values):  # one (d, b) slab per key value
        return values[:, None, None] * base[None, :, :]

    def at(*point):
        rechecked.append(point)
        return (0.0, 1.0) if point[0] == len(keys) - 1 else (1.0, 1.0)

    def keyed(i, row_keys):
        calls.append((i, row_keys.tolist()))
        if i == raise_on:
            raise KeyError(f"keys of row {i}")
        return lhs[i], fill(row_keys)

    def dense(i):
        return lhs[i], fill(keys[i])

    return (lambda: scan(axes, keyed, at, "", rhs_keys=keys),
            lambda: scan(axes, dense, at, ""), rechecked)


def test_rhs_slab_table_overflow_matches_the_dense_scan():
    # rows 0-3 bring new keys that fill the table's 8 slabs; row 4's two new
    # keys do not fit, so it is evaluated whole; row 5 reuses keys and is
    # gathered again; row 6 is all new keys, more than half the row.  Row 0
    # repeats one slab, row 5 runs over the slabs in table order, and the
    # other gathered rows mix them, so all three ways of gathering are met.
    rows = [[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
            [0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.5, 2.0],
            [2.0, 2.0, 2.0, 2.0, 0.5, 1.0, 2.5, 3.0],
            [1.5, 1.5, 1.5, 1.5, 0.5, 0.5, 3.5, 4.0],
            [4.5, 4.5, 4.5, 4.5, 0.5, 0.5, 0.5, 5.0],
            [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
            [6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 9.5]]
    keys = np.array(rows)
    calls = []
    gathered, dense, rechecked = keyed_scan(keys, calls)
    got = gathered()
    got_points, rechecked[:] = list(rechecked), []
    assert got == dense() and got.status == "violated"
    assert got_points == rechecked and len(got_points) == len(rows)
    asked = dict(calls)
    whole = [i for i in asked if asked[i] == rows[i]]
    assert whole == [4, 6]
    assert asked[5] == [] and asked[0] == [0.5]
    # the table holds at most one row's worth of slabs
    assert sum(len(asked[i]) for i in asked if i not in whole) == keys.shape[1]
    # a row may bring new keys up to half its slabs, even into an empty table
    rows = [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]]
    calls = []
    gathered, dense, _ = keyed_scan(np.array(rows), calls)
    assert gathered() == dense()
    assert calls == [(0, rows[0]), (1, [0.0, 1.0, 2.0, 3.0])]


def test_rhs_slab_table_errors_surface_in_row_order():
    # an error for the keys the table lacks surfaces from the row that asked
    keys = np.tile([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0, 2.0], (3, 1)) * [[1.0], [1.0], [3.0]]
    calls = []
    gathered, _, _ = keyed_scan(keys, calls, raise_on=2)
    with pytest.raises(KeyError, match="keys of row 2"):
        gathered()
    assert calls[-1] == (2, [1.5, 3.0, 6.0])  # the table lacked row 2's keys
    # a violation in an earlier row is returned before the later row is built
    rng = np.random.default_rng(1)
    axes = (np.arange(3.0), np.arange(8.0), np.arange(64.0), np.arange(64.0))
    built = []

    def sides(i, row_keys):
        built.append(i)
        if i == 2:
            raise ValueError("fast")
        return rng.uniform(size=(8, 64, 64)), row_keys[:, None, None] * np.ones((64, 64))

    verdict = scan(axes, sides, lambda *p: (0.0, 1.0), "", rhs_keys=keys)
    assert verdict.status == "violated" and verdict.witness[0] == 0.0
    assert built == [0]


def test_constant_rhs_fills_the_slab_table():
    # a constant rhs for the new keys broadcasts into their slabs
    axes = (np.arange(2.0), np.arange(8.0), np.arange(64.0), np.arange(64.0))
    keys = np.zeros((2, 8))
    verdict = scan(axes, lambda i, row_keys: (0.0, 1.0), lambda *p: (0.0, 1.0), "",
                   rhs_keys=keys)
    assert verdict.witness == (0.0, 0.0, 0.0, 0.0)
