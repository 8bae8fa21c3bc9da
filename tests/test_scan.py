"""The grid-scan kernels: row order, C order within a row, and the re-check rule.

``scan_separable`` is checked against ``scan`` over the same (b, c, d) rows:
equal verdicts and the same points re-checked in the same order.
"""

import gc
import math
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chebint
from chebint import chebyshev, scan as scan_module
from chebint.scan import (_BLOCK, TOL, Verdict, _gather, _level_set_ends, _level_set_maxima,
                          _level_set_minima, distinct, scan, scan_separable)


def recording_scan(axes, flagged, confirmed):
    """Scan with lhs = 0 and rhs = 1 at the `flagged` (row, *rest) indices.

    `confirmed` holds the points whose re-check succeeds.  Returns the
    verdict, the blocks built as (start, stop) row ranges and the points
    re-checked.
    """
    blocks, rechecked = [], []
    shape = tuple(len(ax) for ax in axes[1:])

    def sides(rows):
        blocks.append((rows.start, rows.stop))
        rhs = np.zeros((rows.stop - rows.start,) + shape)
        for index in flagged:
            if rows.start <= index[0] < rows.stop:
                rhs[(index[0] - rows.start,) + index[1:]] = 1.0
        return np.zeros(shape), rhs

    def at(*point):
        rechecked.append(point)
        return (0.0, 1.0) if point in confirmed else (1.0, 1.0)

    verdict = scan(axes, sides, at, "evidence text")
    return verdict, blocks, rechecked


def test_rows_in_order_and_first_point_in_c_order():
    axes = (np.array([0.0, 0.5, 1.0]), np.array([10.0, 11.0, 12.0]),
            np.array([20.0, 21.0, 22.0, 23.0]))
    flagged = [(1, 2, 0), (1, 0, 3), (1, 1, 1), (2, 0, 0)]
    confirmed = {(0.5, 10.0, 23.0), (0.5, 11.0, 21.0), (0.5, 12.0, 20.0), (1.0, 10.0, 20.0)}
    verdict, blocks, rechecked = recording_scan(axes, flagged, confirmed)
    assert blocks == [(0, 3)]
    assert rechecked == [(0.5, 10.0, 23.0)]
    assert verdict == Verdict("violated", (0.5, 10.0, 23.0), 0.0, 1.0, evidence="evidence text")


def test_failed_recheck_abandons_the_row():
    axes = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))
    # row 1: the first flagged point (1, 0) does not confirm; (1, 2) would
    flagged = [(1, 0), (1, 2), (2, 1)]
    confirmed = {(1.0, 2.0), (2.0, 1.0)}
    verdict, blocks, rechecked = recording_scan(axes, flagged, confirmed)
    assert blocks == [(0, 3)]
    assert rechecked == [(1.0, 0.0), (2.0, 1.0)]
    assert verdict.status == "violated" and verdict.witness == (2.0, 1.0)


def test_holds_when_nothing_confirms():
    axes = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    verdict, blocks, rechecked = recording_scan(axes, [(0, 1)], set())
    assert blocks == [(0, 2)]
    assert rechecked == [(0.0, 1.0)]
    assert verdict.holds and verdict.witness is None
    assert verdict.evidence == "evidence text"


def test_blocks_take_as_many_rows_as_half_a_block_holds():
    # rows of 64^2 points: _BLOCK // 2 of them make a block of 4 rows, the
    # last block takes what is left; with rows of more than _BLOCK // 2
    # points, every block is one row
    lead = _BLOCK // 2 // 64 ** 2
    assert lead == 4
    axes = (np.arange(10.0), np.arange(64.0), np.arange(64.0))
    assert recording_scan(axes, [], set())[1] == [(0, 4), (4, 8), (8, 10)]
    wide = (np.arange(3.0), np.arange(_BLOCK // 2 + 1.0))
    assert recording_scan(wide, [], set())[1] == [(0, 1), (1, 2), (2, 3)]


def test_flagged_rows_of_a_block_in_order():
    # a block of 4 rows with flags in rows 1, 2 and 3: row 1's first point
    # is not confirmed, row 2's is; rows 0 and 3 are never re-checked
    axes = (np.arange(10.0), np.arange(64.0), np.arange(64.0))
    flagged = [(3, 0, 0), (2, 5, 1), (1, 0, 9), (1, 0, 2), (2, 5, 0)]
    verdict, blocks, rechecked = recording_scan(axes, flagged, {(2.0, 5.0, 0.0)})
    assert blocks == [(0, 4)]
    assert rechecked == [(1.0, 0.0, 2.0), (2.0, 5.0, 0.0)]
    assert verdict.witness == (2.0, 5.0, 0.0)


def test_a_raising_block_is_re_run_one_row_at_a_time():
    # rows 0..9 of 8 points are one block.  Row 6 raises; a block raises
    # when it holds row 6, or (`block_only`) whenever it has several rows
    axes = (np.arange(10.0), np.arange(8.0))

    def result(call):
        try:
            return call().witness
        except Exception as exc:  # noqa: BLE001 - the type and message are compared
            return type(exc).__name__, str(exc)

    def run(violated_row, block_only=False):
        blocks = []

        def sides(rows):
            blocks.append((rows.start, rows.stop))
            if rows.stop - rows.start > 1 and block_only:
                raise ValueError("block")
            if rows.start <= 6 < rows.stop and not block_only:
                raise KeyError(f"row 6 of {rows.start}..{rows.stop - 1}")
            rhs = (np.arange(rows.start, rows.stop) == violated_row)[:, None] * np.ones(8)
            return 0.0, rhs

        return result(lambda: scan(axes, sides, lambda *point: (0.0, 1.0), "")), blocks

    # an earlier row's witness beats the block's error, a later row's does not
    assert run(4) == ((4.0, 0.0), [(0, 10)] + [(i, i + 1) for i in range(5)])
    assert run(8) == (("KeyError", "'row 6 of 6..6'"), [(0, 10)] + [(i, i + 1) for i in range(7)])
    # no row raises alone: the rows' witness, or the scan goes on and holds
    assert run(4, block_only=True) == ((4.0, 0.0), [(0, 10)] + [(i, i + 1) for i in range(5)])
    assert run(-1, block_only=True) == (None, [(0, 10)] + [(i, i + 1) for i in range(10)])


def test_a_scan_leaves_no_reference_cycle():
    # what a cycle holds, such as the buffers seen by a closure that calls
    # itself, stays allocated until the cyclic collector runs
    axes = (np.arange(10.0), np.arange(64.0), np.arange(64.0))

    def raising(rows, rhs=1.0):
        if rows.stop - rows.start > 1:
            raise ValueError("block")
        return 0.0, rhs

    gc.collect()
    gc.disable()
    try:
        assert recording_scan(axes, [], set())[0].holds
        assert scan(axes, raising, lambda *point: (0.0, 1.0), "").witness == (0.0, 0.0, 0.0)
        assert scan(axes, partial(raising, rhs=0.0), lambda *point: (0.0, 0.0), "").holds
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_flags_only_beyond_the_tolerance():
    axes = (np.array([0.0]), np.array([0.0, 1.0]))
    verdict = scan(axes, lambda rows: (np.zeros(2), np.array([TOL / 2, 2 * TOL])),
                   lambda *p: (0.0, 2 * TOL), "")
    assert verdict.witness == (0.0, 1.0)


def _verdict_checks():
    """(name, call, status, evidence): every public check that returns a Verdict."""
    sp = chebint.space("w1", "w2")
    m = chebint.from_table(sp, [0.0, 0.4, 0.4, 1.0])
    f = chebint.simple_function(sp, [0.1, 0.6])
    g = chebint.simple_function(sp, [0.9, 0.2])
    pr, mn, lu = chebint.prod_op(), chebint.min_op(), chebint.lukasiewicz_op()
    big = chebint.expr_op("max", "max(a, b)")
    ids = (chebint.identity_shape(),) * 3
    cfg = chebint.config(pr, pr, (lu, lu, lu), mn, ids, ids,
                         cd_domain=chebint.cd_values([0.0, 0.5, 1.0]))
    no_cd = chebint.config(pr, pr, (lu, lu, lu), mn, ids, ids)
    full = sp.full_mask
    query = partial(chebint.DependenceQuery, m, f, A=full, B=full, triangle=pr, k=1.0,
                    allow_range_escape=True)
    grid, exact = "grid(0.25)", "exact"
    return [
        ("leq_min", lambda: chebint.leq_min(pr, 0.25), "holds-on-grid", grid),
        ("leq_min", lambda: chebint.leq_min(big, 0.25), "violated", grid),
        ("dominates", lambda: chebint.dominates(mn, pr, 0.25), "holds-on-grid", grid),
        ("dominates", lambda: chebint.dominates(pr, mn, 0.25), "violated", grid),
        ("check_scalar_condition", lambda: chebint.check_scalar_condition(cfg, 0.25),
         "violated", "a,b grid(0.25) x c,d exact finite domain"),
        ("check_scalar_condition", lambda: chebint.check_scalar_condition(no_cd, 0.25),
         "hypothesis-failed", ""),
        ("check_condition_C2", lambda: chebint.check_condition_C2(cfg, 0.25),
         "violated", "a,b grid(0.25) x c exact finite domain"),
        ("c1_iff_c2", lambda: chebint.c1_iff_c2(cfg, 0.25).c2,
         "violated", "a,b grid(0.25) x c exact finite domain"),
        ("q_corollary_condition", lambda: chebint.q_corollary_condition(pr, ids, pr, 0.25),
         "holds-on-grid", "grid(0.25), boundary slice b=1 scanned first"),
        ("q_corollary_condition", lambda: chebint.q_corollary_condition(lu, ids, pr, 0.25),
         "violated", "grid(0.25), boundary slice b=1 scanned first"),
        ("is_comonotone", lambda: chebint.is_comonotone(f, f, full), "holds", exact),
        ("is_comonotone", lambda: chebint.is_comonotone(f, g, full), "violated", exact),
        ("is_m_positively_dependent", lambda: chebint.is_m_positively_dependent(query(f)),
         "holds", exact),
        ("is_m_positively_dependent", lambda: chebint.is_m_positively_dependent(query(g)),
         "violated", exact),
        ("measure_supports_all_pairs", lambda: chebint.measure_supports_all_pairs(
            chebint.from_table(sp, [0.0, 0.0, 0.3, 1.0]), pr, True), "holds", exact),
        ("measure_supports_all_pairs", lambda: chebint.measure_supports_all_pairs(m, mn),
         "violated", exact),
        ("condition_Z1", lambda: chebint.condition_Z1(m, mn), "holds", exact),
        ("condition_Z1", lambda: chebint.condition_Z1(m, pr, True), "violated", exact),
        ("check_monotone", lambda: chebint.check_monotone(chebint.parse("x^2"), "x", 0.0, 1.0,
                                                          grid_step=0.25), "holds-on-grid", grid),
        ("check_monotone", lambda: chebint.check_monotone(chebint.parse("1 - x"), "x", 0.0, 1.0,
                                                          grid_step=0.25), "violated", grid),
    ]


_VERDICT_CHECKS = _verdict_checks()


@pytest.mark.parametrize("name, call, status, evidence", _VERDICT_CHECKS,
                         ids=[f"{name}-{status}" for name, _, status, _ in _VERDICT_CHECKS])
def test_one_verdict_type(name, call, status, evidence):
    assert chebint.Verdict is chebyshev.Verdict is scan_module.Verdict
    assert not hasattr(chebint, "DependenceVerdict")
    assert not hasattr(chebint.exprlang, "MonotoneVerdict")
    verdict = call()
    assert type(verdict) is Verdict
    assert (verdict.status, verdict.evidence) == (status, evidence)
    assert verdict.holds == (status in ("holds", "holds-on-grid"))
    assert (verdict.witness is not None) == (status == "violated")


@pytest.mark.parametrize("step", [-0.1, 0.0, -0.0, math.nan, math.inf, -math.inf])
def test_every_grid_refuses_a_step_that_is_not_a_finite_positive_number(step):
    # -0.1 used to give a 2-point grid labelled grid(-0.1) and a holds-on-grid
    # verdict, 0 a ZeroDivisionError, NaN "gives more than 16777216 points"
    pr, mn = chebint.prod_op(), chebint.min_op()
    ids = (chebint.identity_shape(),) * 3
    cfg = chebint.config(pr, pr, (mn, mn, mn), mn, ids, ids,
                         cd_domain=chebint.cd_interval(0.0, 1.0))
    scenario = chebint.survival_scenario(1.0, [("[0, 1]", "1 - t")])
    for call in (lambda: scan_module.axis(0.0, 1.0, step),
                 lambda: chebint.check_scalar_condition(cfg, step),
                 lambda: chebint.check_condition_C2(cfg, step),
                 lambda: chebint.c1_iff_c2(cfg, step),
                 lambda: chebint.q_corollary_condition(pr, ids, pr, step),
                 lambda: chebint.search_counterexample(cfg, step),
                 lambda: chebint.search_commutativity_gap(pr, pr, step),
                 lambda: chebint.dominates(mn, pr, step),
                 lambda: chebint.leq_min(pr, step),
                 lambda: chebint.validate_flags(pr, step),
                 lambda: chebint.check_monotone(chebint.parse("x"), "x", 0.0, 1.0,
                                                grid_step=step),
                 lambda: chebint.integrate_survival(pr, scenario, step),
                 lambda: ids[0].validate_inverse(step)):
        with pytest.raises(scan_module.GridError,
                           match=f"^grid step {step} is not a finite positive number$"):
            call()


def test_violated_leq_min_builds_no_index_array():
    # max(a, b) > min(a, b) at half the 1001^2 points of h = 1e-3.  Only the
    # first flagged point is looked up: the op table, the cap, cap + TOL and
    # the mask peak near 3.1 tables of float64, where an index array of every
    # flagged point (np.argwhere) took the peak to 6.1
    op = chebint.expr_op("max", "max(a, b)")
    chebint.leq_min(op, 0.25)  # any one-time setup outside the trace
    tracemalloc.start()
    try:
        verdict = chebint.leq_min(op, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (verdict.status, verdict.witness, verdict.lhs, verdict.rhs) == (
        "violated", (0.0, 0.001), 0.001, 0.0)
    assert peak < 4 * 1001 ** 2 * 8


def test_sides_may_be_views_of_hoisted_tables():
    # rhs rows are views of one table; the scan must only read them
    axes = (np.arange(3.0), np.arange(4.0), np.arange(5.0))
    table = np.linspace(0.0, 1.0, 60).reshape(3, 4, 5)
    before = table.copy()
    verdict = scan(axes, lambda rows: (table[rows], table[rows, ::-1]), lambda *p: (0.0, 0.0), "")
    assert verdict.holds
    assert np.array_equal(table, before)


def test_distinct_rebuilds_the_table_bit_for_bit():
    table = np.array([[0.0, -0.0, np.nan], [0.5, 0.0, -np.nan], [np.inf, 0.5, 1.0]])
    values, index = distinct(table)
    assert np.array_equal(values[index].view(np.int64), table.view(np.int64))
    assert len(values) == 7  # +0 and -0, and the two NaNs, stay apart


def test_separable_row_errors_come_from_the_plain_row():
    # left raises on the (value, b) layout of the fast path, where v's
    # distinct values come as a 2-D column; the error that surfaces is the
    # one the row over (b, c, d) raises, or the fast one when that row
    # raises nothing
    ab, cd = np.array([0.0, 1.0]), np.array([0.0, 0.5])
    table = np.zeros((2, 2))

    def separable(plain_error):
        def left(x, t):
            if np.ndim(t) == 2:
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

    def plain_sides(rows):
        return (u[rows, :, None, None] * v[None, None],
                p[rows, None, :, None] + q[None, :, None, :])

    want = scan((ab, ab, cd, cd), plain_sides, at, "e")
    assert want.status == "violated"
    got = scan_separable(ab, cd, table_rows(u), v, p, q, np.multiply, np.add, at, "e")
    assert got == want


def test_constant_sides_flag_the_first_point_of_the_row():
    # sides that do not depend on the row's axes broadcast over the whole row,
    # so the witness has every coordinate
    axes = (np.array([0.0, 1.0]), np.array([2.0, 3.0]), np.array([4.0, 5.0]))
    verdict = scan(axes, lambda rows: (0.0, 1.0), lambda a, b, c: (0.0, 1.0), "")
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


def table_rows(u):
    """The row function over ab = 0, 1, ... of the (a, b) table u: the rows
    of u at a column of a values."""
    return lambda a: u[a[:, 0].astype(int)]


def separable_and_plain(u, v, p, q, left=np.add, right=np.multiply, confirm=None):
    """(verdict, points re-checked) of ``scan_separable`` and of ``scan`` over
    (b, c, d) rows, for ab = 0..len(u)-1 and cd = 0..len(v)-1.

    ``at`` re-checks a point with the same operations, and does not confirm
    the points where ``confirm(a, b, c, d)`` is false.
    """
    ab, cd = np.arange(float(len(u))), np.arange(float(len(v)))

    def run(scanner):
        rechecked = []

        def at(*point):
            rechecked.append(point)
            a, b, c, d = map(int, point)
            if confirm is not None and not confirm(a, b, c, d):
                return 1.0, 1.0
            return float(left(u[a, b], v[c, d])), float(right(p[a, c], q[b, d]))

        return scanner(at), rechecked

    def plain_sides(rows):
        return (left(u[rows, :, None, None], v[None, None]),
                right(p[rows, None, :, None], q[None, :, None, :]))

    return (run(lambda at: scan_separable(ab, cd, table_rows(u), v, p, q, left, right,
                                          at, "e")),
            run(lambda at: scan((ab, ab, cd, cd), plain_sides, at, "e")))


def separable_tables(seed, nab, ncd):
    """u + v against p * q: repeated values in v and p, a few flagged points per row."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(size=(nab, nab)), rng.integers(1, 4, size=(ncd, ncd)) / 4,
            rng.integers(0, 4, size=(nab, ncd)) / 2, rng.uniform(size=(nab, ncd)) ** 6 * 2)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("nab, ncd", [(40, 32), (7, 5)])
def test_separable_witnesses_are_the_plain_scans(seed, nab, ncd):
    # rows of 32^2 * 40 points (two blocks of slabs) and of 5^2 * 7 (one
    # block), gathered from one slab per distinct key; in most rows the first
    # flagged point in (c, d, b) order is not the one in (b, c, d) order, and
    # re-checks fail on rows 0 and 1 and on about a third of the later points
    u, v, p, q = tables = separable_tables(seed, nab, ncd)
    before = [t.copy() for t in tables]
    assert (ncd * ncd * nab >= _BLOCK) == (nab == 40)
    got, want = separable_and_plain(u, v, p, q,
                                    confirm=lambda a, b, c, d: a > 1 and (b + c + d) % 3)
    assert got == want
    assert len(want[1]) >= 3  # rows 0 and 1 re-checked and passed over
    assert all(np.array_equal(t, b) for t, b in zip(tables, before))  # only read


def test_rows_broadcast_and_blocks_cover_the_row():
    # a constant left side against a right side flagged at one point, in
    # the last slab of the last block: rows (c, d, b) of 32 x 32 x 40 points
    # are compared in blocks of 25 and 7 slabs, rows of 26 x 26 x 49 in
    # blocks of 25 and 1
    for nab, ncd in ((40, 32), (49, 26)):
        u, v = np.zeros((nab, nab)), np.zeros((ncd, ncd))
        p, q = np.zeros((nab, ncd)), np.zeros((nab, ncd))
        p[3, ncd - 1], q[7, 11] = 1.0, 1.0  # the only flagged (a, b, c, d): (3, 7, ncd - 1, 11)
        got, want = separable_and_plain(u, v, p, q, left=lambda x, t: 0.0)
        assert got == want
        assert got[0].witness == (3.0, 7.0, ncd - 1.0, 11.0)


def test_lhs_from_a_table_of_distinct_values():
    # left runs once per row over the distinct values of v (which repeat),
    # and what it returns (here a view of a hoisted table) is only read
    u, v, p, q = separable_tables(3, 40, 32)
    values = distinct(v)[0]
    assert len(values) < v.size
    hoisted = u[:, None, :] + values[None, :, None]  # (a, value, b)
    before = hoisted.copy()
    calls = []

    def left(x, t):
        if np.ndim(t) == 2:  # the (value, b) table of the separable scan
            calls.append(t.ravel().tolist())
            return hoisted[int(np.flatnonzero((u == np.ravel(x)).all(axis=1))[0])]
        return x + t

    # nothing confirms, so every row's first flagged point is re-checked
    got, want = separable_and_plain(u, v, p, q, left=left, confirm=lambda *point: False)
    assert got == want and want[0].holds and len(want[1]) == len(u)
    assert calls == [values.tolist()] * len(u)
    assert np.array_equal(hoisted, before)


def test_gather_views_repeats_and_copies():
    data = np.arange(24.0).reshape(4, 2, 3)
    out = np.empty((3, 2, 3))
    view = _gather(data, [1, 2, 3], out)
    assert np.shares_memory(view, data) and np.array_equal(view, data[1:4])
    repeat = _gather(data, [2, 2, 2], out)
    assert repeat.shape == (1, 2, 3) and np.shares_memory(repeat, data)
    assert np.array_equal(np.broadcast_to(repeat, (3, 2, 3)), data[[2, 2, 2]])
    copy = _gather(data, [3, 0, 3], out)
    assert copy is out and np.array_equal(copy, data[[3, 0, 3]])
    assert np.array_equal(_gather(data, [0], out[:1]), data[:1])


def keyed_tables(rows, nab=512):
    """Tables whose p rows are `rows` (8 keys each, then zeros): rows of
    8 * 8 * 512 = _BLOCK points, compared in one block."""
    ncd = len(rows[0])
    assert ncd * ncd * nab == _BLOCK
    rng = np.random.default_rng(5)
    p = np.zeros((nab, ncd))
    p[:len(rows)] = rows
    u, v = rng.uniform(size=(nab, nab)), rng.uniform(size=(ncd, ncd))
    return u, v, p, rng.uniform(size=(nab, ncd))


def recording_right(calls, raise_at=None):
    """A multiply that records the keys of each (key, d, b) evaluation and
    raises on `raise_at`, naming the shape of the argument that holds it."""
    def right(x, y):
        if np.ndim(x) == 3 and np.shape(x)[1:] == (1, 1):
            calls.append(np.ravel(x).tolist())
        if raise_at is not None and np.any(np.asarray(x) == raise_at):
            raise KeyError(f"key {raise_at} in an argument of shape {np.shape(x)}")
        return np.multiply(x, y)
    return right


def test_rhs_slab_table_overflow_matches_the_dense_scan():
    # each row's rhs is evaluated once per distinct key, in first-seen order:
    # one key, keys that repeat in runs or scattered, all-new keys.  Every
    # row flags points, but only row 6 confirms one, so all are compared.
    rows = [[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
            [0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.5, 2.0],
            [2.0, 2.0, 2.0, 2.0, 0.5, 1.0, 2.5, 3.0],
            [1.5, 1.5, 1.5, 1.5, 0.5, 0.5, 3.5, 4.0],
            [4.5, 4.5, 4.5, 4.5, 0.5, 0.5, 0.5, 5.0],
            [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
            [6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 9.5]]
    u, v, p, q = keyed_tables(rows)
    calls = []
    got, want = separable_and_plain(u, v, p, q, right=recording_right(calls),
                                    confirm=lambda a, b, c, d: a == 6)
    assert got == want and got[0].status == "violated" and len(got[1]) == len(rows)
    assert calls == [list(dict.fromkeys(keys)) for keys in rows]
    # all-new keys, then keys that each repeat once
    rows = [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]]
    u, v, p, q = keyed_tables(rows)
    calls = []
    got, want = separable_and_plain(u, v, p, q, right=recording_right(calls),
                                    confirm=lambda a, b, c, d: a == 1)
    assert got == want
    assert calls == [rows[0], [0.0, 1.0, 2.0, 3.0]]


def test_rhs_slab_table_errors_surface_in_row_order():
    # row 2's keys raise; the row is re-run over (b, c, d), and that
    # evaluation's error surfaces
    rows = [[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0, 2.0]] * 2 + [[1.5] * 6 + [3.0, 6.0]]
    u, v, p, q = keyed_tables(rows)
    ab, cd = np.arange(512.0), np.arange(8.0)
    calls = []
    right = recording_right(calls, raise_at=6.0)
    with pytest.raises(KeyError, match=r"shape \(1, 8, 1\)"):
        scan_separable(ab, cd, table_rows(u), v, p, q, np.add, right,
                       lambda *point: (1.0, 1.0), "")
    assert calls == [[0.5, 1.0, 2.0], [0.5, 1.0, 2.0], [1.5, 3.0, 6.0]]  # each row's keys
    # a violation in an earlier row is returned before the later row is built
    built = []

    def row(a):
        built.append(a.tolist())
        return table_rows(u)(a)

    verdict = scan_separable(ab, cd, row, v, p, q, np.add, right, lambda *point: (0.0, 1.0), "")
    assert verdict.status == "violated" and verdict.witness[0] == 0.0
    assert built == [[[0.0]]]


def test_constant_rhs_fills_the_slab_table():
    # a constant rhs for the new keys broadcasts into their slabs
    u, v, p, q = keyed_tables([[0.0] * 8])
    got, want = separable_and_plain(u, v, p, q, left=lambda x, t: 0.0, right=lambda x, y: 1.0)
    assert got == want
    assert got[0].witness == (0.0, 0.0, 0.0, 0.0)


# keys told apart only by bit pattern: -0.0 and 0.0 give two slabs, which
# a right side that reads the sign of its key tells apart
_KEYS = [-0.0, 0.0] + [k / 8 for k in range(1, 80)]
_RIGHTS = [np.multiply, lambda x, y: np.copysign(y, x), lambda x, y: 0.75]


@st.composite
def keyed_scans(draw):
    """Tables for ``separable_and_plain`` whose p rows draw keys from a small
    pool: one key, distinct keys, distinct keys then one repeated, or a few
    keys in any order.  Rows (c, d, b) of 5 x 5 x 7 points are one block;
    of 72 x 72 x 8 (above ``_BLOCK``) they are blocks of 56 and 16 slabs."""
    nab, ncd = draw(st.sampled_from([(7, 5), (8, 72)]))
    runs = st.integers(1, ncd).map(lambda m: _KEYS[:m] + [_KEYS[0]] * (ncd - m))
    rows = st.one_of(st.sampled_from(_KEYS[:4]).map(lambda key: [key] * ncd),
                     st.permutations(_KEYS[:ncd]), runs,
                     st.lists(st.sampled_from(_KEYS[:4]), min_size=ncd, max_size=ncd))
    p = np.array(draw(st.lists(rows, min_size=nab, max_size=nab)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u, v = rng.uniform(size=(nab, nab)), rng.integers(1, 4, size=(ncd, ncd)) / 4
    return u, v, p, rng.uniform(size=(nab, ncd)), draw(st.sampled_from(_RIGHTS))


@settings(max_examples=40, deadline=None)
@given(tables=keyed_scans())
def test_separable_scan_matches_the_plain_scan_on_repeated_keys(tables):
    # each row's rhs comes from one slab per distinct key, through a view,
    # one broadcast slab or a copy; every row is compared, since only the
    # last row's points confirm
    u, v, p, q, right = tables
    got, want = separable_and_plain(u, v, p, q, right=right,
                                    confirm=lambda a, b, c, d: a == len(u) - 1)
    assert got == want


@pytest.mark.parametrize("outer, inner, status, rows", [
    ("lukasiewicz", "min", "violated", 1.4), ("prod", "prod", "holds-on-grid", 2.65)])
def test_separable_scan_holds_one_rhs_row_at_a_time(outer, inner, status, rows):
    # at h = 0.02 a row holds 51^3 points.  Its rhs is a table of its
    # distinct keys' slabs, freed before the next row is built: a violated
    # Lukasiewicz/min scan peaks near one row of float64, a holding prod/prod
    # scan (every key distinct) near two; a scan-wide slab table, or a view
    # that keeps a row's rhs alive, adds a row
    outer, inner = chebint.fusion.builtin(outer), chebint.fusion.builtin(inner)
    chebint.fusion.dominates(outer, inner, 0.02)  # any one-time setup outside the trace
    tracemalloc.start()
    try:
        verdict = chebint.fusion.dominates(outer, inner, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == status
    assert peak < rows * 51 ** 3 * 8


def test_a_pruned_row_that_flags_computes_its_lhs_once():
    # min(c, d) has 9 maximal points of 25; every row's maximal points flag
    # (lhs 0 against c * d) and nothing confirms, so each row is compared
    # twice, kept points then whole, from one evaluation of u and of left
    # for the one block of all five rows
    xs = np.linspace(0.0, 1.0, 5)
    v, pq = np.minimum(xs[:, None], xs[None, :]), np.tile(xs, (5, 1))
    calls = []

    def u(a):
        calls.append("u")
        return np.zeros((len(a), 5))

    def left(x, t):
        calls.append("left")
        return x * t

    verdict = scan_separable(xs, xs, u, v, pq, pq, left, np.multiply, lambda *p: (1.0, 0.0), "",
                             (0.0, 1.0))
    assert verdict.holds
    assert calls == ["u", "left"]


def test_level_set_maxima_and_their_guard():
    cd = np.linspace(0.0, 1.0, 5)
    rising = np.tile(cd, (3, 1))  # a p or q table over (a, c) or (b, d)
    _, v_min = distinct(np.minimum(cd[:, None], cd[None, :]))
    # the level set min(c, d) = cd[i] ends at (i, 4) and (4, i)
    kc, kd = _level_set_maxima(v_min, rising, rising, (0.0, 1.0))
    assert sorted(zip(kc.tolist(), kd.tolist())) == sorted(
        [(i, 4) for i in range(5)] + [(4, i) for i in range(4)])
    # the zero level of Lukasiewicz keeps its antidiagonal: 15 of 25 points
    _, v_luk = distinct(np.maximum(cd[:, None] + cd[None, :] - 1.0, 0.0))
    assert _level_set_maxima(v_luk, rising, rising, (0.0, 1.0)) is None
    # no box, or a table that is not 2-D, finite, inside the box and non-decreasing along axis 1
    for box, table in [(None, rising), ((0.0, 0.5), rising), ((0.0, 1.0), rising - 0.5),
                       ((0.0, 1.0), rising[:, ::-1]), ((0.0, 1.0), rising[0]),
                       ((0.0, 1.0), np.where(rising > 0.5, np.nan, rising)),
                       ((0.0, np.inf), np.where(rising == 1.0, np.inf, rising))]:
        assert _level_set_maxima(v_min, table, rising, box) is None
        assert _level_set_maxima(v_min, rising, table, box) is None


def test_level_set_minima_and_their_guard():
    xs = np.linspace(0.0, 1.0, 5)
    table = np.minimum(xs[:, None], xs[None, :])
    # the level set min(a, c) = xs[i] ends at (i, i) going down, at (i, 4) and (4, i) going up
    assert (_level_set_ends(table, up=False) == np.eye(5, dtype=bool)).all()
    assert _level_set_ends(table, up=True).sum() == 9
    mn = partial(chebint.fusion.apply_op, chebint.fusion.min_op())
    prod = partial(chebint.fusion.apply_op, chebint.fusion.prod_op())
    unit = (0.0, 1.0)

    def first(left=mn, right=prod, **changes):
        args = dict(ab=xs, u=lambda a: np.minimum(a, xs), v=table, p=table, q=table, box=unit,
                    left_box=unit, most=math.inf)
        args.update(changes)
        return _level_set_minima(left=left, right=right, **args)

    # min(a, b, c, d) >= min(a, c) * min(b, d) clears every row; the reverse
    # first flags in row 1, at its minimal point (1/4, 1/4, 1/4, 1/4)
    assert first() == 5
    assert first(left=prod, right=mn) == 1
    assert first(most=25) == 5  # 5 x 5 minimal points
    with mock.patch.object(scan_module, "_BLOCK", 8):  # one minimal (a, c) point per block
        assert first(left=prod, right=mn) == 1
    # q = d has the minimal points (0, d), which flag at (1/4, 0, 1/4, d) for
    # every d > 0; the diagonal, p's, would not flag at all
    assert first(q=np.tile(xs, (5, 1))) == 1
    # no box, too many minimal points, a u that ignores the column of a values,
    # or v or the rows u(a) not 2-D, finite, inside the box and non-decreasing
    # along both axes
    for changes in [dict(box=None), dict(left_box=None), dict(most=24),
                    dict(u=lambda a: np.minimum(np.max(a), xs)),
                    dict(v=table[:, ::-1]), dict(v=table[::-1]), dict(v=table + 0.5),
                    dict(v=np.where(table > 0.5, np.nan, table)), dict(v=table[0]),
                    dict(u=lambda a: np.minimum(1.0 - a, xs)),
                    dict(u=lambda a: np.minimum(a, xs[::-1])),
                    dict(u=lambda a: np.minimum(a, xs) - 0.5),
                    dict(u=lambda a: np.where(a + xs > 1.5, np.inf, a + xs), left_box=(0.0, np.inf))]:
        assert first(**changes) == 0, changes


def maxima_blocks(nab, u, at):
    """``scan_separable`` of u(a)[b] + min(c, d) against c + d over
    ab = 0..nab-1 and cd = 0, 1/4, ..., 1, where 9 of the 25 (c, d) points
    are maximal in their level sets.  Returns the verdict and, per call to
    u, the (start, stop) rows it took and the sizes of what left and right
    returned."""
    ab, cd = np.arange(float(nab)), np.linspace(0.0, 1.0, 5)
    v, pq = np.minimum(cd[:, None], cd[None, :]), np.tile(cd, (nab, 1))
    calls = []

    def row(a):
        rows = np.ravel(a).astype(int)
        calls.append([(int(rows[0]), int(rows[-1]) + 1)])
        return u(a)

    def recorded(op):
        def side(x, y):
            out = op(x, y)
            calls[-1].append(np.size(out))
            return out
        return side

    verdict = scan_separable(ab, cd, row, v, pq, pq, recorded(np.add), recorded(np.add), at, "",
                             (0.0, 1.0))
    return verdict, calls


def test_maxima_blocks_take_as_many_rows_as_half_a_block_holds():
    # rows of 9 maximal points x 100 b values: a block takes 18 rows, and
    # left's and right's arrays stay within half of _BLOCK; nothing flags
    lead = _BLOCK // 2 // (9 * 100)
    assert lead == 18
    verdict, calls = maxima_blocks(100, lambda a: 2.0 + 0.0 * a + np.zeros(100),
                                   lambda *point: (2.0, 1.0))
    assert verdict.holds
    assert [c[0] for c in calls] == [(k, min(k + lead, 100)) for k in range(0, 100, lead)]
    assert all(0 < size <= _BLOCK // 2 for c in calls for size in c[1:])
    assert [len(c) for c in calls] == [3] * len(calls)  # one left and one right per block


@pytest.mark.parametrize("blocks", [True, False])
def test_a_violation_just_past_tol_at_a_maximal_point_flags(blocks):
    # lhs - rhs = u - max(c, d): 0 or more everywhere, but u(3)[2] = 1 - 1.5 TOL
    # puts row 3's maximal points with max(c, d) = 1 between TOL and 2 TOL
    # below their rhs; the first, in (b, c, d) order, is (3, 2, 0, 1)
    def u(a):
        return 1.0 - 1.5 * TOL * ((np.asarray(a) == 3.0) & (np.arange(5.0) == 2.0))

    def at(a, b, c, d):
        return float(u(a)[int(b)]) + min(c, d), c + d

    # without blocks, a _BLOCK of 1, every block is one row
    with mock.patch.object(scan_module, "_BLOCK", _BLOCK if blocks else 1):
        verdict, calls = maxima_blocks(5, u, at)
    lhs = float(u(3.0)[2])
    assert verdict == Verdict("violated", (3.0, 2.0, 0.0, 1.0), lhs, 1.0)
    assert 1.0 - 2 * TOL < lhs < 1.0 - TOL
    assert [c[0] for c in calls] == ([(0, 5)] if blocks else [(i, i + 1) for i in range(4)])
