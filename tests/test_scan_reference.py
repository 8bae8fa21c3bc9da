"""Differential test: the four grid scans against their row-by-row reference.

The reference is the earlier form of each scan: rows built over the axes in
their own order, psi1 and outer evaluated on whole rows, and a kernel that
compares ``lhs < rhs - TOL`` in one go.  Random builtin, expression and
power-shape configurations must give the same Verdict (status, witness, lhs,
rhs, detail, evidence) or raise the same exception with the same message.
Every scan compares blocks of several rows at once; each is also checked
against itself with one row per block.  The commutativity-gap search is
checked against its earlier form, a loop over the rows of its own.
"""

import math
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chebint import chebyshev as cheb
from chebint import fusion
from chebint import scan as scan_module
from chebint.chebyshev import HypothesisError, _k_grid
from chebint.fusion import apply_op, eval_op
from chebint.scan import EQ_TOL, TOL, Verdict


def reference_scan(axes, sides, at, evidence):
    first, rest = axes[0], axes[1:]
    for i in range(len(first)):
        lhs, rhs = sides(i)
        viol = lhs < rhs - TOL
        if not np.any(viol):
            continue
        index = np.unravel_index(int(np.argmax(viol)), viol.shape)
        point = (float(first[i]),) + tuple(float(ax[j]) for ax, j in zip(rest, index))
        wl, wr = at(*point)
        if wl < wr - TOL:
            return Verdict("violated", point, wl, wr, evidence=evidence)
    return Verdict("holds-on-grid", evidence=evidence)


def reference_c1(cfg, grid_step):
    try:
        cfg.validate()
        ab = _k_grid(cfg, grid_step)
        cd = cfg.cd_domain.sample(grid_step)
        evidence = f"a,b grid({grid_step}) x c,d {cfg.cd_domain.describe(grid_step)}"
        tri_cd = np.asarray(apply_op(cfg.triangle, cd[:, None], cd[None, :]), dtype=float)
        phi2_a = np.asarray(cfg.phi2.apply(ab), dtype=float)
        phi3_b = np.asarray(cfg.phi3.apply(ab), dtype=float)
        psi2_ac = np.asarray(cfg.psi2.apply(
            np.asarray(apply_op(cfg.circ2, phi2_a[:, None], cd[None, :]), dtype=float)), dtype=float)
        psi3_bd = np.asarray(cfg.psi3.apply(
            np.asarray(apply_op(cfg.circ3, phi3_b[:, None], cd[None, :]), dtype=float)), dtype=float)

        def sides(i):  # over (b, c, d)
            sab = np.asarray(apply_op(cfg.inner, ab[i], ab), dtype=float)
            phi1_sab = np.asarray(cfg.phi1.apply(sab), dtype=float)
            lhs = np.asarray(cfg.psi1.apply(np.asarray(
                apply_op(cfg.circ1, phi1_sab[:, None, None], tri_cd[None, :, :]),
                dtype=float)), dtype=float)
            rhs = np.asarray(apply_op(cfg.outer, psi2_ac[i][None, :, None],
                                      psi3_bd[:, None, :]), dtype=float)
            return lhs, rhs

        return reference_scan((ab, ab, cd, cd), sides, partial(cheb.scalar_condition_at, cfg),
                              evidence)
    except HypothesisError as exc:
        return Verdict("hypothesis-failed", detail=str(exc))


def reference_c2(cfg, grid_step):
    try:
        cfg.validate()
        ab = _k_grid(cfg, grid_step)
        cd = cfg.cd_domain.sample(grid_step)
        dbar = min(cfg.cd_domain.sup, cheb._INF_CAP)
        evidence = f"a,b grid({grid_step}) x c {cfg.cd_domain.describe(grid_step)}"
        phi2_a = np.asarray(cfg.phi2.apply(ab), dtype=float)
        phi3_b = np.asarray(cfg.phi3.apply(ab), dtype=float)
        psi2_ac = np.asarray(cfg.psi2.apply(np.asarray(
            apply_op(cfg.circ2, phi2_a[:, None], cd[None, :]), dtype=float)), dtype=float)
        psi3_bc = np.asarray(cfg.psi3.apply(np.asarray(
            apply_op(cfg.circ3, phi3_b[:, None], cd[None, :]), dtype=float)), dtype=float)
        psi2_adbar = np.asarray(cfg.psi2.apply(np.asarray(
            apply_op(cfg.circ2, phi2_a, dbar), dtype=float)), dtype=float)
        psi3_bdbar = np.asarray(cfg.psi3.apply(np.asarray(
            apply_op(cfg.circ3, phi3_b, dbar), dtype=float)), dtype=float)

        def sides(i):  # over (b, c)
            sab = np.asarray(apply_op(cfg.inner, ab[i], ab), dtype=float)
            phi1_sab = np.asarray(cfg.phi1.apply(sab), dtype=float)
            lhs = np.asarray(cfg.psi1.apply(np.asarray(
                apply_op(cfg.circ1, phi1_sab[:, None], cd[None, :]), dtype=float)), dtype=float)
            t1 = np.asarray(apply_op(cfg.outer, psi2_ac[i][None, :],
                                     psi3_bdbar[:, None]), dtype=float)
            t2 = np.asarray(apply_op(cfg.outer, psi2_adbar[i], psi3_bc), dtype=float)
            return lhs, np.maximum(t1, t2)

        return reference_scan((ab, ab, cd), sides, partial(cheb.c2_condition_at, cfg), evidence)
    except HypothesisError as exc:
        return Verdict("hypothesis-failed", detail=str(exc))


def reference_q(conj, phis, star, grid_step):
    phi1, phi2, phi3 = phis
    try:
        if not conj.fuzzy_conjunction:
            raise HypothesisError(f"{conj.name!r} lacks the fuzzy_conjunction flag")
        for i, phi in enumerate(phis, start=1):
            if phi.inverse is None:
                raise HypothesisError(f"phi{i} needs a declared inverse")
            if abs(float(phi.apply(0.0))) > EQ_TOL:
                raise HypothesisError(f"phi{i}(0) = {float(phi.apply(0.0))}, expected 0")
            top = float(phi.apply(1.0))
            if eval_op(conj, 1.0, top) > top + TOL:
                raise HypothesisError(f"1 conj phi{i}(1) exceeds phi{i}(1)")
    except HypothesisError as exc:
        return Verdict("hypothesis-failed", detail=str(exc))
    xs = np.linspace(0.0, 1.0, int(round(1.0 / grid_step)) + 1)
    evidence = f"grid({grid_step}), boundary slice b=1 scanned first"

    def scan_b(b_values):
        phi2_b = np.asarray(phi2.apply(b_values), dtype=float)
        inv2_1b = np.asarray(phi2.apply_inverse(
            np.asarray(apply_op(conj, 1.0, phi2_b), dtype=float)), dtype=float)
        phi3_c = np.asarray(phi3.apply(xs), dtype=float)
        inv3_1c = np.asarray(phi3.apply_inverse(
            np.asarray(apply_op(conj, 1.0, phi3_c), dtype=float)), dtype=float)
        phi1_bc = np.asarray(phi1.apply(np.asarray(
            apply_op(star, b_values[:, None], xs[None, :]), dtype=float)), dtype=float)

        def sides(i):  # over (b, c)
            a = xs[i]
            lhs = np.asarray(phi1.apply_inverse(np.asarray(
                apply_op(conj, a, phi1_bc), dtype=float)), dtype=float)
            inv2_ab = np.asarray(phi2.apply_inverse(np.asarray(
                apply_op(conj, a, phi2_b), dtype=float)), dtype=float)
            inv3_ac = np.asarray(phi3.apply_inverse(np.asarray(
                apply_op(conj, a, phi3_c), dtype=float)), dtype=float)
            r1 = np.asarray(apply_op(star, inv2_ab[:, None], inv3_1c[None, :]), dtype=float)
            r2 = np.asarray(apply_op(star, inv2_1b[:, None], inv3_ac[None, :]), dtype=float)
            return lhs, np.maximum(r1, r2)

        return reference_scan((xs, b_values, xs), sides,
                              partial(cheb.q_condition_at, conj, phis, star), evidence)

    verdict = scan_b(np.asarray([1.0]))
    return verdict if not verdict.holds else scan_b(xs)


def reference_dominates(outer, inner, grid_step):
    if outer.y_bar != 1.0 or inner.y_bar != 1.0:
        raise fusion.FusionError("domination check requires both operations on [0,1]")
    xs = np.linspace(0.0, 1.0, int(round(1.0 / grid_step)) + 1)
    inner_cd = np.asarray(apply_op(inner, xs[:, None], xs[None, :]), dtype=float)
    outer_cd = np.asarray(apply_op(outer, xs[:, None], xs[None, :]), dtype=float)

    def sides(i):  # over (b, c, d)
        inner_ab = np.asarray(apply_op(inner, xs[i], xs), dtype=float)
        lhs = np.asarray(apply_op(outer, inner_ab[:, None, None], inner_cd[None, :, :]), dtype=float)
        rhs = np.asarray(apply_op(inner, outer_cd[i][None, :, None], outer_cd[:, None, :]),
                         dtype=float)
        return lhs, rhs

    def at(a, b, c, d):
        return (eval_op(outer, eval_op(inner, a, b), eval_op(inner, c, d)),
                eval_op(inner, eval_op(outer, a, c), eval_op(outer, b, d)))

    return reference_scan((xs, xs, xs, xs), sides, at, f"grid({grid_step})")


def outcome(fn, *args):
    with np.errstate(all="ignore"):
        try:
            return ("verdict", fn(*args))
        except Exception as exc:  # noqa: BLE001 - the type and message are compared
            return (type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# Random configurations
# ---------------------------------------------------------------------------

_FLAGS = dict(non_decreasing=True, left_continuous_in_first=True,
              left_continuous_in_second=True, fuzzy_conjunction=True)
# A piecewise evaluates a branch on the whole array once any of its points
# takes it: _CROSS_ROW's middle branch is undefined above a = 0.5, so an
# array can raise where each of its rows, taken alone, does not
_CROSS_ROW = "piecewise a { [0, 0.02): a*b; [0.02, 0.04]: a*b + 0*sqrt(0.5 - a); (0.04, 1]: a*b }"
_EXPRS = ["a*b^2", "min(a, b)^2", "sqrt(a*b)", "max(a + b - 1, 0)", "min(1, a + b)",
          "piecewise a { [0, 0.5]: a*b; (0.5, 1]: b }", "a*b*(1 + 0)", _CROSS_ROW]
# operations with a negative or undefined value on part of the grid: at most
# one per configuration, so that most configurations reach a verdict
_RISKY = ["a - b", "min(a, b) - 0.25", "a*b/(a + b - a*b)"]


def _expr_ops(sources):
    return st.sampled_from(sources).map(lambda s: fusion.expr_op(s, s, **_FLAGS))


BUILTINS = st.sampled_from(fusion.BUILTIN_KINDS).map(fusion.builtin)
SAFE_OPS = st.one_of(BUILTINS, _expr_ops(_EXPRS))
OPS = st.one_of(SAFE_OPS, SAFE_OPS, _expr_ops(_RISKY))
# shapes with inverses; "x^2" on [0, 0.8] raises ShapeDomainError above 0.8
_NARROW = cheb.shape("sq-0.8", "x^2", inverse="x^0.5", domain=(0.0, 0.8),
                     non_decreasing=True, increasing=True)
SAFE_SHAPES = st.one_of(st.just(cheb.identity_shape()),
                        st.sampled_from([0.5, 2.0, 3.0]).map(cheb.power_shape))
SHAPES = st.one_of(SAFE_SHAPES, SAFE_SHAPES, st.just(_NARROW))
CD = st.one_of(
    st.just(cheb.cd_interval(0.0, 1.0)),
    st.just(cheb.cd_interval(0.0, 0.7)),
    st.lists(st.sampled_from([0.0, 0.2, 0.3, 0.5, 0.8, 1.0]), min_size=1, max_size=6)
      .map(cheb.cd_values),  # duplicates included
)
STEPS = st.sampled_from([0.1, 0.05])


@st.composite
def configs(draw, cds=CD):
    ops = [draw(SAFE_OPS) for _ in range(6)]
    if draw(st.booleans()):
        ops[draw(st.integers(0, 5))] = draw(_expr_ops(_RISKY))
    shapes = [draw(SAFE_SHAPES) for _ in range(6)]
    if draw(st.booleans()):
        shapes[draw(st.integers(0, 5))] = _NARROW
    phis, psis = shapes[:3], shapes[3:]
    return cheb.config(ops[0], ops[1], tuple(ops[2:5]), ops[5], tuple(phis), tuple(psis),
                       k=draw(st.sampled_from([1.0, 0.6])), cd_domain=draw(cds))


@settings(max_examples=120, deadline=None)
@given(cfg=configs(), h=STEPS)
def test_c1_and_c2_match_reference(cfg, h):
    assert outcome(cheb.check_scalar_condition, cfg, h) == outcome(reference_c1, cfg, h)
    assert outcome(cheb.check_condition_C2, cfg, h) == outcome(reference_c2, cfg, h)


@settings(max_examples=60, deadline=None)
@given(conj=OPS, star=OPS, phis=st.tuples(SHAPES, SHAPES, SHAPES), h=STEPS)
def test_q_matches_reference(conj, star, phis, h):
    assert (outcome(cheb.q_corollary_condition, conj, phis, star, h)
            == outcome(reference_q, conj, phis, star, h))


@settings(max_examples=60, deadline=None)
@given(outer=OPS, inner=OPS, h=STEPS)
def test_dominates_matches_reference(outer, inner, h):
    assert outcome(fusion.dominates, outer, inner, h) == outcome(reference_dominates, outer, inner, h)


# At h = 0.02 the 4-D scans' rows have 51^3 points (36^2 * 51 on [0, 0.7]),
# compared in several blocks of rhs slabs, one slab per distinct key of the
# row.  The examples name rows whose keys repeat (all min) and rows with
# more keys: with phi = x^2 and psi = x^0.5, psi2(min(phi2(a), c)) takes
# about 100 values.
_MN, _PR = fusion.min_op(), fusion.prod_op()
_IDS = (cheb.identity_shape(),) * 3
_UNIT = cheb.cd_interval(0.0, 1.0)


@settings(max_examples=12, deadline=None)
@given(cfg=configs(cds=st.sampled_from([_UNIT, cheb.cd_interval(0.0, 0.7)])))
@example(cfg=cheb.config(_MN, _MN, (_MN,) * 3, _MN, _IDS, _IDS, cd_domain=_UNIT))
@example(cfg=cheb.config(_PR, _PR, (_MN,) * 3, _MN, (cheb.power_shape(2),) * 3,
                         (cheb.power_shape(0.5),) * 3, cd_domain=_UNIT))
def test_c1_matches_reference_on_slab_table_rows(cfg):
    assert outcome(cheb.check_scalar_condition, cfg, 0.02) == outcome(reference_c1, cfg, 0.02)


@settings(max_examples=12, deadline=None)
@given(outer=OPS, inner=OPS)
@example(outer=_MN, inner=_PR)
@example(outer=_MN, inner=fusion.lukasiewicz_op())
def test_dominates_matches_reference_on_slab_table_rows(outer, inner):
    assert outcome(fusion.dominates, outer, inner, 0.02) == outcome(reference_dominates, outer, inner, 0.02)


# ---------------------------------------------------------------------------
# Multi-row blocks of the plain scan (c2 and q)
# ---------------------------------------------------------------------------


def one_row_at_a_time(fn, *args):
    """``outcome`` with every plain scan comparing one row per block."""
    with mock.patch.object(scan_module, "_BLOCK", 1):
        return outcome(fn, *args)


def blocks_built(fn, *args):
    """(``outcome``, the (start, stop) row ranges of the blocks its plain scans built)."""
    real, built = scan_module.scan, []

    def recording(axes, sides, at, evidence):
        def recorded(rows):
            built.append((rows.start, rows.stop))
            return sides(rows)
        return real(axes, recorded, at, evidence)

    with mock.patch.object(cheb, "scan", recording):
        return outcome(fn, *args), built


def c2_rows(h):
    """The rows of a c2 scan's block at step h on [0, 1]."""
    return scan_module._BLOCK // 2 // (round(1 / h) + 1) ** 2


@st.composite
def block_configs(draw):
    """``configs`` with a builtin inner and outer half the time."""
    cfg = draw(configs())
    if draw(st.booleans()):
        cfg = replace(cfg, inner=draw(BUILTINS), outer=draw(BUILTINS))
    return cfg


BLOCK_STEPS = st.sampled_from([0.1, 0.05, 0.02])


@settings(max_examples=40, deadline=None)
@given(cfg=block_configs(), h=BLOCK_STEPS)
@example(cfg=cheb.config(_PR, _PR, (fusion.expr_op(_CROSS_ROW, _CROSS_ROW, **_FLAGS), _PR, _PR),
                         _MN, _IDS, _IDS, cd_domain=_UNIT), h=0.1)
def test_c2_blocks_match_the_row_by_row_scans(cfg, h):
    got = outcome(cheb.check_condition_C2, cfg, h)
    assert got == outcome(reference_c2, cfg, h)
    assert repr(got) == repr(one_row_at_a_time(cheb.check_condition_C2, cfg, h))


@settings(max_examples=40, deadline=None)
@given(conj=st.one_of(BUILTINS, OPS), star=OPS, phis=st.tuples(SHAPES, SHAPES, SHAPES),
       h=BLOCK_STEPS)
def test_q_blocks_match_the_row_by_row_scans(conj, star, phis, h):
    got = outcome(cheb.q_corollary_condition, conj, phis, star, h)
    assert got == outcome(reference_q, conj, phis, star, h)
    assert repr(got) == repr(one_row_at_a_time(cheb.q_corollary_condition, conj, phis, star, h))


# prod inner and outer, Lukasiewicz circs: violated at (0.1, 0.2, 0.9) on the grid 0.1
_W_CIRC = cheb.config(_PR, _PR, (fusion.lukasiewicz_op(),) * 3, _MN, _IDS, _IDS,
                      cd_domain=_UNIT)


def test_an_earlier_witness_beats_a_later_rows_shape_error():
    # phi1 = x^2 on [0, 0.8] is undefined at prod(0.9, 0.9): the one block of
    # rows 0..10 raises, and its rows re-run one at a time give row 1's witness
    cfg = replace(_W_CIRC, phi1=_NARROW)
    got, built = blocks_built(cheb.check_condition_C2, cfg, 0.1)
    assert got == ("verdict", Verdict("violated", (0.1, 0.1, 1.0), 9.999999999998899e-05,
                                      0.010000000000000018,
                                      evidence="a,b grid(0.1) x c grid(0.1)"))
    assert built == [(0, 11), (0, 1), (1, 2)]
    assert got == outcome(reference_c2, cfg, 0.1)
    # with row 1 no longer confirmed, a row before 9 supplies the witness;
    # with every row rejected, the first error of the rows surfaces
    for rejected, witness_row in [(0.1, 2), (None, None)]:
        at = cheb.c2_condition_at

        def rejecting(cfg, a, b, c):
            return (1.0, 0.0) if rejected is None or a == rejected else at(cfg, a, b, c)

        with mock.patch.object(cheb, "c2_condition_at", rejecting):
            got, built = blocks_built(cheb.check_condition_C2, cfg, 0.1)
            assert got == outcome(reference_c2, cfg, 0.1)
        if witness_row is None:
            assert got[1].status == "hypothesis-failed"
            assert got[1].detail == "the value sq-0.8(0.81) is not defined (domain [0.0, 0.8])"
            assert built == [(0, 11)] + [(i, i + 1) for i in range(10)]
        else:
            assert got[1].witness[0] == 0.2
            assert built == [(0, 11)] + [(i, i + 1) for i in range(witness_row + 1)]


@pytest.mark.parametrize("source, h, first_block", [
    (_CROSS_ROW, 0.1, 11),
    # at h = 0.02 only row 1 (a = 0.02) reaches the middle branch, through
    # a*b = 0.0004, and the first block's sab reaches 0.1
    ("piecewise a { [0, 0.0003): a*b; [0.0003, 0.0005]: a*b + 0*sqrt(0.05 - a); (0.0005, 1]: a*b }",
     0.02, c2_rows(0.02))])
def test_a_block_that_raises_where_no_row_does_goes_on_to_the_next_block(source, h, first_block):
    # circ1 is a piecewise whose middle branch the first block reaches and,
    # evaluated on the whole block, raises on a later row's values; every
    # row alone holds, so the scan goes on past the block and holds
    pw = fusion.expr_op("pw", source, **_FLAGS)
    cfg = cheb.config(_PR, _PR, (pw, _PR, _PR), _MN, _IDS, _IDS, cd_domain=_UNIT)
    got, built = blocks_built(cheb.check_condition_C2, cfg, h)
    assert got == ("verdict", Verdict("holds-on-grid", evidence=f"a,b grid({h}) x c grid({h})"))
    assert got == outcome(reference_c2, cfg, h)
    assert got == one_row_at_a_time(cheb.check_condition_C2, cfg, h)
    rows = len(_k_grid(cfg, h))
    assert built == ([(0, first_block)] + [(i, i + 1) for i in range(first_block)]
                     + [(i, min(i + first_block, rows)) for i in range(first_block, rows, first_block)])


def test_a_failed_recheck_hands_over_to_the_next_flagged_row_of_the_block():
    # rows 1 and 2 flag; row 1's first flagged point is not confirmed, so
    # the scan passes over its other points to row 2, in the same block
    at, rechecked = cheb.c2_condition_at, []

    def rejecting(cfg, a, b, c):
        rechecked.append((a, b, c))
        return (1.0, 0.0) if a == 0.1 else at(cfg, a, b, c)

    with mock.patch.object(cheb, "c2_condition_at", rejecting):
        got, built = blocks_built(cheb.check_condition_C2, _W_CIRC, 0.1)
        want = outcome(reference_c2, _W_CIRC, 0.1)
    assert built == [(0, 11)]
    assert rechecked == [(0.1, 0.2, 0.9), (0.2, 0.1, 0.9)] * 2  # the scan, then the reference
    assert got == want and got[1].witness == (0.2, 0.1, 0.9)


@pytest.mark.parametrize("last", [False, True])
def test_a_block_boundary_right_after_the_flagged_row(last):
    # at h = 0.02 a block holds c2_rows(0.02) rows of 51^2 points; the rows
    # before the witness's are rejected, so it is the last row of the first
    # block, or the first row of the second
    lead = c2_rows(0.02)
    assert 1 < lead < 51
    row = lead - 1 if last else lead
    at = cheb.c2_condition_at

    def rejecting(cfg, a, b, c):
        return (1.0, 0.0) if a < row * 0.02 - 1e-12 else at(cfg, a, b, c)

    with mock.patch.object(cheb, "c2_condition_at", rejecting):
        got, built = blocks_built(cheb.check_condition_C2, _W_CIRC, 0.02)
        assert got == outcome(reference_c2, _W_CIRC, 0.02)
        assert got == one_row_at_a_time(cheb.check_condition_C2, _W_CIRC, 0.02)
    assert got[1].witness[0] == _k_grid(_W_CIRC, 0.02)[row]
    assert built == [(0, lead)] + ([(lead, 2 * lead)] if not last else [])


def test_blocks_give_the_rows_sides_bit_for_bit():
    # every block's sides, for builtin and expression operations alike, are
    # its rows' sides stacked: a one-row block passes its operations a column
    # as a block of many rows does.  An expression that powers its first
    # argument alone, a^0.7, is where a row's value as a scalar would differ
    # (libm's pow against np.power)
    real = scan_module.scan

    def block_against_rows(axes, sides, at, evidence):
        shape = tuple(map(len, axes))
        block = [np.broadcast_to(side, shape) for side in sides(slice(0, shape[0]))]
        stacked = [np.concatenate([np.broadcast_to(s, (1,) + shape[1:]) for s in side])
                   for side in zip(*(sides(slice(i, i + 1)) for i in range(shape[0])))]
        seen.append([np.array_equal(b.view(np.int64), s.view(np.int64))
                     for b, s in zip(block, stacked)])
        return real(axes, sides, at, evidence)

    power = fusion.expr_op("power", "a^0.7 * b", **_FLAGS)
    for cfg in [replace(_W_CIRC, phi1=cheb.power_shape(0.5), psi1=cheb.power_shape(3)),
                cheb.config(_PR, _MN, (power,) * 3, _MN, _IDS, _IDS, cd_domain=_UNIT),
                cheb.config(power, _MN, (_MN,) * 3, _MN, _IDS, _IDS, cd_domain=_UNIT),
                cheb.config(_PR, power, (_MN,) * 3, _MN, _IDS, _IDS, cd_domain=_UNIT)]:
        seen = []
        with mock.patch.object(cheb, "scan", block_against_rows):
            cheb.check_condition_C2(cfg, 0.01)
        assert seen == [[True, True]]
    product = fusion.expr_op("product", "a*b", **_FLAGS)
    for conj, star in [(_MN, _PR), (_MN, product), (power, _PR)]:
        seen = []
        with mock.patch.object(cheb, "scan", block_against_rows):
            assert cheb.q_corollary_condition(conj, _IDS, star, 0.05).holds
        assert seen == [[True, True]] * 2  # the b = 1 slice, then every b


def test_a_c2_scan_holds_one_block_at_a_time():
    # at h = 0.01 a row has 101^2 points and two rows exceed half of _BLOCK,
    # so a block is one row: the two buffers and the sides' temporaries stay
    # under six arrays of one block, beside two hoisted (a, c) tables
    cfg = cheb.config(_MN, _MN, (_MN,) * 3, _MN, _IDS, _IDS, cd_domain=_UNIT)
    assert c2_rows(0.01) == 1
    cheb.check_condition_C2(cfg, 0.01)  # any one-time setup outside the trace
    tracemalloc.start()
    try:
        verdict = cheb.check_condition_C2(cfg, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds
    assert peak < (2 + 6) * 101 ** 2 * 8


def test_reference_covers_every_outcome():
    """The generators reach holds, violated, hypothesis-failed and raised errors."""
    mn, pr, lu = fusion.min_op(), fusion.prod_op(), fusion.lukasiewicz_op()
    ident = cheb.identity_shape()
    ids = (ident,) * 3
    diff = fusion.expr_op("a - b", "a - b", **_FLAGS)
    narrow = cheb.shape("id-0.8", "x", inverse="x", domain=(0.0, 0.8),
                        non_decreasing=True, increasing=True)
    unit = cheb.cd_interval(0.0, 1.0)
    cases = [
        cheb.config(mn, mn, (mn, mn, mn), mn, ids, ids, cd_domain=unit),  # holds
        cheb.config(pr, pr, (lu, lu, lu), mn, ids, ids, cd_domain=unit),  # violated
        cheb.config(mn, mn, (mn, mn, mn), mn, ids, (narrow, ident, ident),
                    cd_domain=unit),  # psi1 outside its domain
        cheb.config(mn, mn, (diff, mn, mn), mn, ids, ids,
                    cd_domain=cheb.cd_values([0.0, 0.5, 0.5, 1.0])),  # EvalError
    ]
    seen = set()
    for cfg in cases:
        got = outcome(cheb.check_scalar_condition, cfg, 0.1)
        assert got == outcome(reference_c1, cfg, 0.1)
        seen.add(got[1].status if got[0] == "verdict" else got[0])
    assert seen == {"holds-on-grid", "violated", "hypothesis-failed", "EvalError"}
    got = outcome(fusion.dominates, diff, mn, 0.1)
    assert got[0] == "EvalError" and got == outcome(reference_dominates, diff, mn, 0.1)


def test_row_errors_name_the_reference_first_bad_value():
    """The first negative value in (b, c, d) order is not the first in the
    table's order of distinct values, so the error has to come from the
    row-by-row reference."""
    mn = fusion.min_op()
    ident = cheb.identity_shape()
    diff = fusion.expr_op("a - b", "a - b", **_FLAGS)
    skew = fusion.expr_op("a + 2b", "a + 2*b", **_FLAGS)  # (0, d) above (c, 0)
    cfg = cheb.config(mn, mn, (diff, mn, mn), skew, (ident,) * 3, (ident,) * 3,
                      cd_domain=cheb.cd_values([0.0, 0.5, 1.0]))
    got = outcome(cheb.check_scalar_condition, cfg, 0.1)
    assert got == ("EvalError", "negative final value -1.0")
    assert got == outcome(reference_c1, cfg, 0.1)
    # outer(x, y) = x + 1 - y is only negative on the lhs, where y = c + 2d > 1
    lift = fusion.expr_op("a + 1 - b", "a + 1 - b", **_FLAGS)
    got = outcome(fusion.dominates, lift, skew, 0.1)
    assert got == ("EvalError", "negative final value -0.20000000000000018")
    assert got == outcome(reference_dominates, lift, skew, 0.1)


# ---------------------------------------------------------------------------
# Level-set pruning of the separable scans
# ---------------------------------------------------------------------------


def unpruned(fn, *args):
    """``outcome`` with every separable scan comparing every point: no maximal
    points and no rows cleared by minimal points."""
    with mock.patch.object(scan_module, "_level_set_maxima", lambda *tables: None), \
            mock.patch.object(scan_module, "_level_set_minima", lambda *tables: 0):
        return outcome(fn, *args)


def pruned_regardless(fn, *args):
    """``outcome`` with the maximal points compared whatever the guard says:
    what a scan without its guard would report."""
    def maxima(v_index, p, q, box):
        keep = np.ones(v_index.shape, dtype=bool)
        keep[:-1] &= v_index[1:] != v_index[:-1]
        keep[:, :-1] &= v_index[:, 1:] != v_index[:, :-1]
        return np.nonzero(keep)

    with mock.patch.object(scan_module, "_level_set_maxima", maxima):
        return outcome(fn, *args)


def minima_regardless(fn, *args):
    """``outcome`` with the rows cleared by minimal points whatever the guard
    says: what a scan without that guard would report."""
    real = scan_module._level_set_minima

    def minima(ab, u, v, p, q, left, right, box, left_box, most):
        with mock.patch.object(scan_module, "_monotone", lambda *args: True):
            return real(ab, u, v, p, q, left, right, (0.0, 1.0), (0.0, 1.0), math.inf)

    with mock.patch.object(scan_module, "_level_set_minima", minima):
        return outcome(fn, *args)


def cleared_rows(fn, *args):
    """The rows each separable scan of ``fn(*args)`` cleared by its minimal points."""
    real, cleared = scan_module._level_set_minima, []

    def minima(*args):
        cleared.append(real(*args))
        return cleared[-1]

    with mock.patch.object(scan_module, "_level_set_minima", minima):
        outcome(fn, *args)
    return cleared


@st.composite
def builtin_configs(draw):
    """Builtin operations, identity and power shapes (the narrow one raises
    past 0.8), a min triangle half the time: min level sets are what prunes."""
    ops = [draw(BUILTINS) for _ in range(6)]
    triangle = _MN if draw(st.booleans()) else ops[5]
    shapes = [draw(SHAPES) for _ in range(6)]
    return cheb.config(ops[0], ops[1], tuple(ops[2:5]), triangle, tuple(shapes[:3]),
                       tuple(shapes[3:]), k=draw(st.sampled_from([1.0, 0.6])),
                       cd_domain=draw(CD))


@settings(max_examples=80, deadline=None)
@given(cfg=builtin_configs(), outer=BUILTINS, inner=BUILTINS, h=STEPS)
def test_pruned_scans_match_the_unpruned_scans(cfg, outer, inner, h):
    assert (outcome(cheb.check_scalar_condition, cfg, h)
            == unpruned(cheb.check_scalar_condition, cfg, h))
    assert outcome(fusion.dominates, outer, inner, h) == unpruned(fusion.dominates, outer, inner, h)


# (x, t) -> t: the left side is min(c, d) and the right side outer(psi2(c), psi3(d))
_SECOND = fusion.expr_op("second", "b", **_FLAGS)


def test_an_expression_outer_is_not_pruned():
    # declared non-decreasing, but 0 at both ends of each axis: every maximal
    # point of a min level set, (t, 1) or (1, t), has rhs 0
    bump = fusion.expr_op("bump", "16*a*(1 - a)*b*(1 - b)", **_FLAGS)
    cfg = cheb.config(_MN, bump, (_SECOND,) * 3, _MN, _IDS, _IDS, cd_domain=_UNIT)
    got = outcome(cheb.check_scalar_condition, cfg, 0.1)
    assert got[1].status == "violated" and got[1].witness == (0.0, 0.0, 0.1, 0.1)
    assert got == unpruned(cheb.check_scalar_condition, cfg, 0.1)
    assert pruned_regardless(cheb.check_scalar_condition, cfg, 0.1)[1].holds


def test_a_psi_decreasing_along_c_is_not_pruned():
    # psi2 = psi3 = 1 - x, declared non-decreasing: the right side is largest at (t, t)
    falling = cheb.shape("1-x", "1 - x", domain=(0.0, 1.0), non_decreasing=True)
    ident = cheb.identity_shape()
    cfg = cheb.config(_MN, _MN, (_SECOND,) * 3, _MN, _IDS, (ident, falling, falling),
                      cd_domain=_UNIT)
    got = outcome(cheb.check_scalar_condition, cfg, 0.1)
    assert got[1].status == "violated" and got[1].witness == (0.0, 0.0, 0.0, 0.0)
    assert got == unpruned(cheb.check_scalar_condition, cfg, 0.1)
    assert pruned_regardless(cheb.check_scalar_condition, cfg, 0.1)[1].holds


def test_prod_on_a_negative_table_is_not_pruned():
    # p = q = x - 1 rise along c and d, but prod falls in one argument where
    # the other is negative: (0, 0) flags, no maximal point does (9 of 25 points)
    cd = np.linspace(0.0, 1.0, 5)
    v = np.minimum(cd[:, None], cd[None, :])
    p = q = (cd - 1.0)[None, :]
    prod = fusion.prod_op()

    def at(a, b, c, d):
        return min(c, d), (c - 1.0) * (d - 1.0)

    def run():
        return scan_module.scan_separable(np.zeros(1), cd, lambda a: np.zeros(1), v, p, q,
                                          lambda x, t: x + t, partial(apply_op, prod), at, "",
                                          fusion.monotone_box(prod))

    got = outcome(run)
    assert got == ("verdict", Verdict("violated", (0.0, 0.0, 0.0, 0.0), 0.0, 1.0))
    assert got == unpruned(run)
    assert pruned_regardless(run)[1].holds


def test_pruned_row_errors_name_the_reference_first_bad_value():
    """psi1 = x^2 on [0, 0.8] raises first at 0.816 in the order of v's
    distinct values, at 0.9 in (b, c, d) order.  phi1 is evaluated in the
    row function, the same in both layouts, so its errors cannot tell the
    orders apart."""
    narrow = cheb.shape("sq-0.8", "x^2", inverse="x^0.5", domain=(0.0, 0.8),
                        non_decreasing=True, increasing=True)
    ident = cheb.identity_shape()
    circ1 = fusion.expr_op("sum", "min(1, a + b)", **_FLAGS)
    triangle = fusion.expr_op("skew", "min(a, 1 - b)", **_FLAGS)  # min-like level sets
    cfg = cheb.config(_PR, _MN, (circ1, _MN, _MN), triangle,
                      (cheb.power_shape(0.5), ident, ident), (narrow, ident, ident),
                      cd_domain=cheb.cd_values([1.0, 0.2, 0.5, 0.5, 0.9]))
    got = outcome(cheb.check_scalar_condition, cfg, 0.1)
    assert got[1].detail == "the value sq-0.8(0.9) is not defined (domain [0.0, 0.8])"
    assert got == outcome(reference_c1, cfg, 0.1)
    assert got == unpruned(cheb.check_scalar_condition, cfg, 0.1)


# ---------------------------------------------------------------------------
# Rows cleared by the minimal points of the separable scans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("h", [0.1, 0.05])
@pytest.mark.parametrize("inner", fusion.BUILTIN_KINDS)
@pytest.mark.parametrize("outer", fusion.BUILTIN_KINDS)
def test_dominates_with_cleared_rows_matches_the_unpruned_scan(outer, inner, h):
    """Every builtin pair, godel and godel_contra included, in both orders."""
    outer, inner = fusion.builtin(outer), fusion.builtin(inner)
    got = outcome(fusion.dominates, outer, inner, h)
    assert got == unpruned(fusion.dominates, outer, inner, h)
    if outer.kind == "min":  # min dominates every non-decreasing operation: the diagonal
        assert got[1].holds  # clears every row
        assert cleared_rows(fusion.dominates, outer, inner, h) == [round(1 / h) + 1]


def test_a_row_whose_minimal_points_flag_hands_over_to_the_whole_row():
    """Row 0 holds and row 1 flags at its minimal point (1/4, 1/4, 1/4, 1/4),
    where the scan starts.  ``at`` rejects row 1's first flagged point, so the
    witness is row 2's, as in the unpruned scan."""
    xs = np.linspace(0.0, 1.0, 5)
    table = np.minimum(xs[:, None], xs[None, :])
    prod, mn = partial(apply_op, fusion.prod_op()), partial(apply_op, _MN)

    def at(a, b, c, d):
        return (1.0, 0.0) if a == 0.25 else (min(a, b) * min(c, d), min(a, b, c, d))

    def run():
        return scan_module.scan_separable(xs, xs, lambda a: np.minimum(a, xs), table, table,
                                          table, prod, mn, at, "", (0.0, 1.0), (0.0, 1.0))

    got = outcome(run)
    assert got == ("verdict", Verdict("violated", (0.5, 0.25, 0.25, 0.25), 0.0625, 0.25))
    assert got == unpruned(run)
    assert cleared_rows(run) == [1]


def test_an_expression_outer_clears_no_rows():
    # declared non-decreasing, but it falls in its second argument: the
    # minimal points hold and (1/2, 1/2, 1/2, 1) does not
    falls = fusion.expr_op("falls", "max(0, a*b + (a - b)/2)", **_FLAGS)
    got = outcome(fusion.dominates, falls, _PR, 0.5)
    assert got[1].status == "violated" and got[1].witness == (0.5, 0.5, 0.5, 1.0)
    assert got == unpruned(fusion.dominates, falls, _PR, 0.5)
    assert minima_regardless(fusion.dominates, falls, _PR, 0.5)[1].holds


# The synthetic scans below have a constant rhs = min(r, r), so p and q have
# one level set each and (0, 0, 0, 0) is the one minimal point, where lhs >= r.
# Each u broadcasts over a column of a values, as the guard requires.
_XS = np.linspace(0.0, 1.0, 3)


def _constant_rhs_scan(u, v, left, r):
    left, pq = partial(apply_op, left), np.full((3, 3), r)

    def at(a, b, c, d):
        j, k, m = (int(round(2 * x)) for x in (b, c, d))
        return float(left(np.asarray(u(a), dtype=float)[j], v[k, m])), r

    def run():
        return scan_module.scan_separable(_XS, _XS, u, v, pq, pq, left, partial(apply_op, _MN),
                                          at, "", (0.0, 1.0), (0.0, 1.0))
    return run


@pytest.mark.parametrize("u,v,left,r,witness", [
    # v falls along c: lhs = v[c, d] = 0 away from c = 0
    (lambda a: np.ones(3) + 0.0 * np.asarray(a), np.array([[1.0] * 3, [0.0] * 3, [0.0] * 3]),
     _MN, 0.5,
     (0.0, 0.0, 0.5, 0.0)),
    # the row u(1/2) falls below u(0)
    (lambda a: np.where(np.asarray(a) == 0.0, 1.0, 0.0) * np.ones(3), np.ones((3, 3)), _MN, 0.5,
     (0.5, 0.0, 0.0, 0.0)),
    # u = -1 lies outside the box, where prod falls in its second argument
    (lambda a: -np.ones(3) + 0.0 * np.asarray(a), np.tile(_XS, (3, 1)), fusion.prod_op(), -0.5,
     (0.0, 0.0, 0.0, 1.0)),
], ids=["v-falls-along-c", "u-row-falls", "u-outside-the-box"])
def test_a_broken_guard_clears_no_rows(u, v, left, r, witness):
    run = _constant_rhs_scan(u, v, left, r)
    got = outcome(run)
    assert got[1].status == "violated" and got[1].witness == witness
    assert got == unpruned(run)
    assert cleared_rows(run) == [0]
    assert minima_regardless(run)[1].holds


# ---------------------------------------------------------------------------
# Multi-row blocks of the separable scans' maxima pass (c1 and dominates)
# ---------------------------------------------------------------------------


def _separable(fn, *args):
    """(``outcome``, the shapes of the values handed to each separable scan's
    row function u)."""
    real, shapes = scan_module.scan_separable, []

    def recording(ab, cd, u, *rest, **kwargs):
        def row(a):
            shapes.append(np.shape(a))
            return u(a)
        return real(ab, cd, row, *rest, **kwargs)

    with mock.patch.object(cheb, "scan_separable", recording), \
            mock.patch.object(fusion, "scan_separable", recording):
        return outcome(fn, *args), shapes


def blocked_and_one_row(fn, *args):
    """The reprs of ``fn(*args)``'s outcome as it runs and with every block
    one row: a float's repr gives its bits back, signed zeros included."""
    return repr(outcome(fn, *args)), repr(one_row_at_a_time(fn, *args))


@st.composite
def builtin_value_configs(draw):
    """``builtin_configs`` over a c/d value set: exact domains of a few values
    give the coarse rows (|cd|^2 * |ab| points) that blocks of rows take."""
    values = st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0]), min_size=1,
                      max_size=6)
    return replace(draw(builtin_configs()), cd_domain=cheb.cd_values(draw(values)))


# Expression forms whose arithmetic or errors could depend on the block: a
# power of the row variable (np.power, never libm's pow), a piecewise whose
# branch raises on a later row's values, a square root and a division that
# raise on part of the grid
_BLOCK_EXPRS = ["a^0.7 * b", "a*b^0.5", _CROSS_ROW, "sqrt(a - b)", "a*b/(a + b - a*b)",
                "piecewise a { [0, 0.5]: a^1.5*b; (0.5, 1]: sqrt(a*b) }"]
BLOCK_OPS = st.one_of(BUILTINS, _expr_ops(_BLOCK_EXPRS), _expr_ops(_EXPRS))


@st.composite
def block_expr_configs(draw):
    """``configs`` with half of its operations drawn from ``BLOCK_OPS``."""
    cfg = draw(configs())
    names = ("inner", "outer", "circ1", "circ2", "circ3", "triangle")
    picked = draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
    return replace(cfg, **{name: draw(BLOCK_OPS) for name in picked})


@settings(max_examples=80, deadline=None)
@given(cfg=st.one_of(builtin_value_configs(), builtin_configs(), block_expr_configs()),
       h=STEPS)
def test_c1_blocks_match_one_row_per_block(cfg, h):
    got, want = blocked_and_one_row(cheb.check_scalar_condition, cfg, h)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(cfg=block_expr_configs(), h=BLOCK_STEPS)
def test_c2_blocks_match_one_row_per_block(cfg, h):
    got, want = blocked_and_one_row(cheb.check_condition_C2, cfg, h)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(conj=BLOCK_OPS, star=BLOCK_OPS, phis=st.tuples(SHAPES, SHAPES, SHAPES), h=BLOCK_STEPS)
def test_q_blocks_match_one_row_per_block(conj, star, phis, h):
    got, want = blocked_and_one_row(cheb.q_corollary_condition, conj, phis, star, h)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(outer=BLOCK_OPS, inner=BLOCK_OPS, h=STEPS)
def test_dominates_blocks_match_one_row_per_block(outer, inner, h):
    got, want = blocked_and_one_row(fusion.dominates, outer, inner, h)
    assert got == want


def test_u_always_gets_a_column():
    # every block, of one row or of many, hands u the column of its rows'
    # values, for builtin and expression inner operations alike.  A builtin
    # outer prunes c1 (7 of the 16 (c, d) points are maximal in their min
    # level sets), so its 21 rows are one block; an expression inner keeps
    # dominates from pruning, and each of its rows is a block of its own
    power = fusion.expr_op("power", "a^0.7 * b", **_FLAGS)
    cfg = cheb.config(power, _PR, (_MN,) * 3, _MN, _IDS, _IDS,
                      cd_domain=cheb.cd_values([0.2, 0.5, 0.9, 1.0]))
    for inner in (power, _PR):
        got, shapes = _separable(cheb.check_scalar_condition, replace(cfg, inner=inner), 0.05)
        assert got[1].holds and shapes == [(21, 1)]
    got, shapes = _separable(fusion.dominates, _MN, power, 0.1)
    assert got[1].holds and shapes == [(1, 1)] * 11


def test_a_later_rows_shape_error_in_a_block_loses_to_an_earlier_witness():
    # phi1 = x^2 on [0, 0.8] is undefined at prod(0.9, 0.9): the one block of
    # rows 0..10 raises, and its rows re-run one at a time give row 1's witness
    cfg = replace(_W_CIRC, phi1=_NARROW)
    got, shapes = _separable(cheb.check_scalar_condition, cfg, 0.1)
    assert got == ("verdict", Verdict("violated", (0.1, 0.1, 1.0, 1.0), 9.999999999998899e-05,
                                      0.010000000000000018,
                                      evidence="a,b grid(0.1) x c,d grid(0.1)"))
    assert shapes == [(11, 1), (1, 1), (1, 1)]
    assert got == outcome(reference_c1, cfg, 0.1)
    assert repr(got) == repr(one_row_at_a_time(cheb.check_scalar_condition, cfg, 0.1))


def test_a_block_without_a_witness_gives_the_row_by_row_error():
    # psi1 = x^2 on [0, 0.8] raises first at 0.816 in the block's (row,
    # value, b) order and at 0.9 in a row's (b, c, d) order; the block is
    # re-run one row at a time, up to row 0.5, the first that raises
    narrow = cheb.shape("sq-0.8", "x^2", inverse="x^0.5", domain=(0.0, 0.8),
                        non_decreasing=True, increasing=True)
    circ1 = fusion.expr_op("sum", "min(1, a + b)", **_FLAGS)
    triangle = fusion.expr_op("skew", "min(a, 1 - b)", **_FLAGS)  # min-like level sets
    cfg = cheb.config(_PR, _MN, (circ1, _MN, _MN), triangle,
                      (cheb.power_shape(0.5), *_IDS[1:]), (narrow, *_IDS[1:]),
                      cd_domain=cheb.cd_values([1.0, 0.2, 0.5, 0.5, 0.9]))
    got, shapes = _separable(cheb.check_scalar_condition, cfg, 0.1)
    assert got[1].detail == "the value sq-0.8(0.9) is not defined (domain [0.0, 0.8])"
    assert shapes[0] == (11, 1) and shapes[1:] == [(1, 1)] * (len(shapes) - 1)
    assert repr(got) == repr(one_row_at_a_time(cheb.check_scalar_condition, cfg, 0.1))
    assert got == outcome(reference_c1, cfg, 0.1)


def test_a_c1_scan_over_four_values_holds_a_block_at_a_time():
    # at h = 0.01 over 4 c/d values a row has 4^2 * 101 points and 7 maximal
    # (c, d) points: a block takes 23 rows, whose maximal points' sides stay
    # within half of _BLOCK each.  The trace stays under five such arrays
    # beside the whole-row buffers; blocks of a whole _BLOCK go past it
    cfg = cheb.config(_MN, _MN, (_MN,) * 3, _MN, _IDS, _IDS,
                      cd_domain=cheb.cd_values([0.0, 0.3, 0.6, 1.0]))
    assert scan_module._BLOCK // 2 // (7 * 101) == 23
    cheb.check_scalar_condition(cfg, 0.01)  # any one-time setup outside the trace
    tracemalloc.start()
    try:
        verdict = cheb.check_scalar_condition(cfg, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds
    assert peak < 5 * scan_module._BLOCK // 2 * 8


# ---------------------------------------------------------------------------
# The commutativity-gap search
# ---------------------------------------------------------------------------


def reference_gap(S, star=None, grid_step=0.01):
    """The earlier form of ``search_commutativity_gap``: a loop over a with
    its own first-witness rule and no re-check."""
    star = star or fusion.prod_op()
    xs = scan_module.axis(0.0, 1.0, grid_step, least=0)
    S_ac = apply_op(S, xs[:, None], xs[None, :])  # S(x, y)
    for a in xs:
        ab = apply_op(star, a, xs)  # over b
        lhs1 = apply_op(S, ab[:, None], xs[None, :])
        i = int(round(a / grid_step))
        t1 = apply_op(star, S_ac[i][None, :], xs[:, None])
        t2 = apply_op(star, a, S_ac)
        ok1 = lhs1 >= np.maximum(t1, t2) - TOL
        lhs2 = apply_op(S, xs[None, :], ab[:, None])
        u1 = apply_op(star, S_ac[:, i][None, :], xs[:, None])
        u2 = apply_op(star, a, S_ac.T)
        ok2 = lhs2 >= np.maximum(u1, u2) - TOL
        if (index := scan_module.first_flagged(ok1 != ok2)) is not None:
            return (float(a),) + tuple(float(xs[i]) for i in index)
    return None


# asymmetric forms, whose argument-order variants can disagree
_GAP_EXPRS = ["a*b^2", "a^2*b", "a*sqrt(b)", "min(a, b^2)", "a*b*(1 + a - b)/2 + 0*b",
              "piecewise a { [0, 0.5]: a*b; (0.5, 1]: a*b^0.5 }"]
GAP_OPS = st.one_of(BLOCK_OPS, _expr_ops(_GAP_EXPRS), _expr_ops(_RISKY))


@settings(max_examples=60, deadline=None)
@given(S=GAP_OPS, star=st.one_of(st.none(), BUILTINS, _expr_ops(_EXPRS + _BLOCK_EXPRS)),
       h=st.sampled_from([0.1, 0.05, 0.04, 0.02]))
@example(S=fusion.expr_op("ab2", "a*b^2", **_FLAGS), star=None, h=0.05)
def test_gap_search_matches_the_row_loop(S, star, h):
    got = outcome(cheb.search_commutativity_gap, S, star, h)
    assert repr(got) == repr(outcome(reference_gap, S, star, h))
    assert repr(got) == repr(one_row_at_a_time(cheb.search_commutativity_gap, S, star, h))


def test_gap_search_finds_the_bundled_witness_through_scan():
    ab2 = fusion.expr_op("ab2", "a*b^2", **_FLAGS)
    got, built = blocks_built(cheb.search_commutativity_gap, ab2, None, 0.05)
    assert got == ("verdict", (0.05, 0.05, 0.05))
    assert built == [(0, 21)]  # the 21 rows of 21^2 points are one block
    assert cheb.search_commutativity_gap(fusion.prod_op(), None, 0.05) is None
