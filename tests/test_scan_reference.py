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
from chebint.scenarios import build_config, load_scenario


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
_NARROW = cheb.shape("sq-0.8", "x^2", inverse="x^0.5", domain=(0.0, 0.8))
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

    def recording(axes, sides, at, evidence, mirrored=False):
        def recorded(rows, b0):
            built.append((rows.start, rows.stop))
            return sides(rows, b0)
        return real(axes, recorded, at, evidence, mirrored=mirrored)

    with mock.patch.object(cheb, "scan", recording):
        return outcome(fn, *args), built


def c2_rows(h):
    """The rows of a c2 scan's block at step h on [0, 1]."""
    return scan_module._BLOCK // 2 // (round(1 / h) + 1) ** 2


def row_start_blocks(rows, width):
    """The (start, stop) blocks of a halved scan over rows x rows x width
    points: a block from row i compares rows - i values of b, each over
    ``width`` points, in as many rows as fit in a full block of the scan."""
    points = min(max(scan_module._BLOCK // 2 // (rows * width), 1), rows) * rows * width
    blocks, i = [], 0
    while i < rows:
        n = max(points // ((rows - i) * width), 1)
        blocks.append((i, min(i + n, rows)))
        i += n
    return blocks


def row_start_points(blocks, rows, width):
    """The points that the halved ``blocks`` of ``row_start_blocks`` compare."""
    return sum((stop - start) * (rows - start) * width for start, stop in blocks)


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
# both sides raise in row 0: psi1 at min(1, 0 + c) = 0.9 and outer at 0 - b.
# c2 builds its rhs first, and the lhs error must still come out
@example(cfg=cheb.config(_PR, fusion.expr_op("a - b", "a - b", **_FLAGS),
                         (fusion.expr_op("sat", "min(1, a + b)", **_FLAGS), _MN, _MN), _MN,
                         _IDS, (_NARROW, cheb.identity_shape(), cheb.identity_shape()),
                         cd_domain=_UNIT), h=0.1)
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
# _W_CIRC's symmetry in (a, b) halves its c2 scan.  Its twin writes circ3 as
# an expression with the same values bit for bit, which the guard does not
# take for a builtin, so the twin runs the full scan's blocks with the same
# verdicts; the block layouts are pinned on the twin
_TWIN_CIRC3 = {name: fusion.expr_op(source, source, **_FLAGS)
               for name, source in [("lukasiewicz", "max(a + b - 1, 0)"), ("prod", "a*b"),
                                    ("min", "min(a, b)")]}


def full_blocks_built(cfg, h):
    """c2's outcome on cfg and the blocks that its full scan builds on cfg's
    twin, which gives the same outcome."""
    got, built = blocks_built(cheb.check_condition_C2,
                              replace(cfg, circ3=_TWIN_CIRC3[cfg.circ3.kind]), h)
    assert got == outcome(cheb.check_condition_C2, cfg, h)
    return got, built


def test_an_earlier_witness_beats_a_later_rows_shape_error():
    # phi1 = x^2 on [0, 0.8] is undefined at prod(0.9, 0.9): the one block of
    # rows 0..10 raises, and its rows re-run one at a time give row 1's witness
    cfg = replace(_W_CIRC, phi1=_NARROW)
    got, built = full_blocks_built(cfg, 0.1)
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
            got, built = full_blocks_built(cfg, 0.1)
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
    got, built = full_blocks_built(cfg, h)
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

    twin = replace(_W_CIRC, circ3=_TWIN_CIRC3["lukasiewicz"])
    with mock.patch.object(cheb, "c2_condition_at", rejecting):
        got, built = blocks_built(cheb.check_condition_C2, twin, 0.1)
        assert built == [(0, 11)]
        assert rechecked == [(0.1, 0.2, 0.9), (0.2, 0.1, 0.9)]
        # _W_CIRC is halved: its one block from b = 0 on rejects row 1's
        # point, and the full scan re-checks it before row 2's
        del rechecked[:]
        assert outcome(cheb.check_condition_C2, _W_CIRC, 0.1) == got
        assert rechecked == [(0.1, 0.2, 0.9)] * 2 + [(0.2, 0.1, 0.9)]
        want = outcome(reference_c2, _W_CIRC, 0.1)
    assert got == want and got[1].witness == (0.2, 0.1, 0.9)


def test_a_rejected_halved_recheck_hands_over_to_the_full_scan():
    # at h = 0.02 _W_CIRC's halved pass hands its rejected point to the full
    # pass, whose next flagged row gives the witness below the diagonal: the
    # first block of c2_rows(0.02) rows, from b = 0 on, twice, where the
    # twin builds it once
    at, rechecked = cheb.c2_condition_at, []

    def rejecting(cfg, a, b, c):
        rechecked.append((a, b, c))
        return (1.0, 0.0) if a == 0.02 else at(cfg, a, b, c)

    twin = replace(_W_CIRC, circ3=_TWIN_CIRC3["lukasiewicz"])
    with mock.patch.object(cheb, "c2_condition_at", rejecting):
        got, totals = points_handed(cheb.check_condition_C2, twin, 0.02)
        assert totals == [c2_rows(0.02) * 51 ** 2]
        assert rechecked == [(0.02, 0.04, 0.98), (0.04, 0.02, 0.98)]
        del rechecked[:]
        halved, totals = points_handed(cheb.check_condition_C2, _W_CIRC, 0.02)
        assert halved == got and totals == [2 * c2_rows(0.02) * 51 ** 2]
        assert rechecked == [(0.02, 0.04, 0.98)] * 2 + [(0.04, 0.02, 0.98)]
        want = outcome(reference_c2, _W_CIRC, 0.02)
    assert got == want and got[1].witness == (0.04, 0.02, 0.98)


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
        got, built = full_blocks_built(_W_CIRC, 0.02)
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

    def block_against_rows(axes, sides, at, evidence, mirrored=False):
        shape = tuple(map(len, axes))
        block = [np.broadcast_to(side, shape) for side in sides(slice(0, shape[0]), 0)]
        stacked = [np.concatenate([np.broadcast_to(s, (1,) + shape[1:]) for s in side])
                   for side in zip(*(sides(slice(i, i + 1), 0) for i in range(shape[0])))]
        seen.append([np.array_equal(b.view(np.int64), s.view(np.int64))
                     for b, s in zip(block, stacked)])
        return real(axes, sides, at, evidence, mirrored=mirrored)

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


_ALL_MIN = cheb.config(_MN, _MN, (_MN,) * 3, _MN, _IDS, _IDS, cd_domain=_UNIT)


def c2_peak(cfg):
    """The traced peak of c2 on cfg at h = 0.01, which must hold, after one untraced run."""
    cheb.check_condition_C2(cfg, 0.01)  # any one-time setup outside the trace
    tracemalloc.start()
    try:
        verdict = cheb.check_condition_C2(cfg, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds
    return peak


def test_a_c2_scan_holds_one_block_at_a_time():
    # at h = 0.01 a row has 101^2 points and two rows exceed half of _BLOCK,
    # so a block is one row: the two buffers and the sides' temporaries stay
    # under six arrays of one block, beside two hoisted (a, c) tables.  The
    # all-min config's twin scans every row; the all-min config halves its
    # scan into blocks of rows from b = a on, each no larger than a row of
    # 101^2 points, and holds no more
    assert c2_rows(0.01) == 1
    twin = replace(_ALL_MIN, circ3=_TWIN_CIRC3["min"])
    for cfg, blocks in [(twin, [(i, i + 1) for i in range(101)]),
                        (_ALL_MIN, row_start_blocks(101, 101))]:
        assert blocks_built(cheb.check_condition_C2, cfg, 0.01)[1] == blocks
        assert c2_peak(cfg) < (2 + 6) * 101 ** 2 * 8


# ---------------------------------------------------------------------------
# Mirror-symmetric c2 and q: the halved scans
# ---------------------------------------------------------------------------

COMMUTING = st.sampled_from(["min", "prod", "lukasiewicz"]).map(fusion.builtin)
# thresholds below which the re-check is patched to reject a witness's a
REJECTED = st.sampled_from([None, None, 0.0, 0.1, 0.3])


def rejecting_below(name, t, arg=-3):
    """A patch of ``cheb.<name>`` that rejects every point whose a, its
    argument ``arg``, is at most t."""
    real = getattr(cheb, name)

    def at(*args):
        a = args[arg]
        return (1.0, 0.0) if t is not None and a <= t + 1e-12 else real(*args)

    return mock.patch.object(cheb, name, at)


@st.composite
def symmetric_configs(draw):
    """``configs`` tied to be symmetric in (a, b): phi3 := phi2, psi3 := psi2,
    circ3 := circ2, inner and outer commuting builtins, circ1 at times risky
    or evaluated across rows."""
    cfg = draw(configs())
    circ1 = draw(st.one_of(st.just(cfg.circ1), _expr_ops(_RISKY + [_CROSS_ROW])))
    return replace(cfg, inner=draw(COMMUTING), outer=draw(COMMUTING), circ1=circ1,
                   phi3=cfg.phi2, psi3=cfg.psi2, circ3=cfg.circ2)


_PW = fusion.expr_op("pw", _CROSS_ROW, **_FLAGS)
# x, bent to 0.02*sqrt(x) below 0.02^2: with conj a*b, star prod and identity
# phi2 = phi3, q fails only where b*c < 0.02^2, off the slice b = 1
_BENT = cheb.shape("bent", "max(x, 0.02*sqrt(x))", inverse="min(x, 2500*x^2)")


@settings(max_examples=60, deadline=None)
@given(cfg=symmetric_configs(), h=BLOCK_STEPS, rejected=REJECTED)
@example(cfg=_W_CIRC, h=0.02, rejected=0.1)
@example(cfg=_W_CIRC, h=0.1, rejected=0.1)
@example(cfg=replace(_W_CIRC, phi1=_NARROW), h=0.02, rejected=None)
# two values of c: the halved scan's first block holds 81 rows from b = 0 on
@example(cfg=replace(_ALL_MIN, cd_domain=cheb.cd_values([0.0, 1.0])), h=0.01, rejected=None)
# rows of a > 0.5 raise alone, through a*b in [0.02, 0.04] beside a*b > 0.5;
# the halved rows, from their block's first b on, never meet both, so only
# the full scan gives the error
@example(cfg=cheb.config(_PR, _PR, (_PW, _PR, _PR), _MN, _IDS, _IDS, cd_domain=_UNIT),
         h=0.02, rejected=None)
def test_halved_c2_matches_the_row_by_row_scans(cfg, h, rejected):
    with rejecting_below("c2_condition_at", rejected):
        got = outcome(cheb.check_condition_C2, cfg, h)
        assert got == outcome(reference_c2, cfg, h)
        assert repr(got) == repr(one_row_at_a_time(cheb.check_condition_C2, cfg, h))


@settings(max_examples=40, deadline=None)
@given(conj=st.one_of(BUILTINS, OPS), star=COMMUTING, phis=st.tuples(SHAPES, SHAPES),
       h=BLOCK_STEPS, rejected=REJECTED)
@example(conj=_PW, star=_PR, phis=(_BENT, cheb.identity_shape()), h=0.02, rejected=0.1)
def test_halved_q_matches_the_row_by_row_scans(conj, star, phis, h, rejected):
    phis = (phis[0], phis[1], phis[1])
    with rejecting_below("q_condition_at", rejected):
        got = outcome(cheb.q_corollary_condition, conj, phis, star, h)
        assert got == outcome(reference_q, conj, phis, star, h)
        assert repr(got) == repr(one_row_at_a_time(cheb.q_corollary_condition, conj, phis, star, h))


def test_the_halved_q_example_reaches_the_halved_layout():
    # the b = 1 slice holds; the halved scan hands over the pairs c >= b of
    # rows 0 to 0.22, and the re-check rejects the witnesses of a <= 0.1
    phis = (_BENT,) + (cheb.identity_shape(),) * 2
    with rejecting_below("q_condition_at", 0.1):
        got, totals = points_handed(cheb.q_corollary_condition, _PW, phis, _PR, 0.02)
    assert got[1].witness == (0.12, 0.02, 0.02)
    assert totals == [51 ** 2, 12 * 1326]


def test_a_witness_stands_once_the_rest_of_its_row_raises_nowhere():
    # psi2 = psi3 is 0 below 0.9, so rhs > lhs = 0 only where a, b, c >= 0.9,
    # and phi1 is negative on (0.895, 0.9], which a*b first reaches at
    # (0.9, 1.0): row 0.9 raises, and so does the block that holds it.  The
    # halved pass re-runs that block's rows alone from b = a on and hands
    # the row's error to the full pass, which ends in it too: the rows
    # before 0.9 are handed once from their block's first b on, or their
    # own, and once whole
    gate = cheb.shape("gate", "x*ind[0.9, 1](x)")
    notch = cheb.shape("notch", "x - ind(0.895, 0.9](x)")
    zero = fusion.expr_op("zero", "0*a", **_FLAGS)
    ident = cheb.identity_shape()
    cfg = cheb.config(_PR, _PR, (zero, _MN, _MN), _MN, (notch, ident, ident),
                      (ident, gate, gate), cd_domain=_UNIT)
    for h in (0.1, 0.01):
        rows, bad = round(1 / h) + 1, round(0.9 / h)
        blocks = row_start_blocks(rows, rows)
        k = next(k for k, (_, stop) in enumerate(blocks) if bad < stop)  # the raising block
        halved = (row_start_points(blocks[:k], rows, rows)
                  + sum((rows - j) * rows for j in range(blocks[k][0], bad)))
        got, totals = points_handed(cheb.check_condition_C2, cfg, h)
        assert got == ("EvalError", "negative final value -0.09999999999999998")
        assert got == outcome(reference_c2, cfg, h)
        assert totals == [halved + bad * rows ** 2]


def points_handed(fn, *args):
    """``outcome(fn, *args)`` and the points each of its plain scans hands its
    ``sides``, one total per scan."""
    real, totals = scan_module.scan, []

    def counting(axes, sides, at, evidence, mirrored=False):
        totals.append(0)

        def counted(rows, b0):
            lhs, rhs = sides(rows, b0)
            totals[-1] += math.prod(np.broadcast_shapes(np.shape(lhs), np.shape(rhs)))
            return lhs, rhs
        return real(axes, counted, at, evidence, mirrored=mirrored)

    with mock.patch.object(cheb, "scan", counting):
        return outcome(fn, *args), totals


def holding_points_handed(fn, *args):
    """``points_handed``'s totals of a call that must hold."""
    got, totals = points_handed(fn, *args)
    assert got[1].holds
    return totals


def test_halved_scans_hand_their_sides_half_the_points():
    # at h = 0.01 c2's blocks of rows from b = a on compare 527,927 points,
    # and q each row's 5,151 pairs (b, c) with c >= b after the b = 1 slice,
    # against 101^3 points of a full scan
    halved = row_start_points(row_start_blocks(101, 101), 101, 101)
    assert halved == 527927
    assert holding_points_handed(cheb.check_condition_C2, _ALL_MIN, 0.01) == [halved]
    twin = replace(_ALL_MIN, circ3=_TWIN_CIRC3["min"])
    assert holding_points_handed(cheb.check_condition_C2, twin, 0.01) == [101 ** 3]
    # over c in {0, 1} the first block holds 81 rows of 202 points, from
    # b = 0 on, and the last 20 rows compare the b from 81 on
    two = replace(_ALL_MIN, cd_domain=cheb.cd_values([0.0, 1.0]))
    assert row_start_blocks(101, 2) == [(0, 81), (81, 101)]
    assert holding_points_handed(cheb.check_condition_C2, two, 0.01) == [
        81 * 202 + 20 * 20 * 2]
    assert holding_points_handed(cheb.q_corollary_condition, _MN, _IDS, _PR, 0.01) == [
        101 ** 2, 101 * 5151]
    assert holding_points_handed(cheb.q_corollary_condition, _MN, _IDS, _TWIN_CIRC3["prod"],
                                 0.01) == [101 ** 2, 101 ** 3]


def test_only_grids_past_a_block_are_halved():
    # BLOCK_STEPS' 0.02 gives 51^3 points, past _BLOCK, and the halved
    # tests reach the halved layout there; 0.05 gives 21^3, within one
    # block: q's full scan alone runs, and c2's halved one takes the whole
    # grid, from b = 0 on, in its first block
    assert 21 ** 3 <= scan_module._BLOCK < 51 ** 3
    assert row_start_blocks(51, 51)[:2] == [(0, 6), (6, 12)]
    assert holding_points_handed(cheb.check_condition_C2, _ALL_MIN, 0.02) == [
        row_start_points(row_start_blocks(51, 51), 51, 51)]
    assert holding_points_handed(cheb.q_corollary_condition, _MN, _IDS, _PR, 0.02) == [
        51 ** 2, 51 * 1326]
    assert row_start_blocks(21, 21) == [(0, 21)]
    assert holding_points_handed(cheb.check_condition_C2, _ALL_MIN, 0.05) == [21 ** 3]
    assert holding_points_handed(cheb.q_corollary_condition, _MN, _IDS, _PR, 0.05) == [
        21 ** 2, 21 ** 3]


def test_reference_covers_every_outcome():
    """The generators reach holds, violated, hypothesis-failed and raised errors."""
    mn, pr, lu = fusion.min_op(), fusion.prod_op(), fusion.lukasiewicz_op()
    ident = cheb.identity_shape()
    ids = (ident,) * 3
    diff = fusion.expr_op("a - b", "a - b", **_FLAGS)
    narrow = cheb.shape("id-0.8", "x", inverse="x", domain=(0.0, 0.8))
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
def builtin_configs(draw, shapes=SHAPES, cds=CD):
    """Builtin operations, identity and power shapes (the narrow one raises
    past 0.8), a min triangle half the time: min level sets are what prunes."""
    ops = [draw(BUILTINS) for _ in range(6)]
    triangle = _MN if draw(st.booleans()) else ops[5]
    drawn = [draw(shapes) for _ in range(6)]
    return cheb.config(ops[0], ops[1], tuple(ops[2:5]), triangle, tuple(drawn[:3]),
                       tuple(drawn[3:]), k=draw(st.sampled_from([1.0, 0.6])),
                       cd_domain=draw(cds))


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
    # psi2 = psi3 = 1 - x: the right side is largest at (t, t)
    falling = cheb.shape("1-x", "1 - x", domain=(0.0, 1.0))
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
    narrow = cheb.shape("sq-0.8", "x^2", inverse="x^0.5", domain=(0.0, 0.8))
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


def _recorded(fn, *args):
    """(``outcome``, the shapes of the values handed to each separable scan's
    row function u, the shapes of what its ``right`` returned)."""
    real, shapes, right_shapes = scan_module.scan_separable, [], []

    def recording(ab, cd, u, v, p, q, left, right, *rest, **kwargs):
        def row(a):
            shapes.append(np.shape(a))
            return u(a)

        def counted(x, t):
            side = right(x, t)
            right_shapes.append(np.shape(side))
            return side
        return real(ab, cd, row, v, p, q, left, counted, *rest, **kwargs)

    with mock.patch.object(cheb, "scan_separable", recording), \
            mock.patch.object(fusion, "scan_separable", recording):
        return outcome(fn, *args), shapes, right_shapes


def _separable(fn, *args):
    """(``outcome``, the shapes of the values handed to each separable scan's
    row function u)."""
    return _recorded(fn, *args)[:2]


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
    narrow = cheb.shape("sq-0.8", "x^2", inverse="x^0.5", domain=(0.0, 0.8))
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
# Flagged rows of the separable scans confirmed from one (c, d) slab
# ---------------------------------------------------------------------------


def reference_separable(ab, cd, u, v, p, q, left, right, at, evidence, box=None,
                        left_box=None, mirrored=False):
    """The separable scan's row path before a flagged row was confirmed from
    one slab: while at most half of the (c, d) points are maximal, a row whose
    maximal points hold is skipped, and every other row is compared whole, in
    (b, c, d) order, and its first flagged point re-checked.  Every row
    compares every b, mirrored or not."""
    maxima = scan_module._level_set_maxima(v, p, q, box)
    if maxima is not None and 2 * len(maxima[0]) > np.size(v):  # the half rule, for every row
        maxima = None
    keys = np.broadcast_to(p, (len(ab), len(cd)))
    for i in range(len(ab)):
        lhs = left(u(ab[i:i + 1, None])[0][:, None, None], v[None, :, :])
        viol = lhs < right(keys[i][None, :, None], q[:, None, :]) - TOL
        if maxima is not None and not viol[:, maxima[0], maxima[1]].any():
            continue
        if viol.any() and (verdict := scan_module._confirm(viol, ab[i], (ab, cd, cd), at,
                                                           evidence)):
            return verdict
    return Verdict("holds-on-grid", evidence=evidence)


def whole_rows(fn, *args):
    """``outcome`` with every separable scan of ``fn(*args)`` run by ``reference_separable``."""
    with mock.patch.object(cheb, "scan_separable", reference_separable), \
            mock.patch.object(fusion, "scan_separable", reference_separable):
        return outcome(fn, *args)


# {0, 1} and other sets of 2 to 5 exact values, whose few (c, d) points are
# mostly maximal, and intervals, whose rows are too big for a block
SLAB_CD = st.one_of(
    st.just(cheb.cd_values([0.0, 1.0])),
    st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0]), min_size=2, max_size=5,
             unique=True).map(cheb.cd_values),
    st.sampled_from([_UNIT, cheb.cd_interval(0.0, 0.7)]),
)


@settings(max_examples=50, deadline=None)
@given(cfg=builtin_configs(shapes=SAFE_SHAPES, cds=SLAB_CD), outer=BUILTINS, inner=BUILTINS,
       h=st.sampled_from([0.1, 0.05, 0.02]))
@example(cfg=_W_CIRC, outer=fusion.lukasiewicz_op(), inner=_MN, h=0.05)
@example(cfg=replace(_W_CIRC, triangle=_PR, cd_domain=cheb.cd_values([0.0, 0.5, 1.0])),
         outer=_PR, inner=_PR, h=0.02)
def test_slab_confirmed_rows_match_the_whole_row_path(cfg, outer, inner, h):
    assert (outcome(cheb.check_scalar_condition, cfg, h)
            == whole_rows(cheb.check_scalar_condition, cfg, h))
    assert outcome(fusion.dominates, outer, inner, h) == whole_rows(fusion.dominates, outer, inner, h)


def test_a_slab_whose_first_flagged_point_fails_the_recheck_hands_over_to_the_next_row():
    # the first flagged row, a = 0.1, flags first at b = 0.2, where its slab's
    # first flagged point is (1.0, 0.9); ``at`` rejects it.  _W_CIRC is
    # mirror-symmetric, so its halved scan hands the rejected point to the
    # full scan, which goes on to the next flagged row's slab, below the
    # diagonal, as the whole-row path does
    at, rechecked = cheb.scalar_condition_at, []

    def rejecting(cfg, a, b, c, d):
        rechecked.append((a, b, c, d))
        return (1.0, 0.0) if a == 0.1 else at(cfg, a, b, c, d)

    with mock.patch.object(cheb, "scalar_condition_at", rejecting):
        got, _, right_shapes = _recorded(cheb.check_scalar_condition, _W_CIRC, 0.1)
        seen = rechecked[:]
        assert got == whole_rows(cheb.check_scalar_condition, _W_CIRC, 0.1)
        assert got == outcome(reference_c1, _W_CIRC, 0.1)
    assert seen[:2] == [(0.1, 0.2, 1.0, 0.9)] * 2 and len(seen) == 3
    assert got[1].witness == seen[2] == (0.2, 0.1, 0.9, 1.0)
    # the 21 maximal points of min's level sets over 11 b's: the 11 rows are
    # one block, whose first row is 0, in the halved scan and in the full one
    assert right_shapes == [(11, 21, 11), (11, 11)] * 2 + [(11, 11)]


def _scenario_config(name):
    return build_config(load_scenario(name)["config"])


def test_a_flagged_row_evaluates_right_on_one_slab():
    # at h = 0.01 a unit-interval row has 201 maximal points of 101^2, too
    # many over 101 b's for half a block: rows 0 and 0.01 compare their
    # maximal points alone, over b >= a in the mirror-symmetric config, and
    # the witness row, a = 0.01, then evaluates right on its one 101^2 slab,
    # at b = 0.02
    got, _, right_shapes = _recorded(cheb.check_scalar_condition,
                                     _scenario_config("w-chebyshev-unit-interval"), 0.01)
    assert got[1].witness == (0.01, 0.02, 1.0, 0.99)
    assert right_shapes == [(1, 201, 101), (1, 201, 100), (101, 101)]


def test_a_mostly_maximal_row_that_fits_half_a_block_is_compared_in_blocks():
    # over {0, 1}, 3 of the 4 (c, d) points are maximal, and 3 x 101 points
    # fit half a block 54 times: no row is compared whole.  The config is
    # mirror-symmetric, so the second block, from row 54, compares the 47
    # values b >= 0.54 of its 47 rows
    got, shapes, right_shapes = _recorded(cheb.check_scalar_condition,
                                          _scenario_config("w-chebyshev-two-valued"), 0.01)
    assert got[1].holds and scan_module._BLOCK // 2 // (3 * 101) == 54
    assert shapes == [(54, 1), (47, 1)]
    assert right_shapes == [(54, 3, 101), (47, 3, 47)]


# ---------------------------------------------------------------------------
# Mirror-symmetric c1 and dominates: the halved separable scans
# ---------------------------------------------------------------------------


def separable_points(fn, *args):
    """``outcome(fn, *args)`` and the points ``right`` evaluates in each of
    its separable scans, one total per scan: a halved scan that hands over
    to the full scan counts both."""
    real, totals = scan_module.scan_separable, []

    def counting(ab, cd, u, v, p, q, left, right, *rest, **kwargs):
        totals.append(0)

        def counted(x, t):
            side = right(x, t)
            totals[-1] += np.size(side)
            return side
        return real(ab, cd, u, v, p, q, left, counted, *rest, **kwargs)

    with mock.patch.object(cheb, "scan_separable", counting), \
            mock.patch.object(fusion, "scan_separable", counting):
        return outcome(fn, *args), totals


def halved_maxima_points(kept, n):
    """The points of a halved maxima pass that flags nowhere: ``kept``
    maximal (c, d) points over the b from each block's first row on, in
    blocks of as many of the n rows as fit in half of ``_BLOCK``."""
    total, i = 0, 0
    while i < n:
        rows = min(max(scan_module._BLOCK // 2 // (kept * (n - i)), 1), n - i)
        total, i = total + rows * kept * (n - i), i + rows
    return total


@st.composite
def mirrored_configs(draw):
    """``builtin_configs`` tied to be symmetric under (a, b, c, d) -> (b, a,
    d, c): inner, outer and the triangle commuting builtins, phi3 := phi2,
    psi3 := psi2 and circ3 := circ2.  phi1 and psi1 may be the narrow shape."""
    cfg = draw(builtin_configs())
    return replace(cfg, inner=draw(COMMUTING), outer=draw(COMMUTING),
                   triangle=draw(COMMUTING), phi3=cfg.phi2, psi3=cfg.psi2, circ3=cfg.circ2)


_SQ = cheb.power_shape(2)
# phi1 = x^2 on [0, 0.8] and phi2 = phi3 = x^2 on [0, 1]: the all-min
# condition min(a^2, b^2, c, d) >= min(a^2, b^2, c, d) holds up to the row
# a = 0.8 + h, where phi1 first fails
_NARROW_PHI1 = replace(_ALL_MIN, phi1=_NARROW, phi2=_SQ, phi3=_SQ)


@settings(max_examples=60, deadline=None)
@given(cfg=mirrored_configs(), h=st.sampled_from([0.1, 0.05, 0.02]), rejected=REJECTED)
@example(cfg=_ALL_MIN, h=0.02, rejected=None)  # holds
@example(cfg=_W_CIRC, h=0.02, rejected=None)  # violated
@example(cfg=_W_CIRC, h=0.05, rejected=0.1)  # the full scan's witness lies below the diagonal
@example(cfg=_NARROW_PHI1, h=0.02, rejected=None)
def test_halved_c1_matches_the_reference(cfg, h, rejected):
    with rejecting_below("scalar_condition_at", rejected, arg=-4):
        got = outcome(cheb.check_scalar_condition, cfg, h)
        assert got == outcome(reference_c1, cfg, h)
        assert got == whole_rows(cheb.check_scalar_condition, cfg, h)


# a pointwise expression outer is halved, a piecewise one is not
_AB = fusion.expr_op("ab", "a*b", **_FLAGS)
_AB_PIECEWISE = fusion.expr_op("ab-pw", "piecewise a { [0, 1]: a*b }", **_FLAGS)


@settings(max_examples=60, deadline=None)
@given(outer=st.one_of(BUILTINS, _expr_ops(_EXPRS + _RISKY)), inner=COMMUTING,
       h=st.sampled_from([0.1, 0.05, 0.02]))
@example(outer=_PR, inner=_PR, h=0.05)  # holds
@example(outer=fusion.lukasiewicz_op(), inner=_MN, h=0.02)  # violated
@example(outer=_AB, inner=_PR, h=0.05)
def test_halved_dominates_matches_the_reference(outer, inner, h):
    got = outcome(fusion.dominates, outer, inner, h)
    assert got == outcome(reference_dominates, outer, inner, h)
    assert got == whole_rows(fusion.dominates, outer, inner, h)


def test_halved_separable_scans_hand_right_about_half_the_points():
    # at h = 0.01 all-min rows compare 201 maximal (c, d) points each; the
    # halved scan takes b >= a in blocks packed by their width, against
    # 101^2 b's and rows in the twin, whose circ3 is an expression
    twin = replace(_ALL_MIN, circ3=_TWIN_CIRC3["min"])
    for h, n in [(0.01, 101), (0.02, 51)]:
        got, totals = separable_points(cheb.check_scalar_condition, _ALL_MIN, h)
        assert got[1].holds and totals == [halved_maxima_points(2 * n - 1, n)]
        assert separable_points(cheb.check_scalar_condition, twin, h)[1] == [(2 * n - 1) * n * n]
    assert halved_maxima_points(201, 101) == 1046607 < 1.02 * 201 * 5151
    # dominates with a pointwise outer halves; its piecewise twin does not
    got, totals = separable_points(fusion.dominates, _AB, _PR, 0.05)
    assert got[1].holds and totals == [102108]
    assert separable_points(fusion.dominates, _AB_PIECEWISE, _PR, 0.05)[1] == [177282]


def test_a_rejected_halved_separable_recheck_hands_over_to_the_full_scan():
    # _W_CIRC flags first at (0.05, 0.1, 1.0, 0.95); with that re-check
    # rejected, the full scan's next flagged row holds its mirror, below the
    # diagonal.  The halved scan hands over, and both scans' points count
    at, rechecked = cheb.scalar_condition_at, []

    def rejecting(cfg, a, b, c, d):
        rechecked.append((a, b, c, d))
        return (1.0, 0.0) if a == 0.05 else at(cfg, a, b, c, d)

    twin = replace(_W_CIRC, circ3=_TWIN_CIRC3["lukasiewicz"])
    with mock.patch.object(cheb, "scalar_condition_at", rejecting):
        got, full = separable_points(cheb.check_scalar_condition, twin, 0.05)
        assert rechecked == [(0.05, 0.1, 1.0, 0.9500000000000001),
                             (0.1, 0.05, 0.9500000000000001, 1.0)]
        del rechecked[:]
        halved, totals = separable_points(cheb.check_scalar_condition, _W_CIRC, 0.05)
        assert rechecked == [(0.05, 0.1, 1.0, 0.9500000000000001)] * 2 + [
            (0.1, 0.05, 0.9500000000000001, 1.0)]
        want = outcome(reference_c1, _W_CIRC, 0.05)
    assert halved == got == want and got[1].witness == (0.1, 0.05, 0.9500000000000001, 1.0)
    assert totals[0] > full[0]


def test_a_halved_scans_shape_error_is_the_full_scans():
    # phi1 fails first in row a = 0.82, at b = 0.82; the halved scan meets
    # it and hands over, and the full scan's error names the same value
    twin = replace(_NARROW_PHI1, circ3=_TWIN_CIRC3["min"])
    got, full = separable_points(cheb.check_scalar_condition, twin, 0.02)
    halved, totals = separable_points(cheb.check_scalar_condition, _NARROW_PHI1, 0.02)
    assert halved == got == outcome(reference_c1, _NARROW_PHI1, 0.02)
    assert got[1].detail == "the value sq-0.8(0.8200000000000001) is not defined (domain [0.0, 0.8])"
    assert totals[0] > full[0]


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
