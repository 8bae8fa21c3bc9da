import copy
import operator
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebint import fusion, randgen
from chebint.dependence import measure_supports_all_pairs
from chebint.measure import (MAX_SCAN_ATOMS, FiniteSpace, MeasureError,
                             MonotoneMeasure,
                             distorted_probability, dual, from_table,
                             is_minitive, is_subadditive, is_supermodular,
                             necessity_from_possibility, space,
                             survival_scenario)
from chebint.exprlang import EvalError, eval_expr, parse
from chebint.scan import _BLOCK, EQ_TOL, TOL


@pytest.fixture
def two_atoms():
    return space("a1", "a2")


class TestFiniteSpace:
    def test_mask_roundtrip(self, two_atoms):
        mask = two_atoms.mask_of(["a2"])
        assert mask == 0b10
        assert two_atoms.labels_of(mask) == ("a2",)

    def test_unknown_label(self, two_atoms):
        with pytest.raises(MeasureError):
            two_atoms.mask_of(["zz"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(MeasureError):
            FiniteSpace(("a", "a"))


class TestFromTable:
    def test_basic(self, two_atoms):
        m = from_table(two_atoms, [0.0, 0.9, 0.0, 1.0])
        assert m(0b01) == 0.9
        assert m.is_capacity
        assert m.value_range() == (0.0, 0.9, 1.0)

    def test_monotonicity_enforced(self, two_atoms):
        with pytest.raises(MeasureError, match="monotonicity"):
            from_table(two_atoms, [0.0, 0.9, 0.0, 0.5])

    def test_empty_set_must_be_zero(self, two_atoms):
        with pytest.raises(MeasureError):
            from_table(two_atoms, [0.1, 0.9, 0.2, 1.0])

    # a generator was read twice: the error path found it consumed and the
    # bare ValueError of float('x') escaped
    @pytest.mark.parametrize("wrap", [list, tuple, iter, lambda vs: (v for v in vs)])
    def test_a_non_number_is_named_however_the_entries_come(self, two_atoms, wrap):
        with pytest.raises(MeasureError, match=r"^measure value m\(\('a1',\)\) at mask 1 "
                                               r"is not a number: 'x'$"):
            from_table(two_atoms, wrap([0.0, "x", 0.5, 1.0]))
        assert from_table(two_atoms, wrap([0.0, 0.3, 0.5, 1.0])).table == (0.0, 0.3, 0.5, 1.0)

    def test_value_range_dedups(self, two_atoms):
        m = from_table(two_atoms, [0.0, 0.4, 0.4, 1.0])
        assert m.value_range() == (0.0, 0.4, 1.0)

    def test_values_is_one_read_only_float64_view_of_the_table(self, two_atoms):
        m = from_table(two_atoms, [-0.0, 0.9, 0.0, 1.0])
        values = m.values
        assert values.dtype == np.float64 and not values.flags.writeable
        with pytest.raises(ValueError):
            values[1] = 0.5
        # bit for bit: -0.0 == 0.0, so the values alone would not tell them apart
        bits = [struct.unpack("=q", struct.pack("=d", v))[0] for v in m.table]
        assert values.view(np.int64).tolist() == bits
        assert np.signbit(values).tolist() == [True, False, False, False]
        assert m.values is values

    def test_values_leaves_equality_and_hash_alone(self, two_atoms):
        built, twin = (from_table(two_atoms, [0.0, 0.9, 0.0, 1.0]) for _ in range(2))
        built.values  # builds the view on one of the two
        assert "values" in vars(built) and "values" not in vars(twin)
        assert built == twin and hash(built) == hash(twin) and repr(built) == repr(twin)

    # a copy carried the built view over, writeable: writing to it left the
    # table, and so equality, as they were
    @pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)),
                                       copy.copy, copy.deepcopy])
    def test_a_copy_builds_its_own_read_only_view(self, two_atoms, clone):
        m = from_table(two_atoms, [-0.0, 0.3, 0.5, 1.0])
        m.values  # built before the copy
        twin = clone(m)
        assert "values" not in vars(twin) and twin == m
        assert not twin.values.flags.writeable and twin.values is not m.values
        assert twin.values.view(np.int64).tolist() == m.values.view(np.int64).tolist()


class TestNecessity:
    def test_minitive(self):
        sp = space("x1", "x2", "x3")
        m = necessity_from_possibility(sp, [1.0, 0.7, 0.4])
        assert is_minitive(m)
        # full set has measure 1, complement of the pi=1 atom has measure 0
        assert m(sp.full_mask) == 1.0
        assert m(sp.mask_of(["x2", "x3"])) == 0.0

    def test_requires_normalized_possibility(self):
        sp = space("x1", "x2")
        with pytest.raises(MeasureError):
            necessity_from_possibility(sp, [0.5, 0.7])

    def test_table_matches_the_per_mask_loop(self):
        # the loop the doubling construction replaced, kept as the reference
        def reference(pi):
            n = len(pi)
            table = []
            for mask in range(1 << n):
                outside = [pi[i] for i in range(n) if not mask & (1 << i)]
                table.append(1.0 - (max(outside) if outside else 0.0))
            return table

        rng = np.random.default_rng(11)
        for n in range(1, 13):
            # values drawn from a short list, so ties and zeros occur
            pi = rng.choice([0.0, 0.25, 0.3, 0.7, 1.0], size=n).tolist()
            pi[int(rng.integers(n))] = 1.0
            for values in (pi, [1.0] + rng.uniform(size=n - 1).tolist()):
                m = necessity_from_possibility(space(*(f"x{i}" for i in range(n))), values)
                assert np.array_equal(np.array(m.table).view(np.int64),
                                      np.array(reference(values)).view(np.int64)), (n, values)


    @settings(max_examples=60, deadline=None)
    @given(pi=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6), data=st.data())
    def test_minitive_for_random_possibilities(self, pi, data):
        # the constructor no longer checks this itself: top is an exact max
        # and 1 - t is monotone, so it cannot fail
        pi[data.draw(st.integers(0, len(pi) - 1))] = data.draw(st.sampled_from(
            [1.0, 1.0 - 5e-13, 1.0 - EQ_TOL]))
        m = necessity_from_possibility(space(*(f"x{i}" for i in range(len(pi)))), pi)
        assert is_minitive(m) and m(0) == 0.0


class TestEmptySetWithinTolerance:
    """Inputs normalised within a constructor's own tolerance used to fail
    from_table's exact m(empty set) = 0 check with a value never written."""

    def test_necessity(self):
        m = necessity_from_possibility(space("x", "y"), [1 - 5e-13, 0.3])
        assert m.table[0] == 0.0 and is_minitive(m)

    @pytest.mark.parametrize("top", [1 - 5e-13, 1 + 5e-13])
    def test_dual(self, top):
        m = dual(from_table(space("x", "y"), [0.0, 0.5, top, top]))
        assert m.table == (0.0, max(1.0 - top, 0.0), 0.5, 1.0)

    def test_distorted(self):
        m = distorted_probability(space("x", "y"), [0.4, 0.6], "x^2 + 1e-10*(1-x)")
        assert m.table[0] == 0.0 and m.table[-1] == 1.0


class TestDistorted:
    def test_supermodular(self):
        sp = space("x1", "x2", "x3")
        m = distorted_probability(sp, [0.2, 0.3, 0.5], "x^2")
        assert is_supermodular(m)
        assert m(sp.full_mask) == pytest.approx(1.0)
        assert m(sp.mask_of(["x3"])) == pytest.approx(0.25)

    def test_dual_of_supermodular_is_subadditive(self):
        sp = space("x1", "x2", "x3")
        m = distorted_probability(sp, [0.2, 0.3, 0.5], "x^2")
        assert is_subadditive(dual(m))

    def test_concave_distortion_rejected(self):
        sp = space("x1", "x2")
        for _ in range(2):  # the checks are memoised per expression; a failure is not
            with pytest.raises(MeasureError, match=r"^h must be convex \(grid check failed\)$"):
                distorted_probability(sp, [0.5, 0.5], "sqrt(x)")

    def test_distortion_endpoints(self):
        sp = space("x1", "x2")
        with pytest.raises(MeasureError):
            distorted_probability(sp, [0.5, 0.5], "0.5*x")

    def test_table_matches_the_per_mask_loop(self):
        # the loop the doubling sums replaced, kept as the reference, with its
        # sum() written out as the left-to-right addition of Python 3.11
        # (from 3.12 on, sum() of floats compensates rounding)
        def reference(p, h):
            n = len(p)
            table = []
            for mask in range(1 << n):
                prob = 0.0
                for i in range(n):
                    if mask & (1 << i):
                        prob += p[i]
                table.append(float(eval_expr(parse(h), {"x": min(prob, 1.0)})))
            return table

        rng = np.random.default_rng(12)
        for n in range(1, 13):
            w = rng.uniform(size=n)
            p = (w / w.sum()).tolist()
            for h in ("x^2", "x^3"):
                m = distorted_probability(space(*(f"x{i}" for i in range(n))), p, h)
                assert np.array_equal(np.array(m.table).view(np.int64),
                                      np.array(reference(p, h)).view(np.int64)), (n, h)


class TestDual:
    def test_involution(self, two_atoms):
        m = from_table(two_atoms, [0.0, 0.3, 0.5, 1.0])
        assert dual(dual(m)).table == pytest.approx(m.table)

    def test_values(self, two_atoms):
        m = from_table(two_atoms, [0.0, 0.3, 0.5, 1.0])
        d = dual(m)
        assert d(0b01) == pytest.approx(0.5)
        assert d(0b10) == pytest.approx(0.7)


class TestSurvivalScenario:
    def test_partition_validation(self):
        with pytest.raises(MeasureError):
            survival_scenario(1.0, [("[0, 0.5]", "1"), ("[0.5, 1]", "0")])
        with pytest.raises(MeasureError):
            survival_scenario(1.0, [("[0, 0.5]", "1"), ("(0.6, 1]", "0")])

    def test_nonincreasing_validation(self):
        with pytest.raises(MeasureError, match="increases"):
            survival_scenario(1.0, [("[0, 1]", "t")])

    def test_negative_rejected(self):
        with pytest.raises(MeasureError, match="negative"):
            survival_scenario(1.0, [("[0, 1]", "0.5 - t")])

    def test_g_value(self):
        sv = survival_scenario(1.0, [("[0, 0.25]", "1 - t"), ("(0.25, 1]", "0")])
        assert sv.g_value(0.1) == pytest.approx(0.9)
        assert sv.g_value(0.6) == 0.0

    def test_degenerate_first_segment(self):
        sv = survival_scenario(1.0, [("[0, 0]", "1"), ("(0, 1]", "0")])
        assert sv.g_value(0.0) == 1.0
        assert sv.g_value(0.5) == 0.0


# ---------------------------------------------------------------------------
# Differential tests: the array paths against the loops they replaced
# ---------------------------------------------------------------------------


def reference_from_table(sp, entries):
    """from_table's checks as a gather per bit (the former implementation)."""
    size = 1 << sp.n
    table = [float(v) for v in entries]
    if len(table) != size:
        raise MeasureError(f"measure table needs {size} entries, got {len(table)}")
    if table[0] != 0.0:
        raise MeasureError(f"m(empty set) must be 0, got {table[0]}")
    if not table[size - 1] > 0.0:
        raise MeasureError("m(X) must be positive")
    if any(v < 0.0 for v in table):
        raise MeasureError("measure values must be nonnegative")
    arr = np.asarray(table)
    masks = np.arange(size)
    for bit in range(sp.n):
        sup = masks | (1 << bit)
        bad = arr[masks] > arr[sup] + EQ_TOL
        if np.any(bad):
            a = int(masks[bad][0])
            raise MeasureError(
                f"monotonicity violation: m({sp.labels_of(a)})={arr[a]} > "
                f"m({sp.labels_of(a | (1 << bit))})={arr[a | (1 << bit)]}"
            )
    return MonotoneMeasure(sp, tuple(table))


def reference_value_range(table):
    """The greedy dedupe loop over the sorted table."""
    vals = sorted(table)
    out = [vals[0]]
    for v in vals[1:]:
        if v - out[-1] > EQ_TOL:
            out.append(v)
    return tuple(out)


def outcome(build, sp, table):
    try:
        return "ok", repr(build(sp, table).table)
    except MeasureError as exc:
        return "error", str(exc)


def atoms(n):
    return space(*(f"a{i}" for i in range(n)))


def additive_table(rng, n):
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)[None, :]) & 1
    w = rng.uniform(0.1, 1.0, n)
    return (bits @ w / w.sum()).tolist()


def inject(rng, table):
    """Break the table in one of the ways from_table must reject (or just
    within EQ_TOL, which it must accept)."""
    size = len(table)
    table = list(table)
    kind = rng.integers(6)
    a = int(rng.integers(1, size - 1)) if size > 2 else 1
    if kind == 0:  # a set above one of its supersets
        table[a] = table[-1] * rng.uniform(1.01, 2.0)
    elif kind == 1:  # a set below one of its subsets
        table[a] = table[a] * rng.uniform(0.0, 0.5)
    elif kind == 2:  # several swapped entries
        for _ in range(3):
            i, j = (int(v) for v in rng.integers(1, size, 2))
            table[i], table[j] = table[j], table[i]
    elif kind == 3:  # negative entry
        table[a] = -rng.uniform(0.0, 1.0)
    elif kind == 4:  # boundary conditions
        if rng.integers(2):
            table[0] = rng.uniform(1e-6, 0.1)
        else:
            table[-1] = -table[-1] * rng.integers(2)
    else:  # a superset lower than a subset by about EQ_TOL
        b = 1 << int(rng.integers(int(size).bit_length() - 1))
        a &= ~b
        table[a | b] = table[a] - EQ_TOL * rng.choice([0.5, 2.0])
    return table


class TestArrayPathsMatchLoops:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_from_table_messages(self, n):
        rng = np.random.default_rng(1000 + n)
        sp = atoms(n)
        base = additive_table(rng, n)
        assert outcome(from_table, sp, base) == outcome(reference_from_table, sp, base)
        for _ in range(12):
            table = inject(rng, base)
            want = outcome(reference_from_table, sp, table)
            assert outcome(from_table, sp, table) == want
            if want[0] == "error":
                dict_entries = dict(enumerate(table))
                assert outcome(from_table, sp, dict_entries) == want

    def test_from_table_large(self):
        rng = np.random.default_rng(16)
        sp = atoms(16)
        base = additive_table(rng, 16)
        # above its supersets in low and high bits; then, for each bit, the
        # mask without only that bit above its one superset X
        full = (1 << 16) - 1
        planted = [(0b0111_1111_0000_0000, 0.99)] + [(full ^ 1 << bit, 1.01) for bit in range(16)]
        for mask, share in planted:
            table = list(base)
            table[mask] = share * table[-1]
            want = outcome(reference_from_table, sp, table)
            assert want[0] == "error" and "monotonicity" in want[1]
            assert outcome(from_table, sp, table) == want
        m = from_table(sp, base)
        assert repr(m.value_range()) == repr(reference_value_range(m.table))

    @pytest.mark.parametrize("value", [float("nan"), None, "abc", [0.5], 10 ** 400])
    def test_from_table_rejects_non_numbers(self, two_atoms, value):
        with pytest.raises(MeasureError, match=r"m\(\('a1',\)\) at mask 1"):
            from_table(two_atoms, [0.0, value, 0.4, 1.0])

    def test_nan_after_earlier_errors(self, two_atoms):
        # a table that already failed another check keeps its old message
        with pytest.raises(MeasureError, match="nonnegative"):
            from_table(two_atoms, [0.0, float("nan"), -0.4, 1.0])
        with pytest.raises(MeasureError, match="monotonicity"):
            from_table(two_atoms, [0.0, float("nan"), 0.9, 0.5])

    @pytest.mark.parametrize("size", [4, 2048])
    @pytest.mark.parametrize("kind", ["signed-zeros", "duplicates", "sub-tol-chains",
                                      "distinct", "mixed"])
    def test_value_range(self, size, kind):
        rng = np.random.default_rng(size)
        if kind == "signed-zeros":
            vals = rng.choice([0.0, -0.0, 0.25, 1.0], size)
        elif kind == "duplicates":
            vals = rng.choice(rng.uniform(0, 1, 7), size)
        elif kind == "sub-tol-chains":
            # steps of 0.4 EQ_TOL: the greedy rule keeps every third value
            vals = rng.choice([0.0, 0.5], size) + 0.4 * EQ_TOL * rng.integers(0, 40, size)
        elif kind == "distinct":
            vals = rng.permutation(size) / size
        else:
            vals = np.concatenate([rng.uniform(0, 1, size // 2),
                                   0.5 + 0.7 * EQ_TOL * np.arange(size - size // 2)])
        m = MonotoneMeasure(atoms(int(size).bit_length() - 1), tuple(vals.tolist()))
        got, want = m.value_range(), reference_value_range(m.table)
        assert repr(got) == repr(want)
        # the table's own floats, not copies: 2^20 new floats cost about 24 MB
        assert all(map(operator.is_, got, want))


def reference_first_rows(m):
    """Whole rows of int64 masks, one row at a time: the first mask C whose row
    breaks each pair predicate, or None where it holds."""
    tab = np.asarray(m.table)
    masks = np.arange(len(tab), dtype=np.int64)
    first = dict.fromkeys(["minitive", "subadditive", "supermodular"])
    for c in range(len(tab)):
        inter, union, pair_sum = tab[c & masks], tab[c | masks], tab[c] + tab
        holds = {"minitive": np.all(np.abs(inter - np.minimum(tab[c], tab)) <= EQ_TOL),
                 "subadditive": np.all(union <= pair_sum + EQ_TOL),
                 "supermodular": np.all(union + inter >= pair_sum - EQ_TOL)}
        for name, ok in holds.items():
            if not ok and first[name] is None:
                first[name] = c
    return first


def scanned_predicates(m):
    return {"minitive": is_minitive(m), "subadditive": is_subadditive(m),
            "supermodular": is_supermodular(m)}


def planted(name, n, last):
    """A table on n atoms that breaks predicate ``name`` inside the first or
    the ``last`` row block of the pair scans, and nowhere else.

    Both blocks are closed under & and |: the first holds the subsets of the
    low bits, the last the supersets of the high bits.
    """
    rows = _BLOCK >> n
    low = rows - 1
    top = (1 << n) - 1 if last else low  # the largest mask of the block
    masks = np.arange(1 << n)
    inside = masks >= top - low if last else masks <= low
    if name == "minitive":
        # a necessity measure whose low atoms are the least possible: every
        # mask outside the last block has a lower value than those inside
        pi = [0.1 + 0.05 * i for i in range(rows.bit_length() - 1)]
        table = list(necessity_from_possibility(atoms(n), pi + np.linspace(
            0.6, 1.0, n - len(pi)).tolist()).table)
        bottom = top - low if last else 1
        table[bottom] += 0.01
    elif name == "subadditive":
        # m(top) > m(C) + m(D) only for the pairs of the block that join to top
        table = np.where(inside, 1.0, 1.2)
        table[0], table[top] = 0.0, 2.1
    else:
        # P^2 has slack 2 P(C - D) P(D - C): about 2e-6 where C and D differ
        # only in low atoms, above 2e-4 otherwise
        w = np.where(np.arange(n) < rows.bit_length() - 1, 1e-3, 1.0)
        bits = (masks[:, None] >> np.arange(n)[None, :]) & 1
        table = (bits @ (w / w.sum())) ** 2
        table[top] -= 1e-5
    return MonotoneMeasure(atoms(n), tuple(np.asarray(table, dtype=float).tolist()))


@pytest.mark.parametrize("n", range(1, 10))
def test_pair_scans_match_int64_reference(n):
    rng = np.random.default_rng(2000 + n)
    sp = atoms(n)
    measures = [necessity_from_possibility(sp, randgen.random_possibility(rng, sp)),
                randgen.random_monotone_measure(rng, sp),
                MonotoneMeasure(sp, tuple(additive_table(rng, n)))]
    for m in measures:
        first = reference_first_rows(m)
        assert scanned_predicates(m) == {name: row is None for name, row in first.items()}
        tab = np.asarray(m.table)
        masks = np.arange(1 << n, dtype=np.int64)
        short = np.argwhere(tab[masks[:, None] & masks[None, :]] < tab[:, None] * tab[None, :] - TOL)
        verdict = measure_supports_all_pairs(m, fusion.prod_op(), allow_range_escape=True)
        if short.size:
            i, j = (int(v) for v in short[0])
            assert verdict.witness == (sp.labels_of(i), sp.labels_of(j))
        else:
            assert verdict.holds


@pytest.mark.parametrize("n", [10, 11, 12])
@pytest.mark.parametrize("last", [False, True], ids=["first-block", "last-block"])
def test_pair_scans_find_a_violation_planted_in_one_row_block(n, last):
    rows = _BLOCK >> n
    for name in ("minitive", "subadditive", "supermodular"):
        m = planted(name, n, last)
        first = reference_first_rows(m)
        block = first[name] // rows
        assert block == ((1 << n) // rows - 1 if last else 0), (name, first)
        assert scanned_predicates(m) == {key: row is None for key, row in first.items()}


def test_supports_all_pairs_witness_is_first_in_whole_rows():
    # only C = X has m(C) = 1, so godel_contra (a if a > 1 - b) is broken only
    # in the last row, and first at D = {a0} < C
    sp = atoms(10)
    masks = np.arange(1 << 10)
    table = np.where(masks & 1, 0.3 + 0.1 * (masks >> 1 & 1), 0.0)
    table[-1] = 1.0
    m = MonotoneMeasure(sp, tuple(table.tolist()))
    tri = fusion.godel_contra_op()
    short = np.argwhere(table[masks[:, None] & masks[None, :]]
                        < fusion.apply_op(tri, table[:, None], table[None, :]) - TOL)
    assert short[0].tolist() == [1023, 1]
    verdict = measure_supports_all_pairs(m, tri)
    assert (verdict.witness, verdict.lhs, verdict.rhs) == (
        (sp.labels_of(1023), sp.labels_of(1)), 0.3, 1.0)


def test_supports_all_pairs_keeps_an_expression_error_after_the_witness():
    # m(C) is the largest weight in C; 0.5 is m(C) only for masks with a7 and
    # without a0, all in the second row block of n = 8.  The first branch
    # divides by 0.5 - a over every point once any point takes it, so the
    # whole table raises, though neither block does on its own
    sp = atoms(8)
    w = np.array([0.6, 0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.5])
    masks = np.arange(1 << 8)
    table = np.where((masks[:, None] >> np.arange(8)) & 1, w, 0.0).max(axis=1)
    m = MonotoneMeasure(sp, tuple(table.tolist()))
    tri = fusion.expr_op("split", "piecewise a { [0, 0.5): 0 / (0.5 - a) ; [0.5, 1]: b }")
    rows = _BLOCK >> 8
    first = fusion.apply_op(tri, table[:rows, None], table[None, :])
    assert np.any(table[masks[:rows, None] & masks] < first - TOL)
    fusion.apply_op(tri, table[rows:, None], table[None, :])
    with pytest.raises(EvalError, match="division by zero"):
        measure_supports_all_pairs(m, tri, allow_range_escape=True)


def test_pair_scans_at_max_atoms_hold_small_blocks():
    # 4^12 pairs: a whole-table pass holds 16.8M-entry index and value
    # tables; the row blocks hold about _BLOCK pairs each
    n = MAX_SCAN_ATOMS
    sp = atoms(n)
    rng = np.random.default_rng(12)
    pi = randgen.random_possibility(rng, sp)
    necessity = necessity_from_possibility(sp, pi)
    masks = np.arange(1 << n)
    possibility = np.where((masks[:, None] >> np.arange(n)) & 1, pi, 0.0).max(axis=1)
    possibility = MonotoneMeasure(sp, tuple(possibility.tolist()))
    squared = MonotoneMeasure(sp, tuple((np.array(additive_table(rng, n)) ** 2).tolist()))
    checks = [(is_minitive, necessity), (is_subadditive, possibility),
              (is_supermodular, squared),
              (lambda m: measure_supports_all_pairs(m, fusion.min_op()).holds, necessity)]
    for check, m in checks:
        tracemalloc.start()
        try:
            assert check(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * _BLOCK * 8
