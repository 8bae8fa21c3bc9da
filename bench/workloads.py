"""The four benchmark workloads, driven through chebint's public API.

A workload is a fixed list of ops built from a seed.  An op is one unit of
work: one scenario run, one random instance check, one scan or one sweep
item.  Each op's result goes through its check; a wrong answer, an
unexpected exception or a timeout counts as a failed op.

Ops look up library functions through their modules at call time
(``cheb.check_scalar_condition(...)``), never through names bound at set-up,
so the traced run sees every call after it wraps the module attributes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from chebint import chebyshev as cheb
from chebint import dependence as dep
from chebint import fusion, integral, measure, randgen, scenarios

HERE = Path(__file__).resolve().parent
ORACLE_STEP = 1e-3
MATCH_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    kind: str  # op class, used in failure messages and op mixes
    run: Callable[[], object]
    check: Callable[[object], str | None]  # returns a problem, or None


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    # Fixed tail percentile: the highest one that sits inside the costliest
    # op class and keeps >= 10 samples beyond it at the minimum pass count.
    tail_pct: float
    repro: str  # bundled scenario timed through the command line
    # Weights of the reference kernels that match this workload (speed.py).
    reference: dict


def _close(got, want, tol=MATCH_TOL):
    if want is None or got is None:
        return got is None and want is None
    return len(got) == len(want) and all(abs(g - w) <= tol for g, w in zip(got, want))


def _call(owner, name, *args):
    """Call owner.name(*args), looking the name up only now (see the module doc)."""
    return getattr(owner, name)(*args)


def _problem(ok, message):
    return None if ok else message


# ---------------------------------------------------------------------------
# scenario-suite: every bundled scenario, checked against its expect block
# ---------------------------------------------------------------------------


def check_expect(result, expect):
    """Compare a (exit code, report) pair with a bundled `expect` block."""
    code, report = result
    if code != expect["exit_code"]:
        return f"exit code {code}, expected {expect['exit_code']}"
    tol = expect.get("tol", MATCH_TOL)
    for key, want in expect.items():
        if key in ("exit_code", "tol", "rhs_tol"):
            continue
        if key == "status":
            ok = report.get("status", report.get("verdict")) == want
        elif key in ("lhs", "rhs"):
            ok = abs(report[key] - want) <= expect.get(f"{key}_tol", tol)
        elif key == "witness":
            ok = _close(report.get("witness"), want)
        elif key == "holds":
            ok = report.get("holds") is want
        elif key == "values":
            ok = all(abs(report["integrals"][k]["value"] - v) <= tol for k, v in want.items())
        elif key == "cited_value":
            ok = f"({want})" in " ".join(s.get("detail", "") for s in report.get("stages", ()))
        else:
            return f"unknown expect key {key!r}"
        if not ok:
            return f"expect {key}={want!r} not met"
    return None


def _run_bundled(name):
    return scenarios.run_scenario(scenarios.load_scenario(name))


def scenario_suite(seed):
    """The bundled scenarios in name order.  They are fixed inputs, so the seed
    is unused: a seeded order would move the small scenarios relative to the
    large grid, whose freed memory slows whatever runs next."""
    names = scenarios.list_scenarios()
    ops = tuple(Op(name, partial(_run_bundled, name),
                   partial(check_expect, expect=scenarios.load_scenario(name)["expect"]))
                for name in names)
    # The 101^4-point min-dominates-lukasiewicz grid is 1 op in 19 (5.3%).
    # Small Python-bound scenarios beside one numpy grid that takes most of the pass.
    return Workload("scenario-suite", ops, 96.0, "counterexample-daraby-ghadimi",
                    {"python": 0.5, "flat": 0.5})


# ---------------------------------------------------------------------------
# grid-scan: the h-axis sweep over the scan kernels
# ---------------------------------------------------------------------------

GRID_STEPS = (0.05, 0.02, 0.01)


def _verdict_outcome(v):
    return {"status": v.status, "witness": list(v.witness) if v.witness else None,
            "lhs": v.lhs, "rhs": v.rhs}


def _grid_outcome(v):
    return {"status": "holds-on-grid" if v.holds else "violated",
            "witness": list(v.witness) if v.witness else None,
            "lhs": v.lhs, "rhs": v.rhs}


def _search_outcome(witness):
    return {"status": "witness-found" if witness else "no-witness",
            "witness": list(witness) if witness else None, "lhs": None, "rhs": None}


def check_recorded(result, want):
    for key in ("status", "witness", "lhs", "rhs"):
        got, exp = result[key], want[key]
        if key == "status":
            ok = got == exp
        elif key == "witness":
            ok = _close(got, exp)
        else:
            ok = (got is None and exp is None) or (
                got is not None and exp is not None and abs(got - exp) <= MATCH_TOL)
        if not ok:
            return f"{key} {got!r}, recorded {exp!r}"
    return None


def grid_scan_specs():
    """(label, thunk) pairs; each thunk returns an outcome dict."""
    mn, pr, lu = fusion.min_op(), fusion.prod_op(), fusion.lukasiewicz_op()
    godel = fusion.godel_op()
    ident = cheb.identity_shape()
    ids = (ident, ident, ident)
    sq, rt = cheb.power_shape(2), cheb.power_shape(0.5)
    unit = cheb.cd_interval(0.0, 1.0)
    all_min = cheb.config(mn, mn, (mn, mn, mn), mn, ids, ids, cd_domain=unit)
    squares = cheb.config(pr, pr, (mn, mn, mn), mn, (sq, sq, sq), (rt, rt, rt), cd_domain=unit)
    w_circ = cheb.config(pr, pr, (lu, lu, lu), mn, ids, ids, cd_domain=unit)

    def c1(cfg, h):
        return _verdict_outcome(cheb.check_scalar_condition(cfg, grid_step=h))

    def c2(cfg, h):
        return _verdict_outcome(cheb.check_condition_C2(cfg, grid_step=h))

    def q(conj, h):
        return _verdict_outcome(cheb.q_corollary_condition(conj, ids, pr, grid_step=h))

    def dom(outer, inner, h):
        return _grid_outcome(fusion.dominates(outer, inner, grid_step=h))

    def search(cfg, budget):
        return _search_outcome(cheb.search_counterexample(cfg, grid_step=0.01, budget=budget))

    specs = []
    for h in GRID_STEPS:
        specs += [
            # full scans of conditions that hold
            (f"c1.all-min.h{h}", partial(c1, all_min, h)),
            (f"c2.all-min.h{h}", partial(c2, all_min, h)),
            (f"c2.squares.h{h}", partial(c2, squares, h)),
            (f"q.min-prod.h{h}", partial(q, mn, h)),
            (f"dominates.min-prod.h{h}", partial(dom, mn, pr, h)),
            # early exits at the first witness
            (f"c1.lukasiewicz-circ.h{h}", partial(c1, w_circ, h)),
            (f"c2.lukasiewicz-circ.h{h}", partial(c2, w_circ, h)),
            (f"q.godel-prod.h{h}", partial(q, godel, h)),
            (f"dominates.lukasiewicz-min.h{h}", partial(dom, lu, mn, h)),
        ]
    specs += [
        # budget reaches h=0.02 on the holding config; the violated one stops at h=0.25
        ("search.squares.budget8e6", partial(search, squares, 8_000_000)),
        ("search.lukasiewicz-circ.budget5e6", partial(search, w_circ, 5_000_000)),
    ]
    return specs


GRID_SCAN_EXPECTED = HERE / "grid_scan_expected.json"


def grid_scan(seed):
    """The sweep in a fixed order; as in scenario_suite, the seed is unused."""
    recorded = json.loads(GRID_SCAN_EXPECTED.read_text())
    ops = tuple(Op(label, run, partial(check_recorded, want=recorded[label]))
                for label, run in grid_scan_specs())
    # The two h=0.01 full scans (c1 all-min, dominates min-prod) are 2 ops in 29 (6.9%).
    # numpy broadcasts over 1-8 MB arrays do the work.
    return Workload("grid-scan", ops, 95.0, "w-chebyshev-unit-interval",
                    {"flat": 0.5, "slab": 0.5})


# ---------------------------------------------------------------------------
# property-mix: seeded acceptance-7 instances, each a theorem
# ---------------------------------------------------------------------------


def _space(n):
    return measure.space(*[f"x{i}" for i in range(n)])


def _oracle_trial(op, m, D, f):
    exact = integral.integrate_simple(op, m, D, f).value
    return exact, integral.oracle_grid_integral(op, m, D, f, ORACLE_STEP)


def _check_oracle(result):
    exact, approx = result
    ok = exact >= approx - 1e-12 and abs(exact - approx) <= ORACLE_STEP + 1e-12
    return _problem(ok, f"exact {exact} vs grid oracle {approx}")


def _c1_c2_trial(cfg):
    return cheb.c1_iff_c2(cfg, grid_step=0.05)


def _check_c1_c2(rep):
    return _problem(not rep.disagreement_is_bug, f"c1 {rep.c1.status} but c2 {rep.c2.status}")


def _identity_triple():
    ident = cheb.identity_shape()
    return (ident, ident, ident)


def _inequality(star, m, f, g, A, B):
    mn = fusion.min_op()
    ids = _identity_triple()
    cfg = cheb.config(star, star, (mn, mn, mn), mn, ids, ids,
                      cd_domain=cheb.cd_values(m.value_range()))
    return cheb.check_integral_inequality(cfg, m, f, g, A, B)


def _comonotone_trial(star, m, f, g):
    full = m.space.full_mask
    return _inequality(star, m, f, g, full, full)


def _necessity_trial(sp, pi, f, g, A, B):
    m = measure.necessity_from_possibility(sp, pi)
    return _inequality(fusion.prod_op(), m, f, g, A, B)


def _check_holds(out):
    return _problem(out.holds, f"inequality fails: lhs {out.lhs} < rhs {out.rhs}")


def _dependence_trial(make_measure, triangle, f, g, A, B):
    m = make_measure()
    q = dep.DependenceQuery(m, f, g, A, B, triangle(), 1.0, allow_range_escape=True)
    return dep.is_m_positively_dependent(q)


def _check_dependent(verdict):
    return _problem(verdict.holds, f"not dependent, witness {verdict.witness}")


def property_mix(seed):
    """The acceptance-7 families with their trial counts, drawn from `seed`."""
    rng = np.random.default_rng(seed)
    # Atom counts 2..4 and the two c/d domain kinds are cycled, not drawn, so
    # every seed does the same amount of work; the values are random.
    spaces = [_space(n) for n in (2, 3, 4)]
    ops = []
    pool = (fusion.min_op(), fusion.prod_op(), fusion.lukasiewicz_op())
    for i in range(1000):
        sp = spaces[i % 3]
        m = randgen.random_monotone_measure(rng, sp)
        f = randgen.random_simple_function(rng, sp)
        D = int(rng.integers(0, sp.full_mask + 1))
        op = pool[int(rng.integers(3))]
        ops.append(Op("exact-vs-oracle", partial(_oracle_trial, op, m, D, f), _check_oracle))

    shapes = (cheb.identity_shape(), cheb.power_shape(2), cheb.power_shape(0.5),
              cheb.power_shape(3))
    for i in range(200):
        cfg = cheb.config(
            pool[int(rng.integers(3))], pool[int(rng.integers(3))],
            tuple(pool[int(rng.integers(3))] for _ in range(3)), fusion.min_op(),
            tuple(shapes[int(rng.integers(len(shapes)))] for _ in range(3)),
            tuple(shapes[int(rng.integers(len(shapes)))] for _ in range(3)),
            cd_domain=(cheb.cd_values(np.round(rng.uniform(0, 1, 4), 2))
                       if i % 2 else cheb.cd_interval(0.0, 1.0)))
        ops.append(Op("c1-vs-c2", partial(_c1_c2_trial, cfg), _check_c1_c2))

    stars = (fusion.prod_op(), fusion.lukasiewicz_op(), fusion.min_op())
    for i in range(1000):
        sp = spaces[i % 3]
        m = randgen.random_monotone_measure(rng, sp)
        f, g = randgen.random_comonotone_pair(rng, sp)
        ops.append(Op("comonotone", partial(_comonotone_trial, stars[i % 3], m, f, g),
                      _check_holds))

    for i in range(500):
        sp = spaces[i % 3]
        pi = randgen.random_possibility(rng, sp)
        f = randgen.random_simple_function(rng, sp)
        g = randgen.random_simple_function(rng, sp)
        A = int(rng.integers(1, sp.full_mask + 1))
        B = int(rng.integers(1, sp.full_mask + 1))
        ops.append(Op("necessity", partial(_necessity_trial, sp, pi, f, g, A, B), _check_holds))

    def necessity(sp):
        pi = randgen.random_possibility(rng, sp)
        return partial(_call, measure, "necessity_from_possibility", sp, pi)

    def distorted(sp):
        w = rng.uniform(0.1, 1.0, sp.n)
        return partial(_call, measure, "distorted_probability", sp, (w / w.sum()).tolist(), "x^2")

    def low_range(sp):
        table = [0.5 * v for v in randgen.random_monotone_measure(rng, sp).table]
        return partial(_call, measure, "from_table", sp, table)

    families = (("necessity-prod", necessity, fusion.prod_op),
                ("distorted-square-W", distorted, fusion.lukasiewicz_op),
                ("low-range-godel", low_range, fusion.godel_op))
    for kind, make_measure, triangle in families:
        for i in range(300):
            sp = spaces[i % 3]
            build = make_measure(sp)
            f = randgen.random_simple_function(rng, sp)
            g = randgen.random_simple_function(rng, sp)
            A = int(rng.integers(0, sp.full_mask + 1))
            B = int(rng.integers(0, sp.full_mask + 1))
            ops.append(Op(kind, partial(_dependence_trial, build, triangle, f, g, A, B),
                          _check_dependent))
    # c1-vs-c2 scans are 200 ops in 3,600 (5.6%); p99 sits inside them.  Higher
    # percentiles follow the few costliest random configs a seed happens to draw.
    # Per-call interpreter overhead does the work.
    return Workload("property-mix", tuple(ops), 99.0, "distorted-probability-dependence",
                    {"python": 1.0})


# ---------------------------------------------------------------------------
# atom-scale: the n-axis sweep over measure, integral and dependence
# ---------------------------------------------------------------------------

TABLE_ATOMS = (4, 8, 12, 16, 20)
SCAN_ATOMS = (4, 6, 8, 10)
ESCAPE_ATOMS = (4, 6, 7, 8)


def monotone_capacity_table(rng, n):
    """A strictly monotone capacity with 2^n distinct values.

    Jittered ranks, assigned in popcount order, keep every value distinct
    (gaps of at least 2^-(n+1)), so value_range() is the sorted table.
    """
    size = 1 << n
    ranks = (np.arange(size) + rng.uniform(0.25, 0.75, size)) / size
    masks = np.arange(size)
    popcount = np.zeros(size, dtype=np.int64)
    for bit in range(n):
        popcount += (masks >> bit) & 1
    table = np.empty(size)
    table[np.lexsort((masks, popcount))] = ranks
    table[0] = 0.0
    return table / table[size - 1]


def _possibility_table(pi):
    n = len(pi)
    masks = np.arange(1 << n)
    inside = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    return np.where(inside, np.asarray(pi)[None, :], 0.0).max(axis=1)


def _necessity_reference(pi):
    n = len(pi)
    full = (1 << n) - 1
    return 1.0 - _possibility_table(pi)[full ^ np.arange(1 << n)]


def _distorted_reference(p):
    n = len(p)
    masks = np.arange(1 << n)
    inside = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    return np.minimum(np.where(inside, np.asarray(p)[None, :], 0.0).sum(axis=1), 1.0) ** 2


def _check_table(m, want, tol=0.0):
    got = np.asarray(m.table)
    ok = got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))
    return _problem(ok, "measure table differs from the reference")


def _check_range(got, table):
    return _problem(got == tuple(np.unique(table).tolist()), "value range differs from np.unique")


def _check_against_oracle(value, op, m, f):
    approx = integral.oracle_grid_integral(op, m, m.space.full_mask, f, ORACLE_STEP)
    ok = value >= approx - 1e-12 and value - approx <= ORACLE_STEP + 1e-12
    return _problem(ok, f"integral {value} vs grid oracle {approx}")


def _integrate(op, m, f):
    return integral.integrate_simple(op, m, m.space.full_mask, f).value


def _q_min(m, f):
    return integral.q_integral(fusion.min_op(), m, f).value


def _value_range(m):
    return m.value_range()


def _expect_bool(want, label):
    return lambda got: _problem(got is want, f"{label} returned {got}, expected {want}")


def _dependent_query(m, f, g):
    full = m.space.full_mask
    q = dep.DependenceQuery(m, f, g, full, full, fusion.lukasiewicz_op(), 1.0,
                            allow_range_escape=True)
    return dep.is_m_positively_dependent(q)


def _supports_godel(m):
    return dep.measure_supports_all_pairs(m, fusion.godel_op(), allow_range_escape=True)


def _probability(rng, n):
    # Near-uniform weights: the subset sums stay distinct, and the share of
    # (c, d) pairs that escape range(m), which sets the escape-check cost,
    # stays about the same from seed to seed.
    w = rng.uniform(0.9, 1.1, n)
    return (w / w.sum()).tolist()


def atom_scale(seed):
    rng = np.random.default_rng(seed)
    mn, pr, lu = fusion.min_op(), fusion.prod_op(), fusion.lukasiewicz_op()
    ops = []
    for n in TABLE_ATOMS:
        sp = _space(n)
        table = monotone_capacity_table(rng, n)
        raw = table.tolist()
        m = measure.MonotoneMeasure(sp, tuple(raw))
        f = randgen.random_simple_function(rng, sp)
        ops.append(Op(f"from_table.n{n}", partial(_call, measure, "from_table", sp, raw),
                      partial(_check_table, want=table)))
        ops.append(Op(f"value_range.n{n}", partial(_value_range, m),
                      partial(_check_range, table=table)))
        for op in (mn, pr, lu):
            ops.append(Op(f"integrate_simple.{op.name}.n{n}", partial(_integrate, op, m, f),
                          partial(_check_against_oracle, op=op, m=m, f=f)))
        ops.append(Op(f"q_integral.min.n{n}", partial(_q_min, m, f),
                      partial(_check_against_oracle, op=mn, m=m, f=f)))

    for n in SCAN_ATOMS:
        sp = _space(n)
        pi = randgen.random_possibility(rng, sp)
        p = _probability(rng, n)
        capacity = measure.MonotoneMeasure(sp, tuple(monotone_capacity_table(rng, n).tolist()))
        necessity = measure.MonotoneMeasure(sp, tuple(_necessity_reference(pi).tolist()))
        possibility = measure.MonotoneMeasure(sp, tuple(_possibility_table(pi).tolist()))
        distorted = measure.MonotoneMeasure(sp, tuple(_distorted_reference(p).tolist()))
        ops += [
            Op(f"necessity_from_possibility.n{n}",
               partial(_call, measure, "necessity_from_possibility", sp, pi),
               partial(_check_table, want=_necessity_reference(pi), tol=1e-12)),
            Op(f"distorted_probability.n{n}",
               partial(_call, measure, "distorted_probability", sp, p, "x^2"),
               partial(_check_table, want=_distorted_reference(p), tol=1e-12)),
            Op(f"is_minitive.necessity.n{n}",
               partial(_call, measure, "is_minitive", necessity),
               _expect_bool(True, "is_minitive(necessity)")),
            Op(f"is_minitive.capacity.n{n}",
               partial(_call, measure, "is_minitive", capacity),
               _expect_bool(False, "is_minitive(random capacity)")),
            Op(f"is_subadditive.possibility.n{n}",
               partial(_call, measure, "is_subadditive", possibility),
               _expect_bool(True, "is_subadditive(possibility)")),
            Op(f"is_supermodular.distorted.n{n}",
               partial(_call, measure, "is_supermodular", distorted),
               _expect_bool(True, "is_supermodular(distorted)")),
        ]

    for n in ESCAPE_ATOMS:
        sp = _space(n)
        # range(m) has about 2^n values for both measures, so the escape check runs at full size
        distorted = measure.distorted_probability(sp, _probability(rng, n), "x^2")
        low = measure.MonotoneMeasure(sp, tuple((0.5 * monotone_capacity_table(rng, n)).tolist()))
        f = randgen.random_simple_function(rng, sp)
        g = randgen.random_simple_function(rng, sp)
        ops.append(Op(f"is_m_positively_dependent.distorted-W.n{n}",
                      partial(_dependent_query, distorted, f, g), _check_dependent))
        ops.append(Op(f"measure_supports_all_pairs.low-range-godel.n{n}",
                      partial(_supports_godel, low), _check_dependent))
    # from_table n=20 and the two n=8 escape checks are 3 ops in 62 (4.8%); p98
    # falls between the two costliest, whose times are close.
    # Python loops in the escape checks beside 2^20-entry tables.
    return Workload("atom-scale", tuple(ops), 98.0, "minitive-dependence",
                    {"python": 0.5, "flat": 0.5})


# Sweep points left out because the current code cannot finish them in a run.
NOT_RUN = (
    ("atom-scale", "is_m_positively_dependent / measure_supports_all_pairs at n >= 9",
     "triangle_range_escapes is O(|range(m)|^3) in Python: about 5 s at n=9 and about "
     "40 s at n=10 (|range(m)| = 1024), so MAX_SCAN_ATOMS = 12 cannot be reached"),
    ("atom-scale", "pair scans and necessity/distorted constructors at n = 12",
     "4^12 = 16.8M set pairs; the int64 intersection/union tables need about 0.5 GB"),
    ("atom-scale", "from_table / value_range at n = 24 (MAX_ATOMS)",
     "a 16.8M-entry Python float table needs about 1.5 GB"),
    ("grid-scan", "c1 scan and dominates at h = 0.005",
     "201^4 = 1.6e9 points, about 16x the h=0.01 cost (20-30 s per scan)"),
)


WORKLOADS = {
    "scenario-suite": scenario_suite,
    "grid-scan": grid_scan,
    "property-mix": property_mix,
    "atom-scale": atom_scale,
}
