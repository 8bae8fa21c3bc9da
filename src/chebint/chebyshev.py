"""Scalar and integral Chebyshev-type inequality checks and counterexample search.

The scalar condition couples two fusion operations, three integral operations,
a triangle operation and six shape functions; the integral inequality compares
transformed generalized Sugeno integrals.  Grid verdicts are evidence; a
Violated verdict carries a witness re-checked by direct evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .dependence import (DependenceQuery, is_comonotone,
                         is_m_positively_dependent, measure_supports_all_pairs)
from .exprlang import Expr, _evaluate, parse, pointwise
from .extreal import INF_CAP as _INF_CAP, as_value
from .fusion import (FusionError, FusionOp, apply_op, clip_args, eval_op, exactly_commutative,
                     leq_min, min_op, monotone_box, prod_op)
from .integral import (IntegralError, SimpleFunction, _integrate_rows, _integrate_values,
                       fitted_bound, simple_function)
from .measure import MonotoneMeasure
from .scan import (_BLOCK, EQ_TOL, TOL, GridError, Verdict, axis, check_row, check_step,
                   first_flagged, linspace, mirror_pairs, scan, scan_separable, signs)


class HypothesisError(Exception):
    pass


class ShapeDomainError(HypothesisError):
    def __init__(self, name, value, domain):
        super().__init__(
            f"the value {name}({value}) is not defined (domain [{domain[0]}, {domain[1]}])"
        )
        self.value = value


# ---------------------------------------------------------------------------
# Shape functions
# ---------------------------------------------------------------------------


def _checked_eval(expr, var, x, name, domain):
    """Evaluate expr at x after the domain check and the clamp to domain.

    A scalar x is checked and clamped as a float in plain Python (the clamp
    matches ``np.clip``, signed zeros included); an array x goes through
    numpy and gives a float64 array of its shape, also for a constant expr.
    """
    lo, hi = domain
    x = x if type(x) is float else as_value(x)  # floats, the most common, skip the call
    if type(x) is float:
        if x < lo - TOL or x > hi + TOL:
            raise ShapeDomainError(name, x, domain)
        return _evaluate(expr, {var: float(lo) if x < lo else float(hi) if x > hi else x})
    # fmin/fmax skip NaNs as the comparisons do, so a NaN beside an
    # out-of-range value still ends in a ShapeDomainError
    if x.size and (np.fmin.reduce(x, axis=None) < lo - TOL
                   or np.fmax.reduce(x, axis=None) > hi + TOL):
        bad = x[first_flagged((x < lo - TOL) | (x > hi + TOL))]
        raise ShapeDomainError(name, float(bad), domain)
    out = _evaluate(expr, {var: np.clip(x, lo, hi)})
    return np.full(x.shape, out) if type(out) is float else out


@dataclass(frozen=True)
class ShapeFunction:
    """A one-variable transform on [domain[0], domain[1]]."""

    name: str
    expr: Expr
    var: str = "x"
    domain: tuple = (0.0, 1.0)
    inverse: Expr | None = None
    inverse_domain: tuple | None = None

    def apply(self, x):
        """The transform at x: a float for a scalar or a 0-d array, and for an
        array of at least one dimension a float64 array of its shape, also for
        a constant expression.  Values outside the domain raise ShapeDomainError."""
        return _checked_eval(self.expr, self.var, x, self.name, self.domain)

    def apply_inverse(self, y):
        """The declared inverse at y, with the same contract as ``apply``."""
        if self.inverse is None:
            raise HypothesisError(f"no inverse declared for shape function {self.name!r}")
        lo, hi = self.inverse_domain if self.inverse_domain else (
            self.apply(self.domain[0]), self.apply(self.domain[1]))
        return _checked_eval(self.inverse, self.var, y, f"{self.name}^-1", (lo, hi))

    def validate_inverse(self, grid_step=0.01):
        """The first point where the declared inverse fails its round trip by
        more than TOL: an x of the domain grid where inverse(body(x)) != x,
        else a y of the inverse-domain grid where body(inverse(y)) != y (a NaN
        fails); None when both hold or no inverse is declared.  Memoised per
        shape and step."""
        if self.inverse is None:
            return None
        return _round_trip(self, grid_step, signs(*self.domain, *(self.inverse_domain or ())))


@lru_cache(maxsize=64)  # the signs keep a -0.0 bound apart; a raised error is not cached
def _round_trip(phi, grid_step, _signs):
    xs = axis(*phi.domain, grid_step, least=2)
    ys = phi.apply(xs)
    if (bad := first_flagged(~(np.abs(phi.apply_inverse(ys) - xs) <= TOL))) is not None:
        return float(xs[bad])
    lo, hi = phi.inverse_domain if phi.inverse_domain else (float(ys[0]), float(ys[-1]))
    zs = linspace(lo, hi, len(xs))
    if (bad := first_flagged(~(np.abs(phi.apply(phi.apply_inverse(zs)) - zs) <= TOL))) is not None:
        return float(zs[bad])
    return None


def shape(name, source, inverse=None, var="x", domain=(0.0, 1.0),
          inverse_domain=None) -> ShapeFunction:
    body = parse(source) if isinstance(source, str) else source
    inv = parse(inverse) if isinstance(inverse, str) else inverse
    return ShapeFunction(name, body, var, tuple(domain), inverse=inv,
                         inverse_domain=tuple(inverse_domain) if inverse_domain else None)


# Memoized: a shape is frozen, and though the parse memo holds its sources, a
# build still formats and looks them up and makes a new ShapeFunction, 10-30
# times a memo hit.  typed, so y_bar=1 and y_bar=1.0 keep their own domains.
@lru_cache(maxsize=64, typed=True)
def identity_shape(y_bar=1.0) -> ShapeFunction:
    return shape("id", "x", inverse="x", domain=(0.0, y_bar))


@lru_cache(maxsize=64, typed=True)  # a raised ValueError is not cached
def power_shape(p, y_bar=1.0) -> ShapeFunction:
    if p <= 0:
        raise ValueError("exponent must be positive")
    return shape(f"x^{p}", f"x^{p}", inverse=f"x^{1.0 / p}", domain=(0.0, y_bar))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CdDomain:
    """Finite value set (a measure range) or an interval [lo, hi]."""

    values: tuple | None = None
    interval: tuple | None = None

    def __post_init__(self):
        if (self.values is None) == (self.interval is None):
            raise ValueError("exactly one of values/interval must be given")
        if self.values is not None and len(self.values) == 0:
            raise ValueError("the finite c/d domain needs at least one value")

    @property
    def exact(self):
        return self.values is not None

    @property
    def sup(self):
        return max(self.values) if self.values else self.interval[1]

    def sample(self, grid_step):
        if self.values is not None:  # read-only, as a grid from ``axis`` is
            out = np.asarray(sorted(self.values), dtype=float)
            out.flags.writeable = False
            return out
        lo, hi = self.interval
        return axis(lo, min(hi, _INF_CAP), grid_step)

    def describe(self, grid_step):
        if self.values is not None:
            return "exact finite domain"
        return f"grid({grid_step})"


def cd_values(values) -> CdDomain:
    return CdDomain(values=tuple(float(v) for v in values))


def cd_interval(lo, hi) -> CdDomain:
    return CdDomain(interval=(float(lo), float(hi)))


@dataclass(frozen=True)
class InequalityConfig:
    inner: FusionOp  # the * combining f and g
    outer: FusionOp  # the star combining the right-hand integrals
    circ1: FusionOp
    circ2: FusionOp
    circ3: FusionOp
    triangle: FusionOp
    phi1: ShapeFunction
    phi2: ShapeFunction
    phi3: ShapeFunction
    psi1: ShapeFunction
    psi2: ShapeFunction
    psi3: ShapeFunction
    k: float = 1.0
    y_bar: float = 1.0
    cd_domain: CdDomain = None

    @property
    def phis(self):
        return (self.phi1, self.phi2, self.phi3)

    @property
    def psis(self):
        return (self.psi1, self.psi2, self.psi3)

    @property
    def circs(self):
        return (self.circ1, self.circ2, self.circ3)

    def validate(self):
        """Construction-time hypothesis bundle; raises HypothesisError."""
        if not 0 < self.k <= self.y_bar + TOL:
            raise HypothesisError(f"k={self.k} must lie in (0, y_bar={self.y_bar}]")
        if self.k > self.inner.y_bar + TOL:  # a, b range over [0, k]
            raise HypothesisError(f"k={self.k} exceeds the inner y_bar={self.inner.y_bar}")
        if self.cd_domain is None:
            raise HypothesisError("the c/d domain (config.cd) is missing")
        if self.cd_domain.sup > self.triangle.y_bar + TOL:  # c, d range over the c/d domain
            raise HypothesisError(f"sup(cd)={self.cd_domain.sup} exceeds the triangle "
                                  f"{self.triangle.name!r} y_bar={self.triangle.y_bar}")
        top = min(self.cd_domain.sup, _INF_CAP)
        for i, (phi, circ) in enumerate(zip(self.phis, self.circs), start=1):
            phi_top = phi.apply(min(self.y_bar, phi.domain[1]))
            try:
                val = eval_op(circ, phi_top, top)
            except FusionError as exc:
                raise HypothesisError(f"phi{i}(y_bar) circ{i} sup(cd): {exc}") from None
            if val > phi_top + TOL:
                raise HypothesisError(
                    f"phi{i}(y_bar) circ{i} sup(cd) = {val} exceeds phi{i}(y_bar) = {phi_top}"
                )
            # psi2 and psi3 of these tops are the arguments of outer
            if i > 1 and (arg := self.psis[i - 1].apply(val)) > self.outer.y_bar + TOL:
                raise HypothesisError(
                    f"psi{i}(phi{i}(y_bar) circ{i} sup(cd)) = {arg} exceeds the outer "
                    f"{self.outer.name!r} y_bar={self.outer.y_bar}")
        for j, circ in ((2, self.circ2), (3, self.circ3)):
            val = eval_op(circ, min(self.y_bar, circ.y_bar), 0.0)
            if val > TOL:
                raise HypothesisError(f"y_bar circ{j} 0 = {val}, expected 0")
        for name, op in (("inner", self.inner), ("outer", self.outer),
                         ("triangle", self.triangle)) + tuple(
                             (f"circ{i}", c) for i, c in enumerate(self.circs, start=1)):
            if not op.non_decreasing:
                raise HypothesisError(f"{name} operation {op.name!r} is not declared non-decreasing")


def config(inner, outer, circs, triangle, phis, psis, k=1.0, y_bar=1.0,
           cd_domain=None) -> InequalityConfig:
    c1, c2, c3 = circs
    p1, p2, p3 = phis
    s1, s2, s3 = psis
    return InequalityConfig(inner, outer, c1, c2, c3, triangle,
                            p1, p2, p3, s1, s2, s3, k, y_bar, cd_domain)


# ---------------------------------------------------------------------------
# Scalar conditions
# ---------------------------------------------------------------------------


def _k_grid(cfg, grid_step):
    return axis(0.0, cfg.k, grid_step)


def scalar_condition_at(cfg: InequalityConfig, a, b, c, d):
    """Direct (lhs, rhs) evaluation of the four-variable scalar condition."""
    lhs = cfg.psi1.apply(eval_op(cfg.circ1, cfg.phi1.apply(eval_op(cfg.inner, a, b)),
                                 eval_op(cfg.triangle, c, d)))
    return lhs, _right_at(cfg, a, b, c, d)


def _right_at(cfg: InequalityConfig, a, b, c, d):
    """The right side psi2(phi2(a) circ2 c) outer psi3(phi3(b) circ3 d) at one point."""
    return eval_op(cfg.outer, cfg.psi2.apply(eval_op(cfg.circ2, cfg.phi2.apply(a), c)),
                   cfg.psi3.apply(eval_op(cfg.circ3, cfg.phi3.apply(b), d)))


def _right_tables(cfg: InequalityConfig, ab, cd):
    """phi2(a), phi3(b), psi2(phi2(a) circ2 c) and psi3(phi3(b) circ3 c) over
    ab and ab x cd: the right-side tables c1 and c2 hoist, in the order both build them."""
    phi2_a = cfg.phi2.apply(ab)
    phi3_b = cfg.phi3.apply(ab)
    return (phi2_a, phi3_b, cfg.psi2.apply(apply_op(cfg.circ2, phi2_a[:, None], cd[None, :])),
            cfg.psi3.apply(apply_op(cfg.circ3, phi3_b[:, None], cd[None, :])))


def check_scalar_condition(cfg: InequalityConfig, grid_step=0.01) -> Verdict:
    """Scan a, b over [0, k] and c, d over the c/d-domain.

    Deterministic lexicographic first witness; Violated witnesses are
    re-checked by direct evaluation before being reported.
    """
    return _check_c1(cfg, grid_step, _right_tables)


def _check_c1(cfg, grid_step, tables):
    """check_scalar_condition, with ``tables`` building the right-side tables."""
    try:
        cfg.validate()
        ab = _k_grid(cfg, grid_step)
        cd = cfg.cd_domain.sample(grid_step)
        check_row(len(ab), len(cd), len(cd))
        evidence = f"a,b grid({grid_step}) x c,d {cfg.cd_domain.describe(grid_step)}"
        tri_cd = apply_op(cfg.triangle, cd[:, None], cd[None, :])
        _, _, psi2_ac, psi3_bd = tables(cfg, ab, cd)
        return scan_separable(
            ab, cd, lambda a: cfg.phi1.apply(apply_op(cfg.inner, a, ab)),
            tri_cd, psi2_ac, psi3_bd,
            lambda x, t: cfg.psi1.apply(apply_op(cfg.circ1, x, t)), partial(apply_op, cfg.outer),
            partial(scalar_condition_at, cfg), evidence, monotone_box(cfg.outer),
            mirrored=_c2_mirrored(cfg) and exactly_commutative(cfg.triangle))
    except (HypothesisError, FusionError) as exc:
        return Verdict("hypothesis-failed", detail=str(exc))


def c2_condition_at(cfg: InequalityConfig, a, b, c):
    dbar = min(cfg.cd_domain.sup, _INF_CAP)
    lhs = cfg.psi1.apply(eval_op(cfg.circ1, cfg.phi1.apply(eval_op(cfg.inner, a, b)), c))
    return lhs, max(_right_at(cfg, a, b, c, dbar), _right_at(cfg, a, b, dbar, c))


def check_condition_C2(cfg: InequalityConfig, grid_step=0.01) -> Verdict:
    """One-variable-c form with the domain supremum substituted for d."""
    return _check_c2(cfg, grid_step, _right_tables)


def _check_c2(cfg, grid_step, tables):
    """check_condition_C2, with ``tables`` building the right-side tables."""
    try:
        cfg.validate()
        ab = _k_grid(cfg, grid_step)
        cd = cfg.cd_domain.sample(grid_step)
        check_row(len(ab), len(cd))
        dbar = min(cfg.cd_domain.sup, _INF_CAP)
        evidence = f"a,b grid({grid_step}) x c {cfg.cd_domain.describe(grid_step)}"
        phi2_a, phi3_b, psi2_ac, psi3_bc = tables(cfg, ab, cd)
        psi2_adbar = cfg.psi2.apply(apply_op(cfg.circ2, phi2_a, dbar))
        psi3_bdbar = cfg.psi3.apply(apply_op(cfg.circ3, phi3_b, dbar))

        def left(rows, b0):
            phi1_sab = cfg.phi1.apply(apply_op(cfg.inner, ab[rows, None], ab[b0:]))
            return cfg.psi1.apply(apply_op(cfg.circ1, phi1_sab[..., None], cd))

        def sides(rows, b0):  # over (rows, b >= b0, c)
            try:  # the rhs first, in place: built after the lhs, it holds a block more
                rhs = apply_op(cfg.outer, psi2_ac[rows, None], psi3_bdbar[b0:, None])
                rhs = np.maximum(rhs, apply_op(cfg.outer, psi2_adbar[rows, None, None],
                                               psi3_bc[b0:]), out=rhs)
            except Exception:
                left(rows, b0)  # an lhs error comes first, as in a row's evaluation order
                raise
            return left(rows, b0), rhs

        return scan((ab, ab, cd), sides, partial(c2_condition_at, cfg), evidence,
                    mirrored=_c2_mirrored(cfg))
    except (HypothesisError, FusionError) as exc:
        return Verdict("hypothesis-failed", detail=str(exc))


def _c2_mirrored(cfg):
    """Whether c2 is symmetric in (a, b) bit for bit, errors included: inner
    and outer commute exactly, the right-hand integrals share phi, circ and
    psi, and each error of phi1, circ1 and psi1 comes from one point alone.

    The first flagged point then has b >= a, so c2's ``scan`` compares each
    block of rows only from the b of its first row on, as c1 and ``dominates``
    do: the points it leaves out mirror points of earlier rows, which flag
    and raise nowhere.  A rejected re-check leaves the next witness to rows
    that cross the diagonal, which the full scan decides."""
    return (exactly_commutative(cfg.inner) and exactly_commutative(cfg.outer)
            and all(x is y or x == y for x, y in ((cfg.circ2, cfg.circ3), (cfg.phi2, cfg.phi3),
                                                  (cfg.psi2, cfg.psi3)))
            and pointwise(cfg.phi1.expr) and pointwise(cfg.psi1.expr)
            and (cfg.circ1.expr is None or pointwise(cfg.circ1.expr)))


@dataclass(frozen=True)
class EquivalenceReport:
    c1: Verdict
    c2: Verdict

    @property
    def agree(self):
        return self.c1.status == self.c2.status

    @property
    def disagreement_is_bug(self):
        # the two conditions are provably equivalent under the hypothesis
        # bundle, so diverging verdicts at equal resolution flag a defect
        return (not self.agree
                and "hypothesis-failed" not in (self.c1.status, self.c2.status))


def c1_iff_c2(cfg: InequalityConfig, grid_step=0.01) -> EquivalenceReport:
    built = []  # the right-side tables, built by c1 and read again by c2

    def tables(*args):
        if not built:
            built.append(_right_tables(*args))
        return built[0]

    return EquivalenceReport(_check_c1(cfg, grid_step, tables), _check_c2(cfg, grid_step, tables))


# ---------------------------------------------------------------------------
# Integral inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityOutcome:
    lhs: float
    rhs: float
    holds: bool
    trace: dict


def check_integral_inequality(cfg: InequalityConfig, m: MonotoneMeasure,
                              f: SimpleFunction, g: SimpleFunction,
                              A: int, B: int) -> InequalityOutcome:
    """Compare psi1(I(phi1(f*g), A&B)) against psi2(I(phi2 f, A)) outer psi3(I(phi3 g, B)).

    The floats, the trace and the exceptions are those of integrating
    ``f.combine(g, inner).transform(phi1.apply)``, ``f.transform(phi2.apply)``
    and ``g.transform(phi3.apply)``, in that order, without building them.
    Their values need no range check: ``eval_op`` and ``eval_expr`` give
    no negative value and no NaN.
    """
    if g.space != f.space:
        raise IntegralError("functions live on different spaces")
    fg = [eval_op(cfg.inner, a, b) for a, b in zip(f.values, g.values)]
    trace = {}
    for key, op, D, phi, values in (("integral_product", cfg.circ1, A & B, cfg.phi1, fg),
                                    ("integral_f", cfg.circ2, A, cfg.phi2, f.values),
                                    ("integral_g", cfg.circ3, B, cfg.phi3, g.values)):
        vals = [phi.apply(v) for v in values]
        if f.space != m.space:
            raise IntegralError("function and measure live on different spaces")
        value, method, cands = _integrate_values(op, m, D, vals, fitted_bound(vals))
        trace[key] = {"value": value, "method": method, "candidates": cands}
    lhs = cfg.psi1.apply(trace["integral_product"]["value"])
    rhs = eval_op(cfg.outer, cfg.psi2.apply(trace["integral_f"]["value"]),
                  cfg.psi3.apply(trace["integral_g"]["value"]))
    return InequalityOutcome(lhs, rhs, lhs >= rhs - TOL, trace)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    name: str
    status: str  # pass | fail | hypothesis-failed
    detail: str = ""


@dataclass(frozen=True)
class PipelineReport:
    stages: tuple
    outcome: InequalityOutcome | None = None

    @property
    def ok(self):
        return all(s.status == "pass" for s in self.stages)

    @property
    def status(self):
        if any(s.status == "hypothesis-failed" for s in self.stages):
            return "hypothesis-failed"
        if any(s.status == "fail" for s in self.stages):
            return "violated"
        return "holds"

    @property
    def contradiction(self):
        """All hypothesis stages pass yet the final inequality fails."""
        if not self.stages or self.stages[-1].status != "fail":
            return False
        return all(s.status == "pass" for s in self.stages[:-1])


def _stage(name, check, fail="fail", refused=HypothesisError) -> Stage:
    """The stage ``check()`` decides: pass when it returns None (a hypothesis
    that can only raise) or a verdict that holds, ``fail`` for a violated one,
    else hypothesis-failed, its detail the witness, else the verdict's detail,
    else its warnings.  An error in ``refused`` is hypothesis-failed, with its message."""
    try:
        verdict = check() or Verdict("holds")
    except refused as exc:
        return Stage(name, "hypothesis-failed", str(exc))
    status = ("pass" if verdict.holds else fail if verdict.status == "violated"
              else "hypothesis-failed")
    return Stage(name, status, f"witness {verdict.witness}" if verdict.witness
                 else verdict.detail or "; ".join(verdict.warnings))


def _integral_stage(cfg: InequalityConfig, m, f, g, A, B):
    """The closing integral-inequality stage and its outcome (None on a hypothesis failure)."""
    try:
        outcome = check_integral_inequality(cfg, m, f, g, A, B)
    except (HypothesisError, IntegralError, FusionError) as exc:
        return Stage("integral-inequality", "hypothesis-failed", str(exc)), None
    return Stage("integral-inequality", "pass" if outcome.holds else "fail",
                 f"lhs={outcome.lhs} rhs={outcome.rhs}"), outcome


def theorem1_forward(cfg: InequalityConfig, m: MonotoneMeasure,
                     f: SimpleFunction, g: SimpleFunction, A: int, B: int,
                     grid_step=0.01) -> PipelineReport:
    """Hypotheses -> dependence -> scalar condition -> integral inequality.

    All failures are report entries; a failing final inequality after fully
    passing hypothesis stages is a contradiction event (bug or misdeclared
    flag), surfaced via `contradiction`.
    """
    cfg = replace(cfg, cd_domain=cd_values(m.value_range()))

    def hypotheses():
        cfg.validate()
        if not cfg.outer.left_continuous_in_first or not cfg.outer.left_continuous_in_second:
            raise HypothesisError(f"outer operation {cfg.outer.name!r} must be declared left-continuous")

    stages = (  # any error of the dependence decision is reported, not raised
        _stage("config-hypotheses", hypotheses),
        _stage("m-positive-dependence", lambda: is_m_positively_dependent(DependenceQuery(
            m, f, g, A, B, cfg.triangle, cfg.k, allow_range_escape=True)), refused=Exception),
        _stage("scalar-condition", lambda: check_scalar_condition(cfg, grid_step)))
    stage, outcome = _integral_stage(cfg, m, f, g, A, B)
    return PipelineReport(stages + (stage,), outcome)


def sugeno_chebyshev(m: MonotoneMeasure, f: SimpleFunction, g: SimpleFunction, A: int,
                     phis, psis, star: FusionOp, grid_step=0.01, y_bar=1.0) -> PipelineReport:
    """Comonotone Chebyshev inequality for the Sugeno integral.

    Checks star <= min, matching phi tops, psi1 >= psi_j, the sandwich
    psi_j(phi_j(x)) <= x <= psi1(phi1(x)), and comonotonicity; then asserts
    the integral inequality with circ_i = min, outer = star, B = A.
    """
    phi1, phi2, phi3 = phis
    psi1, psi2, psi3 = psis

    def tops_equal():
        tops = [p.apply(min(y_bar, p.domain[1])) for p in phis]
        if abs(tops[0] - tops[1]) > TOL or abs(tops[0] - tops[2]) > TOL:
            raise HypothesisError(f"phi tops differ: {tops}")

    def psi1_dominates():
        for j, psij in ((2, psi2), (3, psi3)):
            lo = max(psi1.domain[0], psij.domain[0])
            hi = min(psi1.domain[1], psij.domain[1])
            xs = axis(lo, hi, grid_step)
            if (bad := first_flagged(psi1.apply(xs) < psij.apply(xs) - TOL)) is not None:
                raise HypothesisError(f"psi1 < psi{j} at x={float(xs[bad])}")

    def sandwich():
        xs = axis(0.0, y_bar, grid_step)
        if (bad := first_flagged(psi1.apply(phi1.apply(xs)) < xs - TOL)) is not None:
            raise HypothesisError(f"psi1(phi1(x)) < x at x={float(xs[bad])}")
        for j, phij, psij in ((2, phi2, psi2), (3, phi3, psi3)):
            if (bad := first_flagged(psij.apply(phij.apply(xs)) > xs + TOL)) is not None:
                raise HypothesisError(f"psi{j}(phi{j}(x)) > x at x={float(xs[bad])}")

    stages = (
        _stage("star-leq-min", lambda: leq_min(star, grid_step), fail="hypothesis-failed"),
        _stage("phi-tops-equal", tops_equal),
        _stage("psi1-dominates", psi1_dominates),
        _stage("sandwich", sandwich),
        _stage("comonotonicity", lambda: is_comonotone(f, g, A)))
    mn = min_op(y_bar=y_bar)
    cfg = config(star, star, (mn, mn, mn), mn, phis, psis, k=y_bar, y_bar=y_bar)
    stage, outcome = _integral_stage(cfg, m, f, g, A, A)
    return PipelineReport(stages + (stage,), outcome)


def liapunov_check(m: MonotoneMeasure, f: SimpleFunction, A: int,
                   phi1, phi2, psi1, psi2, grid_step=0.01, y_bar=1.0) -> PipelineReport:
    """Liapunov-type inequality psi1(I_min(phi1 f)) >= psi2(I_min(phi2 f)).

    Reduction to the comonotone pipeline with star = min and g = f.
    """
    return sugeno_chebyshev(m, f, f, A, (phi1, phi2, phi2), (psi1, psi2, psi2),
                            min_op(y_bar=y_bar), grid_step, y_bar)


def any_functions_check(cfg: InequalityConfig, m: MonotoneMeasure, trials=200,
                        seed=0, grid_step=0.01) -> PipelineReport:
    """Chebyshev inequality for arbitrary (not necessarily comonotone) pairs.

    Requires outer = inner; checks the measure-level condition
    m(C&D) >= triangle(m(C), m(D)), the scalar condition, then `trials`
    random function pairs.
    """
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive count, got {trials!r}")

    def outer_equals_inner():
        if replace(cfg.outer, name=cfg.inner.name) != cfg.inner:  # names aside, as operations
            raise HypothesisError("this pipeline requires outer = inner")

    stages = (  # any error of the measure-level decision is reported, not raised
        _stage("outer-equals-inner", outer_equals_inner),
        _stage("measure-supports-all-pairs", lambda: measure_supports_all_pairs(
            m, cfg.triangle, allow_range_escape=True), refused=Exception),
        _stage("scalar-condition", lambda: check_scalar_condition(
            replace(cfg, cd_domain=cd_values(m.value_range())), grid_step)))
    stage, outcome = _random_trials(cfg, m, trials, seed)
    return PipelineReport(stages + (stage,), outcome)


# A batched trial goes to the scalar check when its margin lhs - (rhs - TOL)
# lies below this share of max(|rhs|, 1).  The array pass and the scalar
# check differ only where numpy's power and libm's pow round a value
# differently, by about an ulp (2.2e-16 of the value); an exact equality has
# margin TOL, a thousand times the band, and is not re-checked.
_RECHECK_BAND = 1e-12
# trials per array pass: their (trials, atoms) temporaries stay within half
# of a scan block, as a scan's do, however many atoms the space has
_TRIAL_BLOCK = 256


def _random_trials(cfg, m, trials, seed):
    """The random-trials stage of ``any_functions_check`` and the outcome of
    its last trial, None on a hypothesis failure.

    The trials are drawn in blocks and checked in one array pass per block
    (``_trial_margins``); only the trials it flags and the last one go
    through ``check_integral_inequality``, in trial order.  A block whose
    pass raises flags every trial, so the first error is the scalar one.
    """
    rng = np.random.default_rng(seed)
    n, top = m.space.n, m.space.full_mask + 1
    values = np.empty((_TRIAL_BLOCK, 2 * n))
    masks = np.empty((_TRIAL_BLOCK, 2), dtype=np.int64)
    failures, first, outcome = 0, None, None
    rng.uniform(0.0, cfg.k, 0)  # refuses the k that uniform refuses; draws nothing
    for start in range(0, trials, _TRIAL_BLOCK):
        count = min(_TRIAL_BLOCK, trials - start)
        for t in range(count):
            # one draw of both functions' values gives what a draw per function
            # gives; the masks keep a scalar draw each, cheaper than one sized draw
            rng.random(out=values[t])
            masks[t] = rng.integers(1, top), rng.integers(1, top)
        # uniform(0, k) draws 0 + k*u, which is k*u bit for bit for k > 0
        np.multiply(values[:count], cfg.k, out=values[:count])
        try:
            keep = _trial_margins(cfg, m, values[:count], masks[:count])
        except Exception:  # noqa: BLE001 - the scalar check raises the error it means
            keep = np.ones(count, dtype=bool)
        keep[-1] |= start + count == trials
        for slot in np.flatnonzero(keep).tolist():
            fg = values[slot].tolist()
            f = simple_function(m.space, fg[:n], bound=cfg.k)
            g = simple_function(m.space, fg[n:], bound=cfg.k)
            A, B = masks[slot].tolist()
            try:
                outcome = check_integral_inequality(cfg, m, f, g, A, B)
            except (HypothesisError, IntegralError, FusionError) as exc:
                return Stage("random-trials", "hypothesis-failed", str(exc)), None
            if not outcome.holds:
                failures += 1
                if first is None:
                    first = (f.values, g.values, A, B, outcome.lhs, outcome.rhs)
    return Stage("random-trials", "pass" if failures == 0 else "fail",
                 f"{trials} trials, {failures} violations, seed {seed}"
                 + (f", first {first}" if first else "")), outcome


def _trial_margins(cfg, m, values, masks):
    """Flags over the rows of a block of trials, f and g the two halves of a
    row of ``values`` and A, B the columns of ``masks``: set where the margin
    lhs - (rhs - TOL) of ``check_integral_inequality`` lies below the band,
    in one array pass.  Raises wherever a trial's scalar check raises, and
    may raise where none does (an overflow or a division by zero among them,
    which the scalar arithmetic refuses)."""
    n = m.space.n
    f, g = values[:, :n], values[:, n:]
    A, B = masks[:, 0], masks[:, 1]
    with np.errstate(divide="raise", over="raise"):
        fg = apply_op(cfg.inner, clip_args(cfg.inner, f), clip_args(cfg.inner, g))
        lhs = cfg.psi1.apply(_integrate_rows(cfg.circ1, m, A & B, cfg.phi1.apply(fg)))
        r2 = cfg.psi2.apply(_integrate_rows(cfg.circ2, m, A, cfg.phi2.apply(f)))
        r3 = cfg.psi3.apply(_integrate_rows(cfg.circ3, m, B, cfg.phi3.apply(g)))
        rhs = apply_op(cfg.outer, clip_args(cfg.outer, r2), clip_args(cfg.outer, r3))
        margin = lhs - (rhs - TOL)
        return ~(margin >= _RECHECK_BAND * np.maximum(np.abs(rhs), 1.0))  # NaN flags


# ---------------------------------------------------------------------------
# q-integral corollary condition
# ---------------------------------------------------------------------------


def q_condition_at(conj: FusionOp, phis, star: FusionOp, a, b, c):
    phi1, phi2, phi3 = phis
    lhs = phi1.apply_inverse(eval_op(conj, a, phi1.apply(eval_op(star, b, c))))
    r1 = eval_op(star, phi2.apply_inverse(eval_op(conj, a, phi2.apply(b))),
                 phi3.apply_inverse(eval_op(conj, 1.0, phi3.apply(c))))
    r2 = eval_op(star, phi2.apply_inverse(eval_op(conj, 1.0, phi2.apply(b))),
                 phi3.apply_inverse(eval_op(conj, a, phi3.apply(c))))
    return lhs, max(r1, r2)


def q_corollary_condition(conj: FusionOp, phis, star: FusionOp, grid_step=0.01) -> Verdict:
    """Three-variable scalar condition for the q-integral Chebyshev inequality.

    The boundary slice b = 1 is scanned first (it is where degenerate
    conjunction behaviour shows up), then the full (a, b, c) grid; the first
    witness in that scan order is re-checked and reported.
    """
    phi1, phi2, phi3 = phis
    try:
        if not conj.fuzzy_conjunction:
            raise HypothesisError(f"{conj.name!r} lacks the fuzzy_conjunction flag")
        for i, phi in enumerate(phis, start=1):
            if phi.inverse is None:
                raise HypothesisError(f"phi{i} needs a declared inverse")
            if abs(phi.apply(0.0)) > EQ_TOL:
                raise HypothesisError(f"phi{i}(0) = {phi.apply(0.0)}, expected 0")
            top = phi.apply(1.0)
            if eval_op(conj, 1.0, top) > top + TOL:
                raise HypothesisError(f"1 conj phi{i}(1) exceeds phi{i}(1)")
            if (bad := phi.validate_inverse(grid_step)) is not None:  # the scan trusts it
                raise HypothesisError(f"phi{i}'s declared inverse fails its round trip at {bad}")
    except HypothesisError as exc:
        return Verdict("hypothesis-failed", detail=str(exc))
    xs = axis(0.0, 1.0, grid_step, least=0)
    check_row(len(xs), len(xs))
    evidence = f"grid({grid_step}), boundary slice b=1 scanned first"
    # symmetric in (b, c) bit for bit: each row a of a grid past a block scans
    # the pairs c >= b.  The row's tables are symmetric, so it meets the full
    # row's values and its first flagged point and first bad value are the full row's
    mirrored = exactly_commutative(star) and (phi2 is phi3 or phi2 == phi3)

    def scan_b(b_values):
        phi2_b = phi2.apply(b_values)
        inv2_1b = phi2.apply_inverse(apply_op(conj, 1.0, phi2_b))
        phi3_c = phi3.apply(xs)
        inv3_1c = phi3.apply_inverse(apply_op(conj, 1.0, phi3_c))
        phi1_bc = phi1.apply(apply_op(star, b_values[:, None], xs[None, :]))

        def layout(b, c, bc):  # sides over (rows, b, c) or (rows, pairs (b, c))
            b_1, c_1 = b(inv2_1b), c(inv3_1c)  # b and c pick a table's b- and c-values

            def sides(rows, b0):  # b0 = 0: q's rows are not mirrored
                a = xs[rows, None]
                lhs = phi1.apply_inverse(apply_op(conj, xs[(rows,) + (None,) * bc.ndim], bc))
                inv2_ab = phi2.apply_inverse(apply_op(conj, a, phi2_b))
                inv3_ac = phi3.apply_inverse(apply_op(conj, a, phi3_c))
                r1 = apply_op(star, b(inv2_ab), c_1)
                return lhs, np.maximum(r1, apply_op(star, b_1, c(inv3_ac)))
            return sides

        at = partial(q_condition_at, conj, phis, star)
        if b_values is xs and mirrored and len(xs) ** 3 > _BLOCK:
            pairs, ib, ic = mirror_pairs(xs)
            return scan((xs, pairs), layout(partial(np.take, indices=ib, axis=-1),
                                            partial(np.take, indices=ic, axis=-1),
                                            phi1_bc[ib, ic]), at, evidence)
        return scan((xs, b_values, xs), layout(lambda t: t[..., :, None],
                                               lambda t: t[..., None, :], phi1_bc), at, evidence)

    verdict = scan_b(np.asarray([1.0]))
    return verdict if not verdict.holds else scan_b(xs)


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------


def search_counterexample(cfg: InequalityConfig, grid_step=0.01, budget=5_000_000):
    """Coarse-to-fine scan for a scalar-condition witness within a point budget.

    Returns the first (lexicographic) witness of the coarsest step that finds
    one, or None.  A later step runs only while the points spent stay within
    the budget and its grid within the limit; the first step runs even past
    the budget, so ``grid_step=0.01, budget=1`` scans h = 0.25 alone.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    check_step(grid_step)  # a bad last step would only be priced out, not refused
    cfg.validate()
    steps = [s for s in (0.25, 0.1, 0.05, 0.02) if s > grid_step] + [grid_step]
    spent = 0
    for step in steps:
        try:
            cost = len(_k_grid(cfg, step)) ** 2 * len(cfg.cd_domain.sample(step)) ** 2
        except GridError:  # past any budget; as the first step, the scan raises it
            cost = math.inf
        if spent + cost > budget and spent > 0:
            break
        spent += cost
        verdict = check_scalar_condition(cfg, step)
        if verdict.status == "violated":
            return verdict.witness
        if verdict.status == "hypothesis-failed":
            raise HypothesisError(verdict.detail)
    return None


def search_commutativity_gap(S: FusionOp, star: FusionOp | None = None, grid_step=0.01):
    """Find (a, b, c) where the two argument-order variants of the scalar
    condition for a seminormed integral disagree; None for commutative S.

    Variant 1 is S(a*b, c) >= (S(a,c)*b) v (a*S(b,c)), variant 2 is
    S(c, a*b) >= (S(c,a)*b) v (a*S(c,b)), with * = star.  ``scan`` flags the
    (a, b, c) grid points where they disagree, and the first flagged point
    that the same test on floats confirms is the witness.
    """
    star = star or prod_op()
    xs = axis(0.0, 1.0, grid_step, least=0)
    check_row(len(xs), len(xs))
    S_xy = apply_op(S, xs[:, None], xs[None, :])  # S(x, y)

    def disagree(a, b, c, S_ac, S_bc, S_ca, S_cb):  # S at (a, c), (b, c), (c, a), (c, b)
        ab = apply_op(star, a, b)
        ok1 = (apply_op(S, ab, c)
               >= np.maximum(apply_op(star, S_ac, b), apply_op(star, a, S_bc)) - TOL)
        ok2 = (apply_op(S, c, ab)
               >= np.maximum(apply_op(star, S_ca, b), apply_op(star, a, S_cb)) - TOL)
        return ok1 != ok2

    def sides(rows, b0):  # over (rows, b, c): rhs 1 where the variants disagree; b0 = 0
        return 0.0, disagree(xs[rows, None, None], xs[:, None], xs, S_xy[rows, None, :], S_xy,
                             S_xy.T[rows, None, :], S_xy.T)

    def at(a, b, c):
        return 0.0, float(disagree(a, b, c, apply_op(S, a, c), apply_op(S, b, c),
                                   apply_op(S, c, a), apply_op(S, c, b)))

    verdict = scan((xs, xs, xs), sides, at, f"grid({grid_step})")
    return verdict.witness if verdict.status == "violated" else None
