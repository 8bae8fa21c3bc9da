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
from .exprlang import Expr, eval_expr, parse
from .extreal import INF_CAP as _INF_CAP
from .fusion import (FusionError, FusionOp, apply_op, eval_op, leq_min, min_op, monotone_box,
                     prod_op)
from .integral import (IntegralError, SimpleFunction, _integrate_values, fitted_bound,
                       simple_function)
from .measure import MonotoneMeasure
from .scan import (EQ_TOL, TOL, GridError, Verdict, axis, check_row, check_step, first_flagged,
                   scan, scan_separable)


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

    Floats are checked and clamped in plain Python (the clamp matches
    ``np.clip``, signed zeros included); anything else goes through numpy,
    and an array x gives an array of its shape, also for a constant expr.
    """
    lo, hi = domain
    if type(x) is float:
        if x < lo - TOL or x > hi + TOL:
            raise ShapeDomainError(name, x, domain)
        return eval_expr(expr, {var: float(lo) if x < lo else float(hi) if x > hi else x})
    arr = np.asarray(x, dtype=float)
    # fmin/fmax skip NaNs as the comparisons do, so a NaN beside an
    # out-of-range value still ends in a ShapeDomainError
    if arr.size and (np.fmin.reduce(arr, axis=None) < lo - TOL
                     or np.fmax.reduce(arr, axis=None) > hi + TOL):
        bad = arr[first_flagged((arr < lo - TOL) | (arr > hi + TOL))]
        raise ShapeDomainError(name, float(bad), domain)
    clipped = np.clip(arr, lo, hi)
    out = eval_expr(expr, {var: clipped if arr.ndim else float(clipped)})
    return np.full(arr.shape, out) if arr.ndim and type(out) is float else out


@dataclass(frozen=True)
class ShapeFunction:
    """A one-variable transform on [domain[0], domain[1]] with declared flags."""

    name: str
    expr: Expr
    var: str = "x"
    domain: tuple = (0.0, 1.0)
    non_decreasing: bool = True
    increasing: bool = False
    left_continuous: bool = False
    right_continuous: bool = False
    inverse: Expr | None = None
    inverse_domain: tuple | None = None

    def apply(self, x):
        """The transform at x: a float for a float, and for an array of at
        least one dimension a float64 array of its shape, also for a constant
        expression.  Values outside the domain raise ShapeDomainError."""
        return _checked_eval(self.expr, self.var, x, self.name, self.domain)

    def apply_inverse(self, y):
        """The declared inverse at y, with the same contract as ``apply``."""
        if self.inverse is None:
            raise HypothesisError(f"no inverse declared for shape function {self.name!r}")
        lo, hi = self.inverse_domain if self.inverse_domain else (
            float(self.apply(self.domain[0])), float(self.apply(self.domain[1])))
        return _checked_eval(self.inverse, self.var, y, f"{self.name}^-1", (lo, hi))

    def validate_inverse(self, grid_step=0.01, tol=TOL):
        """Round-trip check body(inverse(y)) = y and inverse(body(x)) = x."""
        if self.inverse is None:
            return True
        xs = axis(*self.domain, grid_step, least=2)
        ys = self.apply(xs)
        back = self.apply_inverse(ys)
        if np.max(np.abs(back - xs)) > tol:
            return False
        lo, hi = self.inverse_domain if self.inverse_domain else (float(ys[0]), float(ys[-1]))
        zs = np.linspace(lo, hi, len(xs))
        fwd = self.apply(self.apply_inverse(zs))
        return bool(np.max(np.abs(fwd - zs)) <= tol)


def shape(name, source, inverse=None, var="x", domain=(0.0, 1.0),
          inverse_domain=None, **flags) -> ShapeFunction:
    body = parse(source) if isinstance(source, str) else source
    inv = parse(inverse) if isinstance(inverse, str) else inverse
    return ShapeFunction(name, body, var, tuple(domain), inverse=inv,
                         inverse_domain=tuple(inverse_domain) if inverse_domain else None,
                         **flags)


# Memoized: a shape is frozen, and building one parses its source and compiles
# fresh closures.  typed, so y_bar=1 and y_bar=1.0 keep their own domains.
@lru_cache(maxsize=64, typed=True)
def identity_shape(y_bar=1.0) -> ShapeFunction:
    return shape("id", "x", inverse="x", domain=(0.0, y_bar),
                 non_decreasing=True, increasing=True,
                 left_continuous=True, right_continuous=True)


@lru_cache(maxsize=64, typed=True)  # a raised ValueError is not cached
def power_shape(p, y_bar=1.0) -> ShapeFunction:
    if p <= 0:
        raise ValueError("exponent must be positive")
    return shape(f"x^{p}", f"x^{p}", inverse=f"x^{1.0 / p}", domain=(0.0, y_bar),
                 non_decreasing=True, increasing=True,
                 left_continuous=True, right_continuous=True)


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
        if self.values is not None:
            return np.asarray(sorted(self.values), dtype=float)
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
        if self.cd_domain is None:
            raise HypothesisError("the c/d domain (config.cd) is missing")
        top = min(self.cd_domain.sup, _INF_CAP)
        for i, (phi, circ) in enumerate(zip(self.phis, self.circs), start=1):
            phi_top = float(phi.apply(min(self.y_bar, phi.domain[1])))
            try:
                val = eval_op(circ, phi_top, top)
            except FusionError as exc:
                raise HypothesisError(f"phi{i}(y_bar) circ{i} sup(cd): {exc}") from None
            if val > phi_top + TOL:
                raise HypothesisError(
                    f"phi{i}(y_bar) circ{i} sup(cd) = {val} exceeds phi{i}(y_bar) = {phi_top}"
                )
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


def _row_values(table, rows, ndim):
    """The block ``rows`` of a table over a scan's first axis, ``table[rows]``
    with ``ndim`` unit axes after the first."""
    block = table[rows]
    return block.reshape(block.shape[:1] + (1,) * ndim + block.shape[1:])


def _k_grid(cfg, grid_step):
    return axis(0.0, cfg.k, grid_step)


def scalar_condition_at(cfg: InequalityConfig, a, b, c, d):
    """Direct (lhs, rhs) evaluation of the four-variable scalar condition."""
    lhs = cfg.psi1.apply(eval_op(cfg.circ1, float(cfg.phi1.apply(eval_op(cfg.inner, a, b))),
                                 eval_op(cfg.triangle, c, d)))
    r2 = cfg.psi2.apply(eval_op(cfg.circ2, float(cfg.phi2.apply(a)), c))
    r3 = cfg.psi3.apply(eval_op(cfg.circ3, float(cfg.phi3.apply(b)), d))
    rhs = eval_op(cfg.outer, float(r2), float(r3))
    return float(lhs), float(rhs)


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
            partial(scalar_condition_at, cfg), evidence, monotone_box(cfg.outer))
    except HypothesisError as exc:
        return Verdict("hypothesis-failed", detail=str(exc))


def c2_condition_at(cfg: InequalityConfig, a, b, c):
    dbar = min(cfg.cd_domain.sup, _INF_CAP)
    lhs = cfg.psi1.apply(eval_op(cfg.circ1, float(cfg.phi1.apply(eval_op(cfg.inner, a, b))), c))
    t1 = eval_op(cfg.outer,
                 float(cfg.psi2.apply(eval_op(cfg.circ2, float(cfg.phi2.apply(a)), c))),
                 float(cfg.psi3.apply(eval_op(cfg.circ3, float(cfg.phi3.apply(b)), dbar))))
    t2 = eval_op(cfg.outer,
                 float(cfg.psi2.apply(eval_op(cfg.circ2, float(cfg.phi2.apply(a)), dbar))),
                 float(cfg.psi3.apply(eval_op(cfg.circ3, float(cfg.phi3.apply(b)), c))))
    return float(lhs), max(float(t1), float(t2))


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

        def sides(rows):  # over (rows, b, c)
            phi1_sab = cfg.phi1.apply(apply_op(cfg.inner, _row_values(ab, rows, 1), ab))
            lhs = cfg.psi1.apply(apply_op(cfg.circ1, phi1_sab[..., None], cd))
            t1 = apply_op(cfg.outer, _row_values(psi2_ac, rows, 1), psi3_bdbar[:, None])
            t2 = apply_op(cfg.outer, _row_values(psi2_adbar, rows, 2), psi3_bc)
            return lhs, np.maximum(t1, t2)

        return scan((ab, ab, cd), sides, partial(c2_condition_at, cfg), evidence)
    except HypothesisError as exc:
        return Verdict("hypothesis-failed", detail=str(exc))


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
        vals = [float(phi.apply(v)) for v in values]
        if f.space != m.space:
            raise IntegralError("function and measure live on different spaces")
        value, method, cands = _integrate_values(op, m, D, vals, fitted_bound(vals))
        trace[key] = {"value": value, "method": method, "candidates": cands}
    lhs = float(cfg.psi1.apply(trace["integral_product"]["value"]))
    rhs = eval_op(cfg.outer, float(cfg.psi2.apply(trace["integral_f"]["value"])),
                  float(cfg.psi3.apply(trace["integral_g"]["value"])))
    return InequalityOutcome(lhs, float(rhs), lhs >= rhs - TOL, trace)


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


def _stage(name, verdict: Verdict, fail="fail") -> Stage:
    """The stage of a verdict: pass when it holds, ``fail`` when it is
    violated, else hypothesis-failed.  Its detail is the witness, else the
    verdict's detail, else its warnings."""
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
    stages = []
    cfg = replace(cfg, cd_domain=cd_values(m.value_range()))
    try:
        cfg.validate()
        if not cfg.outer.left_continuous_in_first or not cfg.outer.left_continuous_in_second:
            raise HypothesisError(f"outer operation {cfg.outer.name!r} must be declared left-continuous")
        stages.append(Stage("config-hypotheses", "pass"))
    except HypothesisError as exc:
        stages.append(Stage("config-hypotheses", "hypothesis-failed", str(exc)))
    try:
        query = DependenceQuery(m, f, g, A, B, cfg.triangle, cfg.k, allow_range_escape=True)
        stages.append(_stage("m-positive-dependence", is_m_positively_dependent(query)))
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        stages.append(Stage("m-positive-dependence", "hypothesis-failed", str(exc)))
    stages.append(_stage("scalar-condition", check_scalar_condition(cfg, grid_step)))
    stage, outcome = _integral_stage(cfg, m, f, g, A, B)
    return PipelineReport(tuple(stages) + (stage,), outcome)


def sugeno_chebyshev(m: MonotoneMeasure, f: SimpleFunction, g: SimpleFunction, A: int,
                     phis, psis, star: FusionOp, grid_step=0.01, y_bar=1.0) -> PipelineReport:
    """Comonotone Chebyshev inequality for the Sugeno integral.

    Checks star <= min, matching phi tops, psi1 >= psi_j, the sandwich
    psi_j(phi_j(x)) <= x <= psi1(phi1(x)), and comonotonicity; then asserts
    the integral inequality with circ_i = min, outer = star, B = A.
    """
    phi1, phi2, phi3 = phis
    psi1, psi2, psi3 = psis
    stages = []
    stages.append(_stage("star-leq-min", leq_min(star, grid_step), fail="hypothesis-failed"))
    try:
        tops = [float(p.apply(min(y_bar, p.domain[1]))) for p in phis]
        if abs(tops[0] - tops[1]) > TOL or abs(tops[0] - tops[2]) > TOL:
            raise HypothesisError(f"phi tops differ: {tops}")
        stages.append(Stage("phi-tops-equal", "pass"))
    except HypothesisError as exc:
        stages.append(Stage("phi-tops-equal", "hypothesis-failed", str(exc)))
    try:
        for j, psij in ((2, psi2), (3, psi3)):
            lo = max(psi1.domain[0], psij.domain[0])
            hi = min(psi1.domain[1], psij.domain[1])
            xs = axis(lo, hi, grid_step)
            if (bad := first_flagged(psi1.apply(xs) < psij.apply(xs) - TOL)) is not None:
                raise HypothesisError(f"psi1 < psi{j} at x={float(xs[bad])}")
        stages.append(Stage("psi1-dominates", "pass"))
    except HypothesisError as exc:
        stages.append(Stage("psi1-dominates", "hypothesis-failed", str(exc)))
    try:
        xs = axis(0.0, y_bar, grid_step)
        if (bad := first_flagged(psi1.apply(phi1.apply(xs)) < xs - TOL)) is not None:
            raise HypothesisError(f"psi1(phi1(x)) < x at x={float(xs[bad])}")
        for j, phij, psij in ((2, phi2, psi2), (3, phi3, psi3)):
            if (bad := first_flagged(psij.apply(phij.apply(xs)) > xs + TOL)) is not None:
                raise HypothesisError(f"psi{j}(phi{j}(x)) > x at x={float(xs[bad])}")
        stages.append(Stage("sandwich", "pass"))
    except HypothesisError as exc:
        stages.append(Stage("sandwich", "hypothesis-failed", str(exc)))
    stages.append(_stage("comonotonicity", is_comonotone(f, g, A)))
    mn = min_op(y_bar=y_bar)
    cfg = config(star, star, (mn, mn, mn), mn, phis, psis,
                 k=y_bar, y_bar=y_bar, cd_domain=cd_values(m.value_range()))
    stage, outcome = _integral_stage(cfg, m, f, g, A, A)
    return PipelineReport(tuple(stages) + (stage,), outcome)


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
    if trials < 1:
        raise ValueError(f"trials must be a positive count, got {trials}")
    stages = []
    if replace(cfg.outer, name=cfg.inner.name) != cfg.inner:  # names aside, as operations
        stages.append(Stage("outer-equals-inner", "hypothesis-failed",
                            "this pipeline requires outer = inner"))
    else:
        stages.append(Stage("outer-equals-inner", "pass"))
    try:
        stages.append(_stage("measure-supports-all-pairs",
                             measure_supports_all_pairs(m, cfg.triangle, allow_range_escape=True)))
    except Exception as exc:  # noqa: BLE001
        stages.append(Stage("measure-supports-all-pairs", "hypothesis-failed", str(exc)))
    stages.append(_stage("scalar-condition", check_scalar_condition(
        replace(cfg, cd_domain=cd_values(m.value_range())), grid_step)))
    rng = np.random.default_rng(seed)
    n = m.space.n
    failures = 0
    first = None
    outcome = None
    for _ in range(trials):
        # one draw of both functions' values gives what a draw per function
        # gives; the masks keep a scalar draw each, cheaper than one sized draw
        fg = rng.uniform(0.0, cfg.k, 2 * n).tolist()
        f = simple_function(m.space, fg[:n], bound=cfg.k)
        g = simple_function(m.space, fg[n:], bound=cfg.k)
        A = int(rng.integers(1, m.space.full_mask + 1))
        B = int(rng.integers(1, m.space.full_mask + 1))
        try:
            outcome = check_integral_inequality(cfg, m, f, g, A, B)
        except (HypothesisError, IntegralError, FusionError) as exc:
            return PipelineReport(tuple(stages) + (Stage("random-trials", "hypothesis-failed",
                                                         str(exc)),))
        if not outcome.holds:
            failures += 1
            if first is None:
                first = (f.values, g.values, A, B, outcome.lhs, outcome.rhs)
    stages.append(Stage("random-trials", "pass" if failures == 0 else "fail",
                        f"{trials} trials, {failures} violations, seed {seed}"
                        + (f", first {first}" if first else "")))
    return PipelineReport(tuple(stages), outcome)


# ---------------------------------------------------------------------------
# q-integral corollary condition
# ---------------------------------------------------------------------------


def q_condition_at(conj: FusionOp, phis, star: FusionOp, a, b, c):
    phi1, phi2, phi3 = phis
    lhs = phi1.apply_inverse(eval_op(conj, a, float(phi1.apply(eval_op(star, b, c)))))
    r1 = eval_op(star,
                 float(phi2.apply_inverse(eval_op(conj, a, float(phi2.apply(b))))),
                 float(phi3.apply_inverse(eval_op(conj, 1.0, float(phi3.apply(c))))))
    r2 = eval_op(star,
                 float(phi2.apply_inverse(eval_op(conj, 1.0, float(phi2.apply(b))))),
                 float(phi3.apply_inverse(eval_op(conj, a, float(phi3.apply(c))))))
    return float(lhs), max(float(r1), float(r2))


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
            if abs(float(phi.apply(0.0))) > EQ_TOL:
                raise HypothesisError(f"phi{i}(0) = {float(phi.apply(0.0))}, expected 0")
            top = float(phi.apply(1.0))
            if eval_op(conj, 1.0, top) > top + TOL:
                raise HypothesisError(f"1 conj phi{i}(1) exceeds phi{i}(1)")
    except HypothesisError as exc:
        return Verdict("hypothesis-failed", detail=str(exc))
    xs = axis(0.0, 1.0, grid_step, least=0)
    check_row(len(xs), len(xs))
    evidence = f"grid({grid_step}), boundary slice b=1 scanned first"

    def scan_b(b_values):
        phi2_b = phi2.apply(b_values)
        inv2_1b = phi2.apply_inverse(apply_op(conj, 1.0, phi2_b))
        phi3_c = phi3.apply(xs)
        inv3_1c = phi3.apply_inverse(apply_op(conj, 1.0, phi3_c))
        phi1_bc = phi1.apply(apply_op(star, b_values[:, None], xs[None, :]))

        def sides(rows):  # over (rows, b, c)
            a = _row_values(xs, rows, 1)
            lhs = phi1.apply_inverse(apply_op(conj, _row_values(xs, rows, 2), phi1_bc))
            inv2_ab = phi2.apply_inverse(apply_op(conj, a, phi2_b))
            inv3_ac = phi3.apply_inverse(apply_op(conj, a, phi3_c))
            r1 = apply_op(star, inv2_ab[..., None], inv3_1c)
            r2 = apply_op(star, inv2_1b[:, None], inv3_ac[..., None, :])
            return lhs, np.maximum(r1, r2)

        return scan((xs, b_values, xs), sides, partial(q_condition_at, conj, phis, star), evidence)

    verdict = scan_b(np.asarray([1.0]))
    return verdict if not verdict.holds else scan_b(xs)


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------


def search_counterexample(cfg: InequalityConfig, grid_step=0.01, budget=5_000_000):
    """Coarse-to-fine scan for a scalar-condition witness within a point budget.

    Returns the first (lexicographic) witness found on the finest grid the
    budget and the grid limit allowed, or None.
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

    def sides(rows):  # over (rows, b, c): rhs 1 where the variants disagree
        return 0.0, disagree(xs[rows, None, None], xs[:, None], xs, S_xy[rows, None, :], S_xy,
                             S_xy.T[rows, None, :], S_xy.T)

    def at(a, b, c):
        return 0.0, float(disagree(a, b, c, apply_op(S, a, c), apply_op(S, b, c),
                                   apply_op(S, c, a), apply_op(S, c, b)))

    verdict = scan((xs, xs, xs), sides, at, f"grid({grid_step})")
    return verdict.witness if verdict.status == "violated" else None
