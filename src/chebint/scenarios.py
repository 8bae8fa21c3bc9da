"""Scenario files: a JSON data model describing measures, functions, fusion
operations and shape functions, plus runners producing versioned reports.

A scenario is a JSON object with a "kind" selecting the check to run
(integrate | dependence | condition | inequality | search | property-run).
One file may hold a single scenario object or a list of them.  Bundled
scenarios live in the package's scenarios/ directory.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import fields
from functools import cache, partial
from importlib import resources

from . import chebyshev as cheb
from . import fusion
from .dependence import (DependenceQuery, is_m_positively_dependent)
from .integral import (integrate_simple, integrate_survival, q_integral,
                       simple_function)
from .measure import (FiniteSpace, MeasureError, MonotoneMeasure, distorted_probability,
                      from_table, necessity_from_possibility,
                      survival_scenario)
from .exprlang import (Expr, ExprError, ParseError, eval_expr, free_vars, parse,
                       parse_interval)
from .scan import EQ_TOL, TOL

REPORT_VERSION = 1


class ScenarioError(Exception):
    pass


# ---------------------------------------------------------------------------
# Builders: JSON blocks -> library objects
# ---------------------------------------------------------------------------


def build_space(block, path="space") -> FiniteSpace:
    labels = _array(block, path)
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            raise ScenarioError(f"{path}[{i}] must be a string, got {label!r}")
    return FiniteSpace(tuple(labels))


def build_measure(block, sp: FiniteSpace, path="measure") -> MonotoneMeasure:
    if not isinstance(block, dict):
        raise ScenarioError(f"{path} must be an object")
    kind = block.get("type", "table")
    if kind == "table":
        if not isinstance(block.get("table"), dict):
            raise ScenarioError("measure table must map atom lists to values")
        entries = {sp.mask_of(key.split()): _number(v, f"{path}.table[{key!r}]")
                   for key, v in block["table"].items()}
        return from_table(sp, entries)
    if kind == "necessity":
        pi = _atom_numbers(block.get("possibility"), sp, f"{path}.possibility")
        with _refused(f"{path}.possibility"):
            return necessity_from_possibility(sp, pi)
    if kind == "distorted":
        p = _atom_numbers(block.get("probability"), sp, f"{path}.probability")
        h = _parsed(block.get("distortion"), f"{path}.distortion")
        with _refused(path):  # p, h or the measure they make
            return distorted_probability(sp, p, h)
    raise ScenarioError(f"{path}.type: unknown measure type {kind!r}")


@contextmanager
def _refused(path):
    """Re-raise a refusal of the library as a ScenarioError that names ``path``."""
    try:
        yield
    except (ExprError, MeasureError) as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def _number(value, path) -> float:
    """A JSON number as a float; strings, booleans, null and containers are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{path} is too large: {value!r}") from None


def _string(value, path) -> str:
    """A JSON string; anything else is an error naming its path."""
    if not isinstance(value, str):
        raise ScenarioError(f"{path} must be a string, got {value!r}")
    return value


def _expression(value, path) -> str:
    """An expression's source text; anything but a string is an error naming its path."""
    if not isinstance(value, str):
        raise ScenarioError(f"{path} must be an expression string, got {value!r}")
    return value


def _parsed(value, path) -> Expr:
    """An expression string, parsed; a parse error names its path."""
    with _refused(path):
        return parse(_expression(value, path))


def _object(block, path) -> dict:
    """A JSON object; anything else is an error naming its path."""
    if not isinstance(block, dict):
        raise ScenarioError(f"{path} must be an object, got {block!r}")
    return block


def _array(block, path) -> list:
    """A JSON list; anything else is an error naming its path."""
    if not isinstance(block, list):
        raise ScenarioError(f"{path} must be a list, got {block!r}")
    return block


def _bounds(block, path) -> tuple:
    """A [lo, hi] pair of numbers with lo <= hi; anything else is an error naming its path."""
    pair = [_number(v, f"{path}[{i}]") for i, v in enumerate(_array(block, path))]
    if len(pair) != 2 or not pair[0] <= pair[1]:
        raise ScenarioError(f"{path} must be [lo, hi] with lo <= hi, got {block!r}")
    return tuple(pair)


def _key(block, key, path):
    """block[key]; a missing key is an error naming its path."""
    if key not in block:
        raise ScenarioError(f"{path}.{key} is missing")
    return block[key]


def _atom_numbers(values, sp: FiniteSpace, path):
    """The numbers a {label: number} block gives the atoms, in the space's atom order."""
    if not isinstance(values, dict):
        raise ScenarioError(f"{path} must map atom labels to numbers")
    for lab in sp.labels:
        _key(values, lab, path)
    return [_number(values[lab], f"{path}.{lab}") for lab in sp.labels]


def _flags(block, names, path) -> dict:
    """A block's "flags" object, whose keys must be among ``names`` and whose
    values must be true or false; anything else is an error naming its path."""
    flags = _object(block.get("flags", {}), f"{path}.flags")
    for key, value in flags.items():
        if key not in names:
            raise ScenarioError(f"{path}.flags.{key}: unknown flag")
        if not isinstance(value, bool):
            raise ScenarioError(f"{path}.flags.{key} must be true or false, got {value!r}")
    return flags


_OP_FLAGS = [f.name for f in fields(fusion.FusionOp) if type(f.default) is bool]


def build_op(block, path="op") -> fusion.FusionOp:
    block = _object({"builtin": block} if isinstance(block, str) else block, path)
    y_bar = _number(block.get("y_bar", 1.0), f"{path}.y_bar")
    if "builtin" in block:
        return fusion.builtin(_string(block["builtin"], f"{path}.builtin"), y_bar)
    args = _array(block.get("args", ["a", "b"]), f"{path}.args")
    if len(args) != 2 or not all(isinstance(a, str) for a in args) or args[0] == args[1]:
        raise ScenarioError(f"{path}.args must be two distinct strings, got {args!r}")
    return fusion.expr_op(block.get("name", "custom"),
                          _parsed(_key(block, "expr", path), f"{path}.expr"), y_bar=y_bar,
                          arg_names=tuple(args), **_flags(block, _OP_FLAGS, path))


def build_shape(block, path="shape") -> cheb.ShapeFunction:
    block = _object({"expr": block} if isinstance(block, str) else block, path)
    _flags(block, (), path)  # a shape takes no flags
    expr = _expression(_key(block, "expr", path), f"{path}.expr")
    inverse, inverse_domain = block.get("inverse"), block.get("inverse_domain")
    return cheb.shape(block.get("name", expr), _parsed(expr, f"{path}.expr"),
                      inverse=None if inverse is None else _parsed(inverse, f"{path}.inverse"),
                      var=_string(block.get("var", "x"), f"{path}.var"),
                      domain=_bounds(block.get("domain", [0.0, 1.0]), f"{path}.domain"),
                      inverse_domain=None if inverse_domain is None
                      else _bounds(inverse_domain, f"{path}.inverse_domain"))


def _triple(block, build, path):
    """Three objects built from a list of three blocks or from one block,
    each given its path."""
    if isinstance(block, list):
        if len(block) != 3:
            raise ScenarioError(f"{path} must hold exactly three entries")
        return tuple(build(b, f"{path}[{i}]") for i, b in enumerate(block))
    built = build(block, path)
    return (built, built, built)


def build_function(block, sp: FiniteSpace, bound=None, path="f"):
    if isinstance(block, dict) and "values" in block:
        bound = _number(block["bound"], f"{path}.bound") if "bound" in block else bound
        block, path = block["values"], f"{path}.values"
    values = (_atom_numbers(block, sp, path) if isinstance(block, dict)
              else [_number(v, f"{path}[{i}]") for i, v in enumerate(_array(block, path))])
    return simple_function(sp, values, bound=bound)


def build_mask(block, sp: FiniteSpace, path) -> int:
    return sp.mask_of(_array(block, path))


def build_cd(block) -> cheb.CdDomain:
    key = next(iter(block), None) if isinstance(block, dict) and len(block) == 1 else None
    numbers = block[key] if key in ("interval", "values") else None
    if isinstance(numbers, list) and numbers:
        numbers = [_number(v, f"config.cd.{key}[{i}]") for i, v in enumerate(numbers)]
        if key == "values" and not any(math.isnan(v) for v in numbers):
            return cheb.cd_values(numbers)
        if key == "interval" and len(numbers) == 2 and numbers[0] <= numbers[1]:
            return cheb.cd_interval(*numbers)
    raise ScenarioError('config.cd must be {"interval": [lo, hi]} with lo <= hi, or '
                        '{"values": [v, ...]} with at least one value and no NaN')


_CONFIG_KEYS = ("inner", "outer", "circ", "triangle", "phi", "psi", "k", "y_bar", "cd")


def build_config(block) -> cheb.InequalityConfig:
    if not isinstance(block, dict):
        raise ScenarioError("config must be an object")
    for key in block:
        if key not in _CONFIG_KEYS:
            raise ScenarioError(f"config.{key}: unknown key")
    for key in _CONFIG_KEYS[:3]:  # inner, outer, circ
        _key(block, key, "config")
    return cheb.config(
        inner=build_op(block["inner"], "config.inner"),
        outer=build_op(block["outer"], "config.outer"),
        circs=_triple(block["circ"], build_op, "config.circ"),
        triangle=build_op(block.get("triangle", "min"), "config.triangle"),
        phis=_triple(block.get("phi", "x"), build_shape, "config.phi"),
        psis=_triple(block.get("psi", "x"), build_shape, "config.psi"),
        k=_number(block.get("k", 1.0), "config.k"),
        y_bar=_number(block.get("y_bar", 1.0), "config.y_bar"),
        cd_domain=build_cd(block["cd"]) if "cd" in block else None,
    )


def build_survival(block, path):
    block = _object(block, path)
    var = _string(block.get("var", "t"), f"{path}.var")
    segments = []
    for j, seg in enumerate(_array(_key(block, "segments", path), f"{path}.segments")):
        if not (isinstance(seg, list) and len(seg) == 2 and all(isinstance(x, str) for x in seg)):
            raise ScenarioError(f"{path}.segments[{j}] must be two strings, "
                                f"[interval, expression], got {seg!r}")
        try:
            interval, expr = parse_interval(seg[0]), parse(seg[1])
        except ParseError as exc:
            raise ScenarioError(f"{path}.segments[{j}]: {exc}") from None
        if unbound := sorted(free_vars(expr) - {var}):
            raise ScenarioError(f"{path}.segments[{j}]: unbound variable {unbound[0]!r}")
        segments.append((interval, expr))
    y_bar = _number(block.get("y_bar", 1.0), f"{path}.y_bar")
    with _refused(path):
        return survival_scenario(y_bar, segments, var=var)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _witness(w):
    return list(w) if w else None


def _option(override, data, key, default):
    """A command-line override if given, else the scenario's value, else the default."""
    return override if override is not None else data.get(key, default)


def _choice(data, key, allowed, default):
    """data[key] (default when absent), which must be the default or one of allowed."""
    value = data.get(key, default)
    if value != default and value not in allowed:
        raise ScenarioError(f"scenario key {key!r} must be one of "
                            f"{', '.join(allowed)}; got {value!r}")
    return value


def _flag(data, key):
    """data[key] (false when absent), which must be true or false."""
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise ScenarioError(f"scenario key {key!r} must be true or false, got {value!r}")
    return value


def _check_real(value, source, zero_ok=False):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (0 <= value if zero_ok else 0 < value) or not value <= sys.float_info.max):
        sign = "non-negative" if zero_ok else "positive"
        raise ScenarioError(f"{source} must be a finite {sign} number, got {value!r}")


def _check_count(value, source, least):
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        sign = "non-negative" if least == 0 else "positive"
        raise ScenarioError(f"{source} must be a {sign} integer, got {value!r}")


def _run_integrate(data, grid_step, seed, budget, tolerance):
    step = _option(grid_step, data, "grid", 1e-4)
    results = {}
    for i, item in enumerate(_array(_key(data, "integrals", "scenario"), "integrals")):
        path = f"integrals[{i}]"
        item = _object(item, path)
        op = build_op(item.get("op", "min"), f"{path}.op")
        if "survival" in item:
            res = integrate_survival(op, build_survival(item["survival"], f"{path}.survival"),
                                     grid_step=step)
        else:
            sp = build_space(_key(item, "space", path), f"{path}.space")
            m = build_measure(_key(item, "measure", path), sp, f"{path}.measure")
            bound = _number(item["bound"], f"{path}.bound") if "bound" in item else None
            f = build_function(_key(item, "f", path), sp, bound=bound, path=f"{path}.f")
            D = build_mask(item.get("set", list(sp.labels)), sp, f"{path}.set")
            if item.get("integral") == "q":
                res = q_integral(op, m, f)
            else:
                res = integrate_simple(op, m, D, f)
        if not isinstance(name := _key(item, "name", path), str):
            raise ScenarioError(f"{path}.name must be a string, got {name!r}")
        results[name] = {"value": res.value, "method": res.method}
    report = {"integrals": results, "verdict": "computed"}
    if "equality" in data:
        eq = _object(data["equality"], "equality")
        values = {name: r["value"] for name, r in results.items()}
        lhs = eval_expr(_parsed(eq.get("lhs"), "equality.lhs"), values)
        rhs = eval_expr(_parsed(eq.get("rhs"), "equality.rhs"), values)
        tol = _option(tolerance, eq, "tol", TOL)
        _check_real(tol, "scenario key 'equality.tol'", zero_ok=True)
        holds = abs(lhs - rhs) <= tol
        report["equality"] = {"lhs": lhs, "rhs": rhs, "holds": holds}
        report["verdict"] = "equality-holds" if holds else "equality-violated"
    return report


def _run_dependence(data, grid_step, seed, budget, tolerance):
    sp = build_space(_key(data, "space", "scenario"))
    m = build_measure(_key(data, "measure", "scenario"), sp)
    k = _number(data.get("k", 1.0), "scenario key 'k'")
    f = build_function(_key(data, "f", "scenario"), sp, bound=k)
    g = build_function(_key(data, "g", "scenario"), sp, bound=k, path="g")
    for path, fn in (("f", f), ("g", g)):
        if fn.bound > k + EQ_TOL:  # as DependenceQuery refuses it
            raise ScenarioError(f"{path}.bound: f and g must be bounded by k")
    A = build_mask(data.get("A", list(sp.labels)), sp, "A")
    B = build_mask(data.get("B", list(sp.labels)), sp, "B")
    tri = build_op(_key(data, "triangle", "scenario"), "triangle")
    query = DependenceQuery(m, f, g, A, B, tri, k,
                            allow_range_escape=_flag(data, "allow_range_escape"))
    verdict = is_m_positively_dependent(query)
    return {"holds": verdict.holds, "witness": _witness(verdict.witness),
            "warnings": list(verdict.warnings), "detail": verdict.detail,
            "evidence": "exact", "verdict": "dependent" if verdict.holds else "not-dependent"}


def _run_condition(data, grid_step, seed, budget, tolerance):
    step = _option(grid_step, data, "grid", 0.01)
    variant = _choice(data, "variant", ("c1", "c2", "q"), "c1")
    if variant == "q":
        conj = build_op(_key(data, "conj", "scenario"), "conj")
        star = build_op(_key(data, "star", "scenario"), "star")
        phis = _triple(data.get("phi", {"expr": "x", "inverse": "x"}), build_shape, "phi")
        verdict = cheb.q_corollary_condition(conj, phis, star, grid_step=step)
    else:
        cfg = build_config(_key(data, "config", "scenario"))
        check = cheb.check_condition_C2 if variant == "c2" else cheb.check_scalar_condition
        verdict = check(cfg, grid_step=step)
    report = {"status": verdict.status, "witness": _witness(verdict.witness),
              "lhs": verdict.lhs, "rhs": verdict.rhs, "detail": verdict.detail,
              "evidence": verdict.evidence, "verdict": verdict.status}
    if "recheck" in data and variant == "c1":
        point = data["recheck"].get("point") if isinstance(data["recheck"], dict) else None
        if not isinstance(point, list) or len(point) != 4:
            raise ScenarioError(f"recheck.point must be four numbers (a, b, c, d), got {point!r}")
        point = [_number(v, f"recheck.point[{i}]") for i, v in enumerate(point)]
        if verdict.status != "hypothesis-failed":
            lhs, rhs = cheb.scalar_condition_at(cfg, *point)
            report["recheck"] = {"point": point, "lhs": lhs, "rhs": rhs,
                                 "violated": lhs < rhs - TOL}
    return report


def _run_inequality(data, grid_step, seed, budget, tolerance):
    step = _option(grid_step, data, "grid", 0.01)
    pipeline = _choice(data, "pipeline", ("sugeno", "theorem-forward", "any-functions"), None)
    sp = build_space(_key(data, "space", "scenario"))
    m = build_measure(_key(data, "measure", "scenario"), sp)
    cfg = None if pipeline == "sugeno" else build_config(_key(data, "config", "scenario"))
    k = _number(data.get("y_bar", 1.0), "scenario key 'y_bar'") if cfg is None else cfg.k
    f = build_function(_key(data, "f", "scenario"), sp, bound=k)
    g = build_function(_key(data, "g", "scenario"), sp, bound=k, path="g")
    A = build_mask(data.get("A", list(sp.labels)), sp, "A")
    B = None if cfg is None else build_mask(data.get("B", list(sp.labels)), sp, "B")
    evidence = f"grid({step})"
    if pipeline == "sugeno":
        rep = cheb.sugeno_chebyshev(m, f, g, A,
                                    _triple(data.get("phi", "x"), build_shape, "phi"),
                                    _triple(data.get("psi", "x"), build_shape, "psi"),
                                    build_op(_key(data, "star", "scenario"), "star"),
                                    grid_step=step, y_bar=k)
    elif pipeline == "theorem-forward":
        rep = cheb.theorem1_forward(cfg, m, f, g, A, B, grid_step=step)
    elif pipeline == "any-functions":
        trials = data.get("trials", 200)
        seed = _option(seed, data, "seed", 0)
        rep = cheb.any_functions_check(cfg, m, trials=trials, seed=seed, grid_step=step)
        evidence = f"random-trials({trials}, seed {seed})"
    else:
        try:
            outcome = cheb.check_integral_inequality(cfg, m, f, g, A, B)
        except cheb.HypothesisError as exc:
            return {"verdict": "hypothesis-failed", "detail": str(exc), "evidence": "exact"}
        report = {"lhs": outcome.lhs, "rhs": outcome.rhs, "holds": outcome.holds,
                  "trace": outcome.trace, "evidence": "exact",
                  "verdict": "holds" if outcome.holds else "violated"}
        if _flag(data, "expect_equality"):
            equal = abs(outcome.lhs - outcome.rhs) <= (TOL if tolerance is None else tolerance)
            report["equality"] = equal
            report["verdict"] = "equality-holds" if equal else "equality-violated"
        return report
    report = {"stages": [{"name": s.name, "status": s.status, "detail": s.detail}
                         for s in rep.stages],
              "status": rep.status, "contradiction": rep.contradiction,
              "verdict": rep.status, "evidence": evidence}
    if rep.outcome is not None:
        report.update(lhs=rep.outcome.lhs, rhs=rep.outcome.rhs, holds=rep.outcome.holds)
    return report


def _run_search(data, grid_step, seed, budget, tolerance):
    step = _option(grid_step, data, "grid", 0.01)
    cfg = build_config(_key(data, "config", "scenario"))
    try:
        witness = cheb.search_counterexample(cfg, grid_step=step,
                                             budget=_option(budget, data, "budget", 5_000_000))
    except cheb.HypothesisError as exc:
        return {"verdict": "hypothesis-failed", "detail": str(exc)}
    return {"witness": _witness(witness),
            "verdict": "witness-found" if witness else "no-witness",
            "evidence": f"coarse-to-fine grid down to {step}"}


def _run_property(data, grid_step, seed, budget, tolerance):
    step = _option(grid_step, data, "grid", 0.01)
    prop = _key(data, "property", "scenario")
    if prop == "dominates":
        verdict = fusion.dominates(build_op(_key(data, "outer", "scenario"), "outer"),
                                   build_op(_key(data, "inner", "scenario"), "inner"),
                                   grid_step=step)
        return {"holds": verdict.holds, "witness": _witness(verdict.witness),
                "verdict": verdict.status, "evidence": verdict.evidence}
    if prop == "commutativity-gap":
        witness = cheb.search_commutativity_gap(build_op(_key(data, "op", "scenario")),
                                                build_op(data.get("star", "prod"), "star"),
                                                grid_step=step)
        return {"witness": _witness(witness),
                "verdict": "gap-found" if witness else "no-gap",
                "evidence": f"grid({step})"}
    raise ScenarioError(f"unknown property {prop!r}")


_RUNNERS = {
    "integrate": _run_integrate,
    "dependence": _run_dependence,
    "condition": _run_condition,
    "inequality": _run_inequality,
    "search": _run_search,
    "property-run": _run_property,
}

# The one mapping from a report's verdict to the exit code: 0 the claim holds
# or the computation succeeded, 1 it is refuted, 2 a hypothesis failed.  A
# verdict missing here exits 2, never 0.
EXIT_CODES = {
    **dict.fromkeys(("computed", "equality-holds", "dependent", "holds", "holds-on-grid",
                     "no-witness", "no-gap"), 0),
    **dict.fromkeys(("equality-violated", "not-dependent", "violated", "witness-found",
                     "gap-found"), 1),
    "hypothesis-failed": 2,
}


def run_scenario(data, grid_step=None, seed=None, budget=None, tolerance=None):
    """Run one scenario dict; returns (exit_code, report dict).

    grid_step, seed, budget and tolerance override the scenario's own values;
    tolerance applies to both equality checks (an integrate block's
    "equality" and an inequality's "expect_equality").  The exit code is
    EXIT_CODES[report["verdict"]], or 2 for a verdict missing from it.
    """
    kind = _object(data, "scenario").get("kind")
    if not isinstance(kind, str) or kind not in _RUNNERS:
        raise ScenarioError(f"unknown scenario kind {kind!r}")
    if tolerance is not None:
        _check_real(tolerance, "tolerance", zero_ok=True)
    for key, label, override, check in (
            ("grid", "grid step", grid_step, _check_real),
            ("budget", "budget", budget, partial(_check_count, least=1)),
            ("seed", "seed", seed, partial(_check_count, least=0)),
            ("trials", "trials", None, partial(_check_count, least=1))):
        if override is not None:
            check(override, label)
        if key in data:
            check(data[key], f"scenario key {key!r}")
    report = _RUNNERS[kind](data, grid_step, seed, budget, tolerance)
    report["report_version"] = REPORT_VERSION
    report["scenario"] = data.get("name", "<inline>")
    report["kind"] = kind
    return EXIT_CODES.get(report["verdict"], 2), report


# ---------------------------------------------------------------------------
# Bundled registry
# ---------------------------------------------------------------------------


def _bundle_dir():
    return resources.files("chebint") / "scenarios"


@cache
def _registry():
    """Name -> JSON text of every bundled scenario block, read once per process.

    A name given by two blocks is an error, not a choice of one of them.
    """
    table = {}
    for entry in _bundle_dir().iterdir():
        if entry.name.endswith(".json"):
            for block in _load_blocks(entry.read_text()):
                name = block["name"]
                if name in table:
                    raise ScenarioError(f"bundled scenario {name!r} is defined twice")
                table[name] = json.dumps(block)
    return table


def list_scenarios():
    return sorted(_registry())


def _load_blocks(text):
    data = json.loads(text)
    if not isinstance(data, list):
        return [_object(data, "scenario")]
    return [_object(block, f"scenario[{i}]") for i, block in enumerate(data)]


def load_scenario(name):
    """The bundled scenario ``name``, as a fresh dict the caller may change."""
    try:
        return json.loads(_registry()[name])
    except KeyError:
        raise ScenarioError(f"unknown scenario {name!r}") from None


def load_scenario_file(path):
    with open(path, encoding="utf-8") as fh:
        return _load_blocks(fh.read())
