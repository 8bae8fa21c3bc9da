"""Spans around chebint's public functions, recorded from outside the package.

`Tracer.install()` replaces each listed function with a wrapper in every
loaded chebint module that holds it, including names re-imported into other
modules (such as ``chebyshev.apply_op``) and the package's own re-exports;
methods are wrapped on their class.  Each call records a span (name, parent,
start, end) in memory, and its self time (duration minus the time covered by
child spans) is added to its layer's totals.  Hooks derive work counts from
the arguments and results: points scanned, broadcast elements, table sizes.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from chebint import chebyshev as cheb
from chebint import dependence, exprlang, fusion, integral, measure, scenarios


def _grid_len(top, step):
    return int(round(top / step)) + 1


def _index(value, step):
    return int(round(value / step))


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# --- hooks: (tracer, args, kwargs, result, duration, self time) -------------


def _eval_expr_hook(t, args, kwargs, result, dur, self_s):
    bindings = _arg(args, kwargs, 1, "bindings", {})
    if any(np.ndim(v) > 0 for v in bindings.values()):
        t.count("exprlang.eval_expr.array_calls")


def _apply_op_hook(t, args, kwargs, result, dur, self_s):
    t.count("fusion.apply_op.elements", int(np.size(result)))


def _dominates_hook(t, args, kwargs, result, dur, self_s):
    step = _arg(args, kwargs, 2, "grid_step", 0.01)
    count = _grid_len(1.0, step)
    rows = count if result.holds else _index(result.witness[0], step) + 1
    t.count("fusion.dominates.points", rows * count ** 3)


def _sized(label):
    def hook(t, args, kwargs, result, dur, self_s):
        t.add_time(f"{label}.self_s.n{args[0].n}", self_s)
    return hook


def _pair_scan_hook(t, args, kwargs, result, dur, self_s):
    t.count("measure.pair_scan.entries", 4 ** args[0].space.n)


def _candidates_hook(t, args, kwargs, result, dur, self_s):
    t.count("integral.integrate_simple.candidates", len(result.candidates))


def _escapes_hook(t, args, kwargs, result, dur, self_s):
    m = args[0]
    t.count("dependence.triangle_range_escapes.pairs", len(t.original_value_range(m)) ** 2)
    t.add_time(f"dependence.triangle_range_escapes.self_s.n{m.space.n}", self_s)


def _scan_points(t, points, step, dur, c1):
    t.count("chebyshev.scan.points", points)
    if c1:
        t.add_time(f"c1.h{step:g}.seconds", dur)
        t.count(f"c1.h{step:g}.points", points)


def _condition_rows(args, kwargs, result):
    """(step, |a,b grid|, |c,d domain|, a-rows scanned) of a c1 or c2 scan."""
    cfg = args[0]
    step = _arg(args, kwargs, 1, "grid_step", 0.01)
    n_ab = _grid_len(cfg.k, step)
    n_cd = len(cfg.cd_domain.sample(step)) if cfg.cd_domain else 0
    if result.status == "hypothesis-failed":
        rows = 0
    elif result.status == "violated":  # rows scanned up to the witness's a
        rows = _index(result.witness[0], cfg.k / (n_ab - 1)) + 1
    else:
        rows = n_ab
    return step, n_ab, n_cd, rows


def _c1_hook(t, args, kwargs, result, dur, self_s):
    step, n_ab, n_cd, rows = _condition_rows(args, kwargs, result)
    _scan_points(t, rows * n_ab * n_cd ** 2, step, dur, c1=True)


def _c2_hook(t, args, kwargs, result, dur, self_s):
    step, n_ab, n_cd, rows = _condition_rows(args, kwargs, result)
    _scan_points(t, rows * n_ab * n_cd, step, dur, c1=False)


def _q_hook(t, args, kwargs, result, dur, self_s):
    step = _arg(args, kwargs, 3, "grid_step", 0.01)
    count = _grid_len(1.0, step)
    if result.status == "hypothesis-failed":
        points = 0
    elif result.status == "violated" and result.witness[1] == 1.0:  # b = 1 slice, scanned first
        points = (_index(result.witness[0], step) + 1) * count
    elif result.status == "violated":
        points = count * count + (_index(result.witness[0], step) + 1) * count * count
    else:
        points = count * count + count ** 3
    _scan_points(t, points, step, dur, c1=False)


# label -> (owner, attribute, hook); a label may cover several functions
TARGETS = (
    ("exprlang.eval_expr", exprlang, "eval_expr", _eval_expr_hook),
    ("exprlang.parse", exprlang, "parse", None),
    ("fusion.eval_op", fusion, "eval_op", None),
    ("fusion.apply_op", fusion, "apply_op", _apply_op_hook),
    ("fusion.dominates", fusion, "dominates", _dominates_hook),
    ("measure.from_table", measure, "from_table", _sized("measure.from_table")),
    ("measure.value_range", measure.MonotoneMeasure, "value_range", None),
    ("measure.pair_scan", measure, "is_minitive", _pair_scan_hook),
    ("measure.pair_scan", measure, "is_subadditive", _pair_scan_hook),
    ("measure.pair_scan", measure, "is_supermodular", _pair_scan_hook),
    ("measure.constructors", measure, "necessity_from_possibility", None),
    ("measure.constructors", measure, "distorted_probability", None),
    ("integral.integrate_simple", integral, "integrate_simple", _candidates_hook),
    ("integral.oracle_grid_integral", integral, "oracle_grid_integral", None),
    ("integral.q_integral", integral, "q_integral", None),
    ("integral.integrate_survival", integral, "integrate_survival", None),
    ("dependence.triangle_range_escapes", dependence, "triangle_range_escapes", _escapes_hook),
    ("dependence.is_m_positively_dependent", dependence, "is_m_positively_dependent", None),
    ("dependence.measure_supports_all_pairs", dependence, "measure_supports_all_pairs", None),
    ("dependence.is_comonotone", dependence, "is_comonotone", None),
    ("chebyshev.ShapeFunction.apply", cheb.ShapeFunction, "apply", None),
    ("chebyshev.ShapeFunction.apply_inverse", cheb.ShapeFunction, "apply_inverse", None),
    ("chebyshev.check_scalar_condition", cheb, "check_scalar_condition", _c1_hook),
    ("chebyshev.check_condition_C2", cheb, "check_condition_C2", _c2_hook),
    ("chebyshev.q_corollary_condition", cheb, "q_corollary_condition", _q_hook),
    ("chebyshev.search_counterexample", cheb, "search_counterexample", None),
    ("chebyshev.check_integral_inequality", cheb, "check_integral_inequality", None),
    ("chebyshev.pipelines", cheb, "theorem1_forward", None),
    ("chebyshev.pipelines", cheb, "sugeno_chebyshev", None),
    ("chebyshev.pipelines", cheb, "any_functions_check", None),
    ("scenarios.load_scenario", scenarios, "load_scenario", None),
    ("scenarios.run_scenario", scenarios, "run_scenario", None),
) + tuple(("scenarios.builders", scenarios, name, None) for name in (
    "build_space", "build_measure", "build_op", "build_shape", "build_function",
    "build_mask", "build_cd", "build_config", "build_survival"))

# Size-keyed self times reported as metrics (filled in by the hooks above).
_SIZED = {"measure.from_table": (12, 16, 20), "dependence.triangle_range_escapes": (6, 7, 8)}


class Tracer:
    """In-memory spans plus per-label call counts, self times and work counts."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, time covered by children]
        self.layers = defaultdict(lambda: [0, 0.0])  # label -> [calls, self seconds]
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self._patches = []
        self.original_value_range = measure.MonotoneMeasure.value_range

    def count(self, key, amount=1):
        self.counts[key] += amount

    def add_time(self, key, seconds):
        self.times[key] += seconds

    def _name_id(self, label):
        if label not in self._name_ids:
            self._name_ids[label] = len(self.names)
            self.names.append(label)
        return self._name_ids[label]

    def call(self, label, fn, *args, hook=None, **kwargs):
        """Run fn inside a span named `label`."""
        idx = len(self.span_start)
        self.span_name.append(self._name_id(label))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.span_end[idx] = end
            dur = end - start
            self_s = dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
            layer = self.layers[label]
            layer[0] += 1
            layer[1] += self_s
        if hook is not None:
            hook(self, args, kwargs, result, dur, self_s)
        return result

    def _wrap(self, label, fn, hook):
        def traced(*args, **kwargs):
            return self.call(label, fn, *args, hook=hook, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        chebint_modules = [mod for name, mod in sys.modules.items()
                           if name == "chebint" or name.startswith("chebint.")]
        for label, owner, attr, hook in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(label, original, hook)
            holders = [owner] if isinstance(owner, type) else chebint_modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self):
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()


def combine(scaled):
    """A Tracer holding the summed totals, without spans, of (tracer, time scale) pairs."""
    total = Tracer()
    for tracer, scale in scaled:
        for label, (calls, self_s) in tracer.layers.items():
            total.layers[label][0] += calls
            total.layers[label][1] += self_s * scale
        for key, value in tracer.counts.items():
            total.counts[key] += value
        for key, value in tracer.times.items():
            total.times[key] += value * scale
    return total


def layer_metrics(tracer):
    """The per-layer metrics named in BENCHMARK.json, from one tracer's totals."""
    out = {}
    for label in dict.fromkeys(t[0] for t in TARGETS):
        calls, self_s = tracer.layers.get(label, (0, 0.0))
        out[f"{label}.calls"] = (calls, "count")
        out[f"{label}.self_s"] = (self_s, "s")
    for label, sizes in _SIZED.items():
        for n in sizes:
            key = f"{label}.self_s.n{n}"
            out[key] = (tracer.times.get(key, 0.0), "s")
    for key in ("exprlang.eval_expr.array_calls", "fusion.apply_op.elements",
                "fusion.dominates.points", "measure.pair_scan.entries",
                "integral.integrate_simple.candidates",
                "dependence.triangle_range_escapes.pairs", "chebyshev.scan.points"):
        out[key] = (tracer.counts.get(key, 0), "count")
    for step in (0.05, 0.02, 0.01):
        seconds = tracer.times.get(f"c1.h{step:g}.seconds", 0.0)
        points = tracer.counts.get(f"c1.h{step:g}.points", 0)
        out[f"chebyshev.points_per_s.h{step:g}"] = (points / seconds if seconds else 0.0, "1/s")
    return out
