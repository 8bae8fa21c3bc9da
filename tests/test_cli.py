"""Command-line interface: subcommands, exit codes, JSON stability."""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebint import cli, scenarios
from chebint.cli import main
from chebint.scenarios import EXIT_CODES, list_scenarios, load_scenario, run_scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListScenarios:
    def test_lists_bundled_names(self, capsys):
        code, out, err = run_cli(capsys, "list-scenarios")
        names = out.split()
        assert code == 0
        assert len(names) >= 12
        assert "counterexample-daraby-ghadimi" in names
        assert names == sorted(names)


@pytest.fixture
def fresh_registry():
    """An empty registry before and after the test, so that neither it nor
    any later test reads a table another bundle directory built."""
    scenarios._registry.cache_clear()
    yield
    scenarios._registry.cache_clear()


class TestRegistry:
    def test_loads_are_equal_and_independent(self):
        first = load_scenario("lebesgue-chebyshev-equality")
        assert first == load_scenario("lebesgue-chebyshev-equality")
        first["name"] = "changed"
        first["integrals"][0]["survival"]["y_bar"] = -1
        again = load_scenario("lebesgue-chebyshev-equality")
        assert again["name"] == "lebesgue-chebyshev-equality"
        assert again["integrals"][0]["survival"]["y_bar"] == 1.0
        with pytest.raises(scenarios.ScenarioError, match="unknown scenario 'nope'"):
            load_scenario("nope")

    def test_the_table_holds_every_bundled_block(self):
        blocks = [block for entry in scenarios._bundle_dir().iterdir()
                  if entry.name.endswith(".json")
                  for block in scenarios._load_blocks(entry.read_text())]
        assert len(blocks) == 19
        assert list_scenarios() == sorted(block["name"] for block in blocks)
        for block in blocks:
            assert load_scenario(block["name"]) == block

    def test_the_bundle_directory_is_read_once(self, monkeypatch, fresh_registry):
        reads = []
        bundle_dir = scenarios._bundle_dir
        monkeypatch.setattr(scenarios, "_bundle_dir", lambda: reads.append(1) or bundle_dir())
        loaded = [load_scenario(name) for name in list_scenarios()]
        assert len(loaded) == 19 and len(reads) == 1

    def test_a_name_bundled_twice_is_an_error(self, monkeypatch, tmp_path, fresh_registry):
        (tmp_path / "one.json").write_text(json.dumps([{"name": "a"}, {"name": "twice"}]))
        (tmp_path / "two.json").write_text(json.dumps({"name": "twice"}))
        (tmp_path / "notes.txt").write_text("not a scenario")
        monkeypatch.setattr(scenarios, "_bundle_dir", lambda: tmp_path)
        with pytest.raises(scenarios.ScenarioError, match="'twice' is defined twice"):
            load_scenario("a")
        with pytest.raises(scenarios.ScenarioError, match="'twice' is defined twice"):
            list_scenarios()


class TestRepro:
    def test_holding_scenario_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "minitive-sugeno-values")
        assert code == 0

    def test_refuted_scenario_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "counterexample-daraby-ghadimi", "--json")
        assert code == 1
        report = json.loads(out)
        assert report["report_version"] == 1
        assert report["lhs"] == pytest.approx(0.0)
        assert report["rhs"] == pytest.approx(0.1221452, abs=1e-6)

    def test_hypothesis_failure_exits_two(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "sugeno-phi-origin-hypothesis", "--json")
        assert code == 2

    def test_unknown_name_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "repro", "no-such-scenario")
        assert code == 2
        assert "error:" in err

    def test_every_bundled_scenario_runs(self, capsys):
        for name in list_scenarios():
            code, out, err = run_cli(capsys, "repro", name, "--json")
            report = json.loads(out)
            assert code in (0, 1, 2), name
            assert report["scenario"] == name

    def test_json_output_is_byte_stable(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "repro", "minitive-any-functions", "--json")
            outs.append(out)
        assert outs[0] == outs[1]


class TestFileSubcommands:
    @pytest.fixture
    def scenario_file(self, tmp_path):
        data = load_scenario("w-chebyshev-two-valued")
        path = tmp_path / "cond.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_check_condition_file(self, capsys, scenario_file):
        code, out, _ = run_cli(capsys, "check-condition", scenario_file, "--json")
        assert code == 0
        assert json.loads(out)["status"] == "holds-on-grid"

    def test_name_filter(self, capsys, tmp_path):
        blocks = [load_scenario("w-chebyshev-two-valued"),
                  load_scenario("w-chebyshev-unit-interval")]
        path = tmp_path / "both.json"
        path.write_text(json.dumps(blocks))
        code, out, _ = run_cli(capsys, "check-condition", str(path),
                               "--name", "w-chebyshev-two-valued", "--json")
        assert code == 0

    def test_missing_name_exits_two(self, capsys, scenario_file):
        code, _, err = run_cli(capsys, "check-condition", scenario_file,
                               "--name", "absent")
        assert code == 2
        assert "absent" in err

    def test_kind_mismatch_exits_two(self, capsys, scenario_file):
        code, _, err = run_cli(capsys, "integrate", scenario_file)
        assert code == 2
        assert "kind" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "integrate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "check-condition", str(path))
        assert code == 2

    def test_grid_override(self, capsys, tmp_path):
        data = load_scenario("w-chebyshev-unit-interval")
        path = tmp_path / "cond.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "check-condition", str(path),
                               "--grid", "0.05", "--json")
        assert code == 1
        assert json.loads(out)["status"] == "violated"

    def test_human_output_mentions_scenario(self, capsys, scenario_file):
        code, out, _ = run_cli(capsys, "check-condition", scenario_file)
        assert code == 0
        assert "w-chebyshev-two-valued" in out


class TestConstantOperations:
    """An operation or shape function that ignores its arguments used to end
    in an IndexError traceback with exit 1; it must give the verdict of the
    same function spelt with its arguments."""

    FLAGS = {"non_decreasing": True, "left_continuous_in_first": True,
             "left_continuous_in_second": True, "fuzzy_conjunction": True}

    @classmethod
    def op(cls, expr):
        return {"name": "half", "expr": expr, "flags": cls.FLAGS}

    @staticmethod
    def condition(variant, slot, op, grid):
        config = {"inner": "min", "outer": "min", "circ": "min", "triangle": "min",
                  "phi": {"expr": "x", "inverse": "x"}, "psi": {"expr": "x", "inverse": "x"},
                  "k": 1.0, "y_bar": 1.0, "cd": {"interval": [0.0, 1.0]}}
        config[slot] = op
        return {"name": "constant", "kind": "condition", "variant": variant, "grid": grid,
                "config": config}

    def run_file(self, capsys, tmp_path, data):
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-condition", str(path), "--json")
        assert code in (0, 1) and err == ""
        return code, json.loads(out)

    # h = 0.02 gives c1 rows of 51^3 points, several blocks of rhs slabs each
    @pytest.mark.parametrize("variant, slot, value, grid", [
        ("c1", "inner", "0.5", 0.02), ("c1", "outer", "0.5", 0.02), ("c1", "circ", "0", 0.1),
        ("c2", "inner", "0.5", 0.1), ("c2", "circ", "0", 0.1)])
    def test_condition(self, capsys, tmp_path, variant, slot, value, grid):
        got = [self.run_file(capsys, tmp_path, self.condition(variant, slot, self.op(expr), grid))
               for expr in (value, f"{value} + 0*a*b")]
        assert got[0] == got[1]

    @pytest.mark.parametrize("variant", ["c1", "c2"])
    def test_shape_function(self, capsys, tmp_path, variant):
        got = [self.run_file(capsys, tmp_path, self.condition(variant, "phi", {"expr": expr}, 0.1))
               for expr in ("0.5", "0.5 + 0*x")]
        assert got[0] == got[1]

    @pytest.mark.parametrize("slot", ["inner", "outer"])
    def test_dominates(self, slot):
        got = []
        for expr in ("0.5", "0.5 + 0*a*b"):
            data = {"kind": "property-run", "property": "dominates", "grid": 0.02,
                    "outer": "min", "inner": "prod", slot: self.op(expr)}
            got.append(run_scenario(data))
        assert got[0] == got[1] and got[0][0] in (0, 1)


class TestRunOptionValidation:
    """A bad grid step, budget, seed or tolerance is an input error: exit 2,
    one line, no traceback."""

    @staticmethod
    def assert_input_error(code, out, err, needle):
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert needle in err

    @pytest.mark.parametrize("grid", ["-1", "0", "nan", "inf"])
    def test_bad_grid_override(self, capsys, grid):
        # --grid -1 used to scan only the corners and report holds-on-grid
        code, out, err = run_cli(capsys, "repro", "w-chebyshev-unit-interval", "--grid", grid)
        self.assert_input_error(code, out, err, "grid step must be a finite positive number")

    @pytest.mark.parametrize("grid", [0, -0.5, "0.01", None, True, 10 ** 400])
    def test_bad_grid_in_scenario_file(self, capsys, tmp_path, grid):
        # "grid": 0 used to end in a ZeroDivisionError traceback with exit 1,
        # and an integer beyond the float range in an OverflowError traceback
        data = dict(load_scenario("w-chebyshev-unit-interval"), grid=grid)
        path = tmp_path / "cond.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-condition", str(path), "--json")
        self.assert_input_error(code, out, err, "scenario key 'grid' must be")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_bad_budget_override(self, capsys, budget):
        # --budget 0 used to fall back to the scenario's budget
        code, out, err = run_cli(capsys, "repro", "w-counterexample-search", "--budget", budget)
        self.assert_input_error(code, out, err, "budget must be a positive integer")

    def test_bad_budget_in_scenario_file(self, capsys, tmp_path):
        data = dict(load_scenario("w-counterexample-search"), budget=0)
        path = tmp_path / "search.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "search-counterexample", str(path))
        self.assert_input_error(code, out, err, "scenario key 'budget' must be")

    def test_grid_past_the_row_limit(self, capsys, tmp_path):
        # --grid 1e-9 used to ask for 1e9 floats before the scan started
        path = tmp_path / "cond.json"
        path.write_text(json.dumps(load_scenario("w-chebyshev-unit-interval")))
        code, out, err = run_cli(capsys, "check-condition", str(path), "--grid", "1e-9")
        self.assert_input_error(code, out, err, "grid step 1e-09 gives more than 16777216 points")
        code, out, err = run_cli(capsys, "repro", "min-dominates-lukasiewicz", "--grid", "0.002")
        self.assert_input_error(code, out, err, "a scan row of 125751501 points exceeds the limit")
        # the flag check's grid used to end in an OverflowError traceback here
        code, out, err = run_cli(capsys, "repro", "sugeno-phi-origin-hypothesis", "--grid", "5e-324")
        self.assert_input_error(code, out, err, "grid step 5e-324 gives more than")

    @pytest.mark.parametrize("change, needle", [
        # a misspelt triangle used to be ignored: the scan ran with min, exit 1
        (lambda c: c.update(tirangle=c.pop("triangle")), "config.tirangle: unknown key"),
        # a missing inner used to print a bare "error: 'inner'"
        (lambda c: c.pop("inner"), "config.inner is missing"),
        (lambda c: c.pop("circ"), "config.circ is missing"),
    ])
    def test_config_keys(self, capsys, tmp_path, change, needle):
        data = load_scenario("w-chebyshev-unit-interval")
        change(data["config"])
        path = tmp_path / "cond.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-condition", str(path), "--json")
        self.assert_input_error(code, out, err, needle)

    def test_config_must_be_an_object(self, capsys, tmp_path):
        path = tmp_path / "search.json"
        path.write_text(json.dumps(dict(load_scenario("w-counterexample-search"), config=[1])))
        code, out, err = run_cli(capsys, "search-counterexample", str(path))
        self.assert_input_error(code, out, err, "config must be an object")

    def test_valid_overrides_still_apply(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "w-counterexample-search",
                               "--grid", "0.05", "--budget", "100000", "--json")
        assert code == 1
        assert json.loads(out)["evidence"] == "coarse-to-fine grid down to 0.05"

    @pytest.mark.parametrize("seed", ["abc", 1.5, True, -1, None])
    def test_bad_seed_in_scenario_file(self, capsys, tmp_path, seed):
        # "abc" and 1.5 used to end in a TypeError traceback with exit 1, and
        # true ran silently as seed 1
        data = dict(load_scenario("minitive-any-functions"), seed=seed)
        path = tmp_path / "any.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-inequality", str(path), "--json")
        self.assert_input_error(code, out, err, "scenario key 'seed' must be a non-negative integer")

    def test_bad_seed_override(self, capsys):
        code, out, err = run_cli(capsys, "repro", "minitive-any-functions", "--seed", "-1")
        self.assert_input_error(code, out, err, "seed must be a non-negative integer")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_override(self, capsys, tol):
        # a NaN tolerance used to make every equality fail
        code, out, err = run_cli(capsys, "repro", "lebesgue-chebyshev-equality", "--tolerance", tol)
        self.assert_input_error(code, out, err, "tolerance must be a finite non-negative number")

    def test_bad_equality_tol_in_scenario_file(self, capsys, tmp_path):
        data = load_scenario("lebesgue-chebyshev-equality")
        data = dict(data, equality=dict(data["equality"], tol=-1e-3))
        path = tmp_path / "integrate.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "integrate", str(path))
        self.assert_input_error(code, out, err, "scenario key 'equality.tol' must be")

    def test_tolerance_reaches_expect_equality(self, capsys, tmp_path):
        # lhs 0.42 against rhs 0.117: unequal at the default tolerance, equal within 1
        data = dict(load_scenario("equality-power-shapes"),
                    measure={"type": "table",
                             "table": {"": 0.0, "a1": 0.2, "a2": 0.2, "a1 a2": 1.0}})
        path = tmp_path / "equality.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "check-inequality", str(path), "--json")
        assert code == 1 and json.loads(out)["verdict"] == "equality-violated"
        code, out, _ = run_cli(capsys, "check-inequality", str(path), "--json", "--tolerance", "1")
        assert code == 0 and json.loads(out)["verdict"] == "equality-holds"


class TestInputErrors:
    """Bad measure values and fusion-op parameters are input errors."""

    def test_nan_measure_value(self, capsys, tmp_path):
        # used to exit 0 with "verdict": "dependent": NaN passes every
        # comparison from_table made, and value_range dropped it
        data = load_scenario("two-point-product-dependence")
        data["measure"]["table"] = {"": 0.0, "w1": float("nan"), "w2": 0.4, "w1 w2": 1.0}
        path = tmp_path / "dependence.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "check-dependence", str(path), "--json")
        TestRunOptionValidation.assert_input_error(code, out, err, "at mask 1 is NaN")

    def test_fusion_error(self, capsys, tmp_path):
        # used to end in a FusionError traceback with exit 1 ("refuted")
        data = load_scenario("minitive-sugeno-values")
        data["integrals"] = [dict(data["integrals"][1], op={"builtin": "godel", "y_bar": 2})]
        path = tmp_path / "integrate.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "integrate", str(path), "--json")
        TestRunOptionValidation.assert_input_error(code, out, err, "only defined on [0,1]^2")


def _one_simple_integral(data):
    data["integrals"] = [{"name": "x", "op": "min", "space": ["w"], "f": [2.0], "bound": 2.0,
                          "measure": {"table": {"": 0.0, "w": 1.0}}}]


_T_NORM_FLAGS = dict.fromkeys(("non_decreasing", "left_continuous_in_first",
                               "left_continuous_in_second", "right_continuous", "commutative",
                               "semicopula", "fuzzy_conjunction"), True)


# Inputs that used to end in a traceback with exit 1, which reads as "refuted",
# or to be misread: the reversed cd interval exited 0 with holds-on-grid (it
# scanned c, d in {1, 0}), a string cd value was taken through float(), and an
# unknown variant or pipeline ran another check.  Each is now exit 2: one
# error line, or a hypothesis-failed report.
_EXIT_TWO = {
    "c1-without-cd": ("w-chebyshev-unit-interval", "check-condition",
                      lambda d: d["config"].pop("cd"), "config.cd"),
    "c2-without-cd": ("w-chebyshev-unit-interval", "check-condition",
                      lambda d: (d["config"].pop("cd"), d.update(variant="c2")), "config.cd"),
    "search-without-cd": ("w-counterexample-search", "search-counterexample",
                          lambda d: d["config"].pop("cd"), "config.cd"),
    "cd-one-bound": ("w-chebyshev-unit-interval", "check-condition",
                     lambda d: d["config"].update(cd={"interval": [0]}), "config.cd must be"),
    "cd-no-values": ("w-chebyshev-unit-interval", "check-condition",
                     lambda d: d["config"].update(cd={"values": []}), "config.cd must be"),
    "cd-reversed": ("w-chebyshev-two-valued", "check-condition",
                    lambda d: d["config"].update(cd={"interval": [1.0, 0.0]}), "lo <= hi"),
    "cd-string-value": ("w-chebyshev-two-valued", "check-condition",
                        lambda d: d["config"].update(cd={"values": ["0.5"]}),
                        "config.cd.values[0] must be a number"),
    "trial-outside-phi-domain": ("minitive-any-functions", "check-inequality",
                                 lambda d: d["config"].update(
                                     phi={"expr": "2*x - 1", "domain": [0.5, 1.0]}),
                                 "is not defined (domain [0.5, 1.0])"),
    # a number domain ended in a TypeError traceback from build_shape
    "shape-number-domain": ("w-chebyshev-unit-interval", "check-condition",
                            lambda d: d["config"].update(phi={"expr": "x", "domain": 5}),
                            "config.phi.domain must be a list, got 5"),
    "shape-one-bound-domain": ("w-chebyshev-unit-interval", "check-condition",
                               lambda d: d["config"].update(phi={"expr": "x", "domain": [0.0]}),
                               "config.phi.domain must be [lo, hi] with lo <= hi, got [0.0]"),
    "shape-string-domain-bound": ("w-chebyshev-unit-interval", "check-condition",
                                  lambda d: d["config"].update(
                                      psi={"expr": "x", "domain": [0.0, "1"]}),
                                  "config.psi.domain[1] must be a number, got '1'"),
    "shape-reversed-domain": ("w-chebyshev-unit-interval", "check-condition",
                              lambda d: d["config"].update(phi={"expr": "x", "domain": [1, 0]}),
                              "config.phi.domain must be [lo, hi] with lo <= hi, got [1, 0]"),
    "shape-reversed-inverse-domain": ("w-chebyshev-unit-interval", "check-condition",
                                      lambda d: d["config"].update(phi={
                                          "expr": "x", "inverse": "x",
                                          "inverse_domain": [1.0, 0.0]}),
                                      "config.phi.inverse_domain must be [lo, hi] with "
                                      "lo <= hi, got [1.0, 0.0]"),
    # "trials": 0 used to exit 0 with "holds" after checking no pair at all
    "no-trials": ("minitive-any-functions", "check-inequality", lambda d: d.update(trials=0),
                  "scenario key 'trials' must be a positive integer, got 0"),
    "dependence-f-above-k": ("minitive-dependence", "check-dependence",
                             lambda d: d["f"].update(x1=2.0), "values must lie in [0, 1.0]"),
    "dependence-range-escape": ("minitive-dependence", "check-dependence",
                                lambda d: d.update(allow_range_escape=False), "leaves range(m)"),
    "inequality-f-above-k": ("necessity-sugeno-pipeline", "check-inequality",
                             lambda d: d["f"].update(x1=2.0), "values must lie in [0, 1.0]"),
    "integrate-f-above-y-bar": ("minitive-sugeno-values", "integrate", _one_simple_integral,
                                "function bound exceeds the operation's y_bar"),
    "unknown-variant": ("w-chebyshev-unit-interval", "check-condition",
                        lambda d: d.update(variant="c3"),
                        "'variant' must be one of c1, c2, q; got 'c3'"),
    "unknown-pipeline": ("counterexample-daraby-ghadimi", "check-inequality",
                         lambda d: d.update(pipeline="nope"),
                         "'pipeline' must be one of sugeno, theorem-forward, any-functions; "
                         "got 'nope'"),
    # a string or list k / y_bar used to end in a TypeError traceback
    "dependence-string-k": ("minitive-dependence", "check-dependence", lambda d: d.update(k="1"),
                            "scenario key 'k' must be a number, got '1'"),
    "config-string-k": ("w-chebyshev-unit-interval", "check-condition",
                        lambda d: d["config"].update(k="1"), "config.k must be a number"),
    "config-list-y-bar": ("w-chebyshev-unit-interval", "check-condition",
                          lambda d: d["config"].update(y_bar=[1]),
                          "config.y_bar must be a number, got [1]"),
    "sugeno-string-y-bar": ("sugeno-phi-origin-hypothesis", "check-inequality",
                            lambda d: d.update(y_bar="1"), "scenario key 'y_bar' must be a number"),
    # "no" is truthy: it used to allow range escapes (exit 0, "dependent") and
    # to switch equality mode on (exit 0, "equality-holds")
    "string-allow-range-escape": ("minitive-dependence", "check-dependence",
                                  lambda d: d.update(allow_range_escape="no"),
                                  "scenario key 'allow_range_escape' must be true or false"),
    "string-expect-equality": ("equality-power-shapes", "check-inequality",
                               lambda d: d.update(expect_equality="no"),
                               "scenario key 'expect_equality' must be true or false"),
    # used to end in a TypeError traceback from scalar_condition_at
    "recheck-short-point": ("w-chebyshev-unit-interval", "check-condition",
                            lambda d: d.update(recheck={"point": [0.5]}),
                            "recheck.point must be four numbers"),
    # two different custom ops, both named "custom", used to pass as outer = inner
    # and exit 1 with "violated"
    "any-functions-unequal-custom-ops": ("minitive-any-functions", "check-inequality",
                                         lambda d: d["config"].update(
                                             inner={"expr": "a*b", "flags": _T_NORM_FLAGS},
                                             outer={"expr": "min(a, b)", "flags": _T_NORM_FLAGS}),
                                         "this pipeline requires outer = inner"),
    # a string op y_bar ended in a TypeError traceback in a simple integral and
    # was accepted (exit 0) in a survival integral, like a string survival
    # y_bar; string or boolean function values and bounds were taken as
    # numbers (exit 0); a missing atom printed a bare "error: 'x3'"
    "integrate-string-op-y-bar": ("minitive-sugeno-values", "integrate",
                                  lambda d: (_one_simple_integral(d), d["integrals"][0].update(
                                      op={"builtin": "min", "y_bar": "2"})),
                                  "integrals[0].op.y_bar must be a number, got '2'"),
    "survival-string-op-y-bar": ("minitive-sugeno-values", "integrate",
                                 lambda d: d["integrals"][1].update(
                                     op={"builtin": "min", "y_bar": "2"}),
                                 "integrals[1].op.y_bar must be a number, got '2'"),
    # the later integral used to replace the earlier one in the report (exit 0)
    "integrate-repeated-name": ("minitive-sugeno-values", "integrate",
                                lambda d: d["integrals"][1].update(name="product_fg"),
                                "integrals[1].name 'product_fg' is given to an earlier integral"),
    "survival-string-y-bar": ("minitive-sugeno-values", "integrate",
                              lambda d: d["integrals"][0]["survival"].update(y_bar="1"),
                              "integrals[0].survival.y_bar must be a number, got '1'"),
    "config-circ-string-y-bar": ("w-chebyshev-unit-interval", "check-condition",
                                 lambda d: d["config"].update(
                                     circ=["min", {"builtin": "min", "y_bar": "1"}, "min"]),
                                 "config.circ[1].y_bar must be a number, got '1'"),
    "function-string-value": ("minitive-dependence", "check-dependence",
                              lambda d: d["f"].update(x1="0.9"),
                              "f.x1 must be a number, got '0.9'"),
    "function-boolean-value": ("minitive-dependence", "check-dependence",
                               lambda d: d["g"].update(x2=True),
                               "g.x2 must be a number, got True"),
    "function-string-bound": ("minitive-dependence", "check-dependence",
                              lambda d: d.update(f={"values": d["f"], "bound": "1"}),
                              "f.bound must be a number, got '1'"),
    "integrate-string-bound": ("minitive-sugeno-values", "integrate",
                               lambda d: (_one_simple_integral(d),
                                          d["integrals"][0].update(bound="2")),
                               "integrals[0].bound must be a number, got '2'"),
    "function-missing-atom": ("minitive-dependence", "check-dependence",
                              lambda d: d["f"].pop("x3"), "f.x3 is missing"),
    # an op, function or mask block of the wrong container type used to end
    # in an AttributeError or TypeError traceback with exit 1
    "number-triangle": ("minitive-dependence", "check-dependence",
                        lambda d: d.update(triangle=5), "triangle must be an object, got 5"),
    "list-triangle": ("minitive-dependence", "check-dependence",
                      lambda d: d.update(triangle=["min"]),
                      "triangle must be an object, got ['min']"),
    "null-triangle": ("minitive-dependence", "check-dependence",
                      lambda d: d.update(triangle=None), "triangle must be an object, got None"),
    "number-function": ("minitive-dependence", "check-dependence", lambda d: d.update(f=5),
                        "f must be a list, got 5"),
    "null-function": ("minitive-dependence", "check-dependence", lambda d: d.update(g=None),
                      "g must be a list, got None"),
    "number-mask": ("minitive-dependence", "check-dependence", lambda d: d.update(A=5),
                    "A must be a list, got 5"),
    "null-mask": ("minitive-dependence", "check-dependence", lambda d: d.update(B=None),
                  "B must be a list, got None"),
    "number-op-flags": ("w-chebyshev-unit-interval", "check-condition",
                        lambda d: d["config"].update(inner={"expr": "a*b", "flags": 5}),
                        "config.inner.flags must be an object, got 5"),
    "number-shape": ("w-chebyshev-unit-interval", "check-condition",
                     lambda d: d["config"].update(phi=["x", 5, "x"]),
                     "config.phi[1] must be an object, got 5"),
    "two-circs": ("w-chebyshev-unit-interval", "check-condition",
                  lambda d: d["config"].update(circ=["min", "min"]),
                  "config.circ must hold exactly three entries"),
    # an op or shape object without "expr" printed a bare "error: 'expr'"
    "op-without-expr": ("minitive-dependence", "check-dependence",
                        lambda d: d.update(triangle={"flags": {}}), "triangle.expr is missing"),
    "shape-without-expr": ("w-chebyshev-unit-interval", "check-condition",
                           lambda d: d["config"].update(phi=["x", {"flags": {}}, "x"]),
                           "config.phi[1].expr is missing"),
    # survival blocks of the wrong type used to end in an AttributeError,
    # TypeError or IndexError traceback with exit 1; a missing segments
    # list printed a bare "error: 'segments'"
    "number-survival": ("minitive-sugeno-values", "integrate",
                        lambda d: d["integrals"][0].update(survival=5),
                        "integrals[0].survival must be an object, got 5"),
    "survival-without-segments": ("minitive-sugeno-values", "integrate",
                                  lambda d: d["integrals"][0]["survival"].pop("segments"),
                                  "integrals[0].survival.segments is missing"),
    "number-segments": ("minitive-sugeno-values", "integrate",
                        lambda d: d["integrals"][0]["survival"].update(segments=5),
                        "integrals[0].survival.segments must be a list, got 5"),
    "number-segment": ("minitive-sugeno-values", "integrate",
                       lambda d: d["integrals"][0]["survival"].update(segments=[5]),
                       "integrals[0].survival.segments[0] must be two strings"),
    "one-string-segment": ("minitive-sugeno-values", "integrate",
                           lambda d: d["integrals"][0]["survival"].update(segments=[["[0, 1]"]]),
                           "integrals[0].survival.segments[0] must be two strings"),
    "number-segment-interval": ("minitive-sugeno-values", "integrate",
                                lambda d: d["integrals"][0]["survival"].update(
                                    segments=[[5, "1-t"]]),
                                "integrals[0].survival.segments[0] must be two strings"),
    "number-segment-expr": ("minitive-sugeno-values", "integrate",
                            lambda d: d["integrals"][2]["survival"].update(
                                segments=[["[0, 1]", 5]]),
                            "integrals[2].survival.segments[0] must be two strings"),
    # a segment whose text does not parse, or whose expression reads another
    # variable than var, exited 2 without naming the segment; text after an
    # interval was ignored; a number var printed "unbound variable 't'"
    "unclosed-segment-interval": ("minitive-sugeno-values", "integrate",
                                  lambda d: d["integrals"][0]["survival"].update(
                                      segments=[["[0, 1", "1-t"]]),
                                  "integrals[0].survival.segments[0]: expected ']' or ')'"),
    "segment-interval-trailing-text": ("minitive-sugeno-values", "integrate",
                                       lambda d: d["integrals"][2]["survival"].update(
                                           segments=[["[0, 1] x", "1 - sqrt(t)"]]),
                                       "integrals[2].survival.segments[0]: unexpected trailing"),
    "unfinished-segment-expr": ("minitive-sugeno-values", "integrate",
                                lambda d: d["integrals"][1]["survival"]["segments"][1].__setitem__(
                                    1, "1 -"),
                                "integrals[1].survival.segments[1]: "),
    "unbound-segment-variable": ("minitive-sugeno-values", "integrate",
                                 lambda d: d["integrals"][2]["survival"].update(
                                     segments=[["[0, 1]", "1 - sqrt(x)"]]),
                                 "integrals[2].survival.segments[0]: unbound variable 'x'"),
    "number-survival-var": ("minitive-sugeno-values", "integrate",
                            lambda d: d["integrals"][0]["survival"].update(var=5),
                            "integrals[0].survival.var must be a string, got 5"),
    # an integrals, integral, space or equality block of the wrong container
    # type, a space label or integral name that is not a string, ended in an
    # AttributeError or TypeError traceback with exit 1; a string space was
    # read as one atom per character
    "number-integral": ("minitive-sugeno-values", "integrate",
                        lambda d: d.update(integrals=[5]), "integrals[0] must be an object, got 5"),
    "object-integrals": ("minitive-sugeno-values", "integrate",
                         lambda d: d.update(integrals={"i": 1}),
                         "integrals must be a list, got {'i': 1}"),
    "integral-without-name": ("minitive-sugeno-values", "integrate",
                              lambda d: d["integrals"][0].pop("name"),
                              "integrals[0].name is missing"),
    "integrate-number-space": ("minitive-sugeno-values", "integrate",
                               lambda d: (_one_simple_integral(d),
                                          d["integrals"][0].update(space=5)),
                               "integrals[0].space must be a list, got 5"),
    "number-space": ("minitive-dependence", "check-dependence", lambda d: d.update(space=5),
                     "space must be a list, got 5"),
    "nested-space-label": ("minitive-dependence", "check-dependence",
                           lambda d: d["space"].__setitem__(1, [d["space"][1]]),
                           "space[1] must be a string, got ['x2']"),
    "string-space": ("minitive-dependence", "check-dependence",
                     lambda d: d.update(space="ab"), "space must be a list, got 'ab'"),
    "number-space-label": ("minitive-dependence", "check-dependence",
                           lambda d: d["space"].__setitem__(2, 3), "space[2] must be a string, got 3"),
    "list-integral-name": ("minitive-sugeno-values", "integrate",
                           lambda d: d["integrals"][0].update(name=["a"]),
                           "integrals[0].name must be a string, got ['a']"),
    "number-equality": ("minitive-sugeno-values", "integrate", lambda d: d.update(equality=5),
                        "equality must be an object, got 5"),
    # an expression field that is not a string ended in a TypeError traceback
    # with exit 1 ("not an Expr: 5", "object of type 'int' has no len()")
    "number-op-expr": ("minitive-dependence", "check-dependence",
                       lambda d: d.update(triangle={"expr": 5}),
                       "triangle.expr must be an expression string, got 5"),
    "number-equality-lhs": ("lebesgue-chebyshev-equality", "integrate",
                            lambda d: d["equality"].update(lhs=5),
                            "equality.lhs must be an expression string, got 5"),
    "number-shape-expr": ("w-chebyshev-unit-interval", "check-condition",
                          lambda d: d["config"].update(phi=["x", {"expr": 5}, "x"]),
                          "config.phi[1].expr must be an expression string, got 5"),
    "number-shape-inverse": ("godel-q-corollary", "check-condition",
                             lambda d: d.update(phi={"expr": "x", "inverse": 5}),
                             "phi.inverse must be an expression string, got 5"),
    # a declared inverse was trusted: "0*x" turned the violated q condition
    # into holds-on-grid with exit 0
    "q-inverse-fails-round-trip": ("godel-q-corollary", "check-condition",
                                   lambda d: d.update(phi={"expr": "x", "inverse": "0*x"}),
                                   "phi1's declared inverse fails its round trip at 0.01"),
    # an operation's args and flags, and a shape's flags, went unchecked into
    # the constructors: IndexError and TypeError tracebacks with exit 1
    "op-one-arg": ("w-chebyshev-unit-interval", "check-condition",
                   lambda d: d["config"].update(inner={"expr": "a*b", "args": ["a"],
                                                       "flags": {"non_decreasing": True}}),
                   "config.inner.args must be two distinct strings, got ['a']"),
    "op-repeated-arg": ("minitive-dependence", "check-dependence",
                        lambda d: d.update(triangle={"expr": "a*b", "args": ["a", "a"]}),
                        "triangle.args must be two distinct strings, got ['a', 'a']"),
    "op-number-arg": ("minitive-dependence", "check-dependence",
                      lambda d: d.update(triangle={"expr": "a*b", "args": ["a", 5]}),
                      "triangle.args must be two distinct strings, got ['a', 5]"),
    "op-unknown-flag": ("minitive-dependence", "check-dependence",
                        lambda d: d.update(triangle={"expr": "a*b", "flags": {"increasing": True}}),
                        "triangle.flags.increasing: unknown flag"),
    "op-number-flag": ("w-chebyshev-unit-interval", "check-condition",
                       lambda d: d["config"].update(inner={"expr": "a*b",
                                                           "flags": {"commutative": 1}}),
                       "config.inner.flags.commutative must be true or false, got 1"),
    "shape-unknown-flag": ("w-chebyshev-unit-interval", "check-condition",
                           lambda d: d["config"].update(phi={"expr": "x", "flags": {"bogus": 1}}),
                           "config.phi.flags.bogus: unknown flag"),
    "shape-string-flag": ("godel-q-corollary", "check-condition",
                          lambda d: d.update(phi={"expr": "x", "inverse": "x",
                                                  "flags": {"increasing": "yes"}}),
                          "phi.flags.increasing: unknown flag"),
    # found by the scenario fuzz: a list builtin name or shape variable ended
    # in "TypeError: unhashable type", and a label holding a newline gave a
    # two-line error
    "list-builtin": ("minitive-dependence", "check-dependence",
                     lambda d: d.update(triangle={"builtin": ["min"]}),
                     "triangle.builtin must be a string, got ['min']"),
    "list-shape-var": ("w-chebyshev-unit-interval", "check-condition",
                       lambda d: d["config"].update(phi={"expr": "x", "var": []}),
                       "config.phi.var must be a string, got []"),
    "newline-label": ("minitive-dependence", "check-dependence",
                      lambda d: d["space"].__setitem__(0, "x\n1"),
                      "measure.possibility.x\\n1 is missing"),
    # a missing required key printed a bare "error: 'config'"
    **{f"{name}-without-{key}": (name, command, lambda d, key=key: d.pop(key),
                                 f"scenario.{key} is missing")
       for name, command, keys in (
           ("minitive-dependence", "check-dependence", ("space", "measure", "f", "g", "triangle")),
           ("w-chebyshev-unit-interval", "check-condition", ("config",)),
           ("godel-q-corollary", "check-condition", ("conj", "star")),
           ("sugeno-phi-origin-hypothesis", "check-inequality", ("space", "measure", "star")),
           ("necessity-sugeno-pipeline", "check-inequality", ("config", "f", "g")),
           ("w-counterexample-search", "search-counterexample", ("config",)))
       for key in keys},
    **{f"integral-without-{key}": ("minitive-sugeno-values", "integrate",
                                   lambda d, key=key: (_one_simple_integral(d),
                                                       d["integrals"][0].pop(key)),
                                   f"integrals[0].{key} is missing")
       for key in ("space", "measure", "f")},
    # refusals of the measure, function, survival and expression builders
    "unknown-measure-type": ("minitive-dependence", "check-dependence",
                             lambda d: d["measure"].update(type="bogus"),
                             "measure.type: unknown measure type 'bogus'"),
    "huge-atom-value": ("minitive-dependence", "check-dependence",
                        lambda d: d["f"].update(x1=10 ** 400), "f.x1 is too large"),
    "survival-zero-y-bar": ("minitive-sugeno-values", "integrate",
                            lambda d: d["integrals"][0]["survival"].update(y_bar=0),
                            "integrals[0].survival: y_bar must be positive"),
    "survival-no-segments": ("minitive-sugeno-values", "integrate",
                             lambda d: d["integrals"][0]["survival"].update(segments=[]),
                             "survival scenario needs at least one segment"),
    "survival-segments-end-early": ("minitive-sugeno-values", "integrate",
                                    lambda d: d["integrals"][0]["survival"].update(
                                        segments=[["[0, 0.5]", "1 - t"]]),
                                    "segments must end at ..., 1.0]"),
    "survival-negative-segment": ("minitive-sugeno-values", "integrate",
                                  lambda d: d["integrals"][0]["survival"].update(
                                      segments=[["[0, 1]", "0.5 - t"]]),
                                  "survival segment on [0,1]: negative final value"),
    "survival-upward-jump": ("minitive-sugeno-values", "integrate",
                             lambda d: d["integrals"][0]["survival"].update(
                                 segments=[["[0, 0.5]", "0.25"], ["(0.5, 1]", "1 - t"]]),
                             "survival function jumps upward at segment boundary t=0.5"),
    "parse-error-on-line-two": ("minitive-dependence", "check-dependence",
                                lambda d: d.update(triangle={"expr": "a*b +\n  *b"}),
                                "triangle.expr: unexpected token '*' (line 2, column 3)"),
    "circ-parse-error": ("w-chebyshev-unit-interval", "check-condition",
                         lambda d: d["config"].update(circ=["min", {"expr": "a*/b"}, "min"]),
                         "config.circ[1].expr: unexpected token '/' (line 1, column 3)"),
    "shape-parse-error": ("w-chebyshev-unit-interval", "check-condition",
                          lambda d: d["config"].update(phi={"expr": "x +", "inverse": "x"}),
                          "config.phi.expr: unexpected token '' (line 1, column 4)"),
    "shape-inverse-parse-error": ("w-chebyshev-unit-interval", "check-condition",
                                  lambda d: d["config"].update(
                                      psi=["x", "x", {"expr": "x", "inverse": "x)"}]),
                                  "config.psi[2].inverse: unexpected trailing input ')'"),
    "distortion-parse-error": ("distorted-probability-dependence", "check-dependence",
                               lambda d: d["measure"].update(distortion="x^"),
                               "measure.distortion: unexpected token '' (line 1, column 3)"),
    "empty-segment-interval": ("minitive-sugeno-values", "integrate",
                               lambda d: d["integrals"][0]["survival"].update(
                                   segments=[["[1, 0]", "1 - t"]]),
                               "integrals[0].survival.segments[0]: empty interval: 1.0 > 0.0"),
    "overlapping-pieces": ("w-chebyshev-unit-interval", "check-condition",
                           lambda d: d["config"].update(phi={
                               "expr": "piecewise{[0, 0.6]: x; [0.5, 1]: x}", "inverse": "x"}),
                           "overlapping piecewise intervals [0,0.6] and [0.5,1]"),
    "possibility-above-one": ("minitive-dependence", "check-dependence",
                              lambda d: d["measure"]["possibility"].update(x2=1.5),
                              "measure.possibility: possibility values must lie in [0,1]"),
    "two-variable-distortion": ("distorted-probability-dependence", "check-dependence",
                                lambda d: d["measure"].update(distortion="x*y"),
                                "measure: expected an expression in exactly one variable"),
    "function-bound-above-k": ("minitive-dependence", "check-dependence",
                               lambda d: d.update(triangle="min",
                                                  f={"values": d["f"], "bound": 2.0}),
                               "f.bound: f and g must be bounded by k"),
    # the plain inequality reports a shape's refusal as a failed hypothesis
    "inequality-phi-domain-ends-early": ("equality-power-shapes", "check-inequality",
                                         lambda d: d["config"].update(
                                             phi={"expr": "x", "inverse": "x",
                                                  "domain": [0, 0.5]}),
                                         "the value x(0.6) is not defined (domain [0.0, 0.5])"),
    # phi = 2*x puts phi(y_bar) and the integrands past min's y_bar: the
    # pipeline raised a FusionError (exit 2 without a report)
    "theorem-forward-phi-past-circ": ("counterexample-daraby-ghadimi", "check-inequality",
                                      lambda d: (d.update(pipeline="theorem-forward"),
                                                 d["config"].update(phi="2*x")),
                                      "phi1(y_bar) circ1 sup(cd): argument 2.0 outside"),
}


@pytest.mark.parametrize("content, needle", [
    ("5", "error: scenario must be an object, got 5"),
    # an empty list used to print nothing and exit 0, which reads as "holds"
    ("[]", "error: scenario file holds an empty list, no scenario"),
    ("[5]", "error: scenario[0] must be an object, got 5"),
    ('[{"kind": "integrate", "integrals": []}, "x"]',
     "error: scenario[1] must be an object, got 'x'")])
def test_a_file_that_holds_no_scenario_object_exits_two(capsys, tmp_path, content, needle):
    # used to end in an AttributeError traceback with exit 1
    path = tmp_path / "scenario.json"
    path.write_text(content)
    for command in ("integrate", "check-dependence"):
        code, out, err = run_cli(capsys, command, str(path))
        TestRunOptionValidation.assert_input_error(code, out, err, needle)


@pytest.mark.parametrize("case", sorted(_EXIT_TWO))
def test_input_or_hypothesis_error_exits_two(capsys, tmp_path, case):
    name, command, change, needle = _EXIT_TWO[case]
    data = load_scenario(name)
    change(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, command, str(path), "--json")
    assert code == 2
    assert "Traceback" not in err
    if err:
        TestRunOptionValidation.assert_input_error(code, out, err, needle)
    else:
        report = json.loads(out)
        assert report["verdict"] == "hypothesis-failed"
        assert needle in out


def test_hypothesis_failed_c1_report_has_no_recheck(capsys, tmp_path):
    # the recheck used to be computed anyway, showing "violated": true beside
    # the failed hypothesis
    data = load_scenario("w-chebyshev-unit-interval")
    data["config"].pop("cd")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "check-condition", str(path), "--json")
    report = json.loads(out)
    assert code == 2 and report["verdict"] == "hypothesis-failed"
    assert "recheck" not in report


@pytest.mark.parametrize("name, key", [("min-dominates-lukasiewicz", "property"),
                                       ("min-dominates-lukasiewicz", "outer"),
                                       ("min-dominates-lukasiewicz", "inner"),
                                       ("asymmetric-argument-order-gap", "op")])
def test_a_missing_property_run_key_names_its_path(name, key):
    # property runs have no subcommand; a missing key raised a bare KeyError
    data = load_scenario(name)
    del data[key]
    with pytest.raises(scenarios.ScenarioError, match=rf"^scenario\.{key} is missing$"):
        run_scenario(data)


@pytest.mark.parametrize("kind", [[], {}])
def test_a_kind_that_is_not_a_runner_name_is_refused(kind):
    # a list or object kind raised "TypeError: unhashable type"
    with pytest.raises(scenarios.ScenarioError, match="unknown scenario kind"):
        run_scenario({"kind": kind})


def test_exit_code_is_the_verdict_table(monkeypatch):
    assert {v for v, c in EXIT_CODES.items() if c == 0} == {
        "computed", "equality-holds", "dependent", "holds", "holds-on-grid", "no-witness",
        "no-gap"}
    assert {v for v, c in EXIT_CODES.items() if c == 1} == {
        "equality-violated", "not-dependent", "violated", "witness-found", "gap-found"}
    assert {v for v, c in EXIT_CODES.items() if c == 2} == {"hypothesis-failed"}
    for verdict, code in [*EXIT_CODES.items(), *((v, 2) for v in ("", "Holds", "pass", None))]:
        monkeypatch.setitem(scenarios._RUNNERS, "integrate", lambda *_: {"verdict": verdict})
        assert run_scenario({"kind": "integrate"}) == (code, {
            "verdict": verdict, "report_version": 1, "scenario": "<inline>", "kind": "integrate"})


def test_integrate_q_integral_scenario():
    # sup over t of prod(m({f >= t}), t): the level t = 0.8 gives m({w2}) * 0.8
    data = {"kind": "integrate", "integrals": [{
        "name": "q", "integral": "q", "op": "prod", "space": ["w1", "w2"],
        "measure": {"table": {"": 0.0, "w1": 0.4, "w2": 0.6, "w1 w2": 1.0}},
        "f": {"w1": 0.3, "w2": 0.8}}]}
    code, report = run_scenario(data)
    assert code == 0
    assert report["integrals"] == {"q": {"value": 0.6 * 0.8, "method": "exact-candidate-set"}}


def _stage(report, name):
    (stage,) = [s for s in report["stages"] if s["name"] == name]
    return stage["status"], stage["detail"]


@pytest.mark.parametrize("phi, psi, stage, detail", [
    (["x", "x", "0.5*x"], "x", "phi-tops-equal", "phi tops differ: [1.0, 1.0, 0.5]"),
    ("x", "x^2", "sandwich", "psi1(phi1(x)) < x at x=0.01"),
])
def test_sugeno_pipeline_hypothesis_stages_fail(phi, psi, stage, detail):
    data = load_scenario("sugeno-phi-origin-hypothesis")
    data.update(phi=phi, psi=psi)
    _, report = run_scenario(data)
    assert _stage(report, stage) == ("hypothesis-failed", detail)


def test_theorem_forward_needs_a_left_continuous_outer():
    data = load_scenario("necessity-sugeno-pipeline")
    data["config"]["outer"] = {"expr": "a*b", "flags": {"non_decreasing": True}}
    _, report = run_scenario(data)
    assert _stage(report, "config-hypotheses") == (
        "hypothesis-failed", "outer operation 'custom' must be declared left-continuous")


@pytest.mark.parametrize("scenario_grid, override, used", [
    (None, None, 1e-4), (0.01, None, 0.01), (0.01, 0.002, 0.002)])
def test_integrate_grid_reaches_integrate_survival(monkeypatch, scenario_grid, override, used):
    # an integrate scenario's "grid" used to be checked and then ignored
    steps = []
    real = scenarios.integrate_survival

    def spy(op, sv, grid_step):
        steps.append(grid_step)
        return real(op, sv, grid_step=grid_step)

    monkeypatch.setattr(scenarios, "integrate_survival", spy)
    data = load_scenario("minitive-sugeno-values")
    if scenario_grid is not None:
        data["grid"] = scenario_grid
    code, report = run_scenario(data, grid_step=override)
    assert code == 0 and report["verdict"] == "computed"
    assert steps == [used] * len(data["integrals"])

_NAN = float("nan")
_TABLE_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([_NAN, float("inf"), -float("inf"), -0.5, -0.0, 0.0, 1.0]),
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-10, 10 ** 400),
    st.lists(st.floats(0, 1), max_size=2), st.dictionaries(st.text(max_size=2), st.none(), max_size=1))


# scenario -> the measure block fuzzed and its keys: the table of two
# table-measure scenarios, the possibility and probability of the others
_FUZZED_BLOCKS = {
    "two-point-product-dependence": ("table", ["", "w1", "w2", "w1 w2"]),
    "godel-low-range-dependence": ("table", ["", "w1", "w2", "w1 w2"]),
    "minitive-dependence": ("possibility", ["x1", "x2", "x3"]),
    "distorted-probability-dependence": ("probability", ["x1", "x2", "x3"]),
}


def _not_a_number(value):
    return isinstance(value, bool) or not isinstance(value, (int, float))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_FUZZED_BLOCKS)), data=st.data(),
       whole=st.one_of(st.just("keep"), _TABLE_VALUES))
def test_fuzz_measure_table(name, data, whole):
    """Exit 0, 1 or 2, never a traceback; a NaN or a value that is not a JSON
    number is always exit 2, and so is a missing atom of a possibility or
    probability block, with the path of the entry in the message."""
    key, entries = _FUZZED_BLOCKS[name]
    changes = data.draw(st.dictionaries(st.sampled_from(entries),
                                        st.one_of(st.just("drop"), _TABLE_VALUES), min_size=1))
    scenario = load_scenario(name)
    block = scenario["measure"][key]
    for entry, value in changes.items():
        if value == "drop":
            del block[entry]
        else:
            block[entry] = value
    if whole != "keep":  # the block itself of the wrong type
        scenario["measure"][key] = whole
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dependence.json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["check-dependence", path, "--json"])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error:")
    if whole != "keep":
        return
    values = block.values()
    if any(isinstance(v, float) and math.isnan(v) for v in values):
        assert code == 2
    bad = [e for e in entries if e in block and _not_a_number(block[e])]
    if key != "table":
        bad += [e for e in entries if e not in block]
    if bad:
        assert code == 2
        assert f"measure.{key}" in err.getvalue()


# What the scenario fuzz puts where a value was: numbers (NaN, +-inf, -0.0 and
# negatives among them), booleans, null, strings, lists and objects
_FUZZ_VALUES = st.one_of(
    st.sampled_from([_NAN, math.inf, -math.inf, -0.0, 0.0, -1.0, -0.5, 0.25, 0.5, 1.0, 2, True,
                     False, None]),
    st.floats(-2.0, 2.0), st.integers(-2, 2),
    st.sampled_from(["", "x", "a*b", "min", "prod", "x1", "[0, 1]", "(", "q", "c2", "sugeno"]),
    st.text(max_size=3),
    st.lists(st.sampled_from([0.5, -1.0, "x", "x1", "min", None]), max_size=3),
    st.dictionaries(st.sampled_from(["expr", "builtin", "values", "interval", "x1", "flags"]),
                    st.one_of(st.sampled_from([0.5, "x", "min", "a*b", None]),
                              st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=2)),
                    max_size=2))
# keys the builders read (grid, trials and budget aside), and one they do not
_FUZZ_KEYS = st.sampled_from([
    "A", "allow_range_escape", "args", "bound", "builtin", "cd", "circ", "commutative", "conj",
    "distortion", "domain", "equality", "expect_equality", "expr", "f", "flags", "g",
    "increasing", "inner", "integral", "interval", "inverse", "inverse_domain", "k", "kind",
    "lhs", "name", "non_decreasing", "op", "outer", "phi", "pipeline", "possibility", "probability",
    "property", "psi", "recheck", "seed", "segments", "set", "star", "survival", "table", "tol",
    "triangle", "type", "values", "var", "variant", "x1", "y_bar", "unknown"])


def _fuzz_paths(node, path=()):
    """The path of every dict key and list index in ``node``, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _fuzz_paths(value, path + (key,))


def _no_costlier(path, bundled, value):
    """Whether ``value`` at ``path`` keeps the run no costlier than the bundled
    scenario: a grid step is never lowered, trials and a budget never raised."""
    if len(path) != 1 or path[0] not in ("grid", "trials", "budget") or path[0] not in bundled:
        return True
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        return True
    return value >= bundled[path[0]] if path[0] == "grid" else value <= bundled[path[0]]


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(list_scenarios()), data=st.data())
def test_fuzz_every_bundled_scenario(name, data):
    """Drop, rename or retype keys at any depth of a bundled scenario: the
    run exits 0, 1 or 2 without a traceback, an input error is one error
    line and no report, and a grid step that is not positive never exits 0."""
    bundled = load_scenario(name)
    scenario = load_scenario(name)
    for _ in range(data.draw(st.integers(1, 3))):
        if not (paths := list(_fuzz_paths(scenario))):
            break
        path = data.draw(st.sampled_from(paths))
        parent = scenario
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["drop", "rename", "add", "replace"]))
        if action == "drop":
            del parent[path[-1]]
        elif action == "rename" and isinstance(parent, dict):
            parent[data.draw(_FUZZ_KEYS)] = parent.pop(path[-1])
        elif action == "add" and isinstance(parent, dict):
            parent[data.draw(_FUZZ_KEYS)] = data.draw(_FUZZ_VALUES)
        elif _no_costlier(path, bundled, value := data.draw(_FUZZ_VALUES)):
            parent[path[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "load_scenario", lambda _: scenario)
        code = main(["repro", name, "--json"])
    assert code in (0, 1, 2)
    if err.getvalue():
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
    else:
        assert EXIT_CODES.get(json.loads(out.getvalue())["verdict"], 2) == code
    grid = scenario.get("grid")
    if not isinstance(grid, bool) and isinstance(grid, (int, float)) and not grid > 0:
        assert code != 0
