"""Command-line front end: run scenario files and bundled scenarios.

Exit codes: 0 the checked claim holds / computation succeeded, 1 violated or
refuted, 2 hypothesis failure or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import (DependenceError, ExprError, FusionError, HypothesisError, IntegralError,
               MeasureError, ScenarioError, list_scenarios, load_scenario,
               load_scenario_file, run_scenario)

_KIND_FOR_COMMAND = {
    "integrate": "integrate",
    "check-dependence": "dependence",
    "check-condition": "condition",
    "check-inequality": "inequality",
    "search-counterexample": "search",
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chebint",
        description="Generalized Sugeno integrals, positive dependence and "
                    "Chebyshev-type inequality checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="emit the machine-readable report")
        p.add_argument("--grid", type=float, default=None, help="override grid step")
        p.add_argument("--seed", type=int, default=None, help="override random seed")
        p.add_argument("--budget", type=int, default=None, help="override search point budget")
        p.add_argument("--tolerance", type=float, default=None,
                       help="override equality comparison tolerance")

    for command in _KIND_FOR_COMMAND:
        p = sub.add_parser(command, help=f"run a scenario file of kind "
                                         f"'{_KIND_FOR_COMMAND[command]}'")
        p.add_argument("file", help="path to a scenario file (JSON)")
        p.add_argument("--name", default=None, help="select one scenario from the file")
        add_common(p)

    p = sub.add_parser("repro", help="run a bundled scenario by name")
    p.add_argument("name", help="bundled scenario name (see list-scenarios)")
    add_common(p)

    sub.add_parser("list-scenarios", help="list the bundled scenario names")
    return parser


def _human(report):
    skip = {"report_version", "kind", "scenario", "trace"}
    print(f"scenario: {report.get('scenario')}  [{report.get('kind')}]")
    for key in sorted(report):
        if key in skip:
            continue
        value = report[key]
        if key == "stages":
            for stage in value:
                detail = f"  ({stage['detail']})" if stage.get("detail") else ""
                print(f"  stage {stage['name']}: {stage['status']}{detail}")
        elif key == "integrals":
            for name in sorted(value):
                print(f"  {name} = {value[name]['value']}  [{value[name]['method']}]")
        else:
            print(f"  {key}: {value}")


def _run_blocks(blocks, args):
    exit_code = 0
    for data in blocks:
        code, report = run_scenario(data, grid_step=args.grid, seed=args.seed,
                                    budget=args.budget, tolerance=args.tolerance)
        if args.json:
            print(json.dumps(report, sort_keys=True, indent=2))
        else:
            _human(report)
        exit_code = max(exit_code, code)
    return exit_code


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-scenarios":
            for name in list_scenarios():
                print(name)
            return 0
        if args.command == "repro":
            return _run_blocks([load_scenario(args.name)], args)
        kind = _KIND_FOR_COMMAND[args.command]
        blocks = load_scenario_file(args.file)
        if args.name is not None:
            blocks = [b for b in blocks if b.get("name") == args.name]
            if not blocks:
                raise ScenarioError(f"no scenario named {args.name!r} in {args.file}")
        wrong = [b.get("name") for b in blocks if b.get("kind") != kind]
        if wrong:
            raise ScenarioError(
                f"scenario(s) {wrong} do not have kind {kind!r}; use the matching subcommand")
        return _run_blocks(blocks, args)
    except (ScenarioError, ExprError, FusionError, MeasureError, IntegralError,
            DependenceError, HypothesisError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
