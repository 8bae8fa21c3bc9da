"""Golden reports: `chebint repro <name>`, with and without `--json`, for
every bundled scenario.

The files under tests/golden/ hold each report's exact stdout (`<name>.json`
and the human-readable `<name>.txt`) and the exit codes.  A change that moves
one byte of a report, or one exit code, fails here; regenerate them only for a
change that means to alter a report.
"""

import json
from pathlib import Path

import pytest

from chebint.cli import main
from chebint.scenarios import list_scenarios

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


def test_golden_set_covers_every_bundled_scenario():
    assert sorted(EXIT_CODES) == sorted(list_scenarios())


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_repro_json_is_byte_identical(name, capsys):
    code = main(["repro", name, "--json"])
    out = capsys.readouterr().out
    assert code == EXIT_CODES[name]
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_repro_human_report_is_byte_identical(name, capsys):
    code = main(["repro", name])
    out = capsys.readouterr().out
    assert code == EXIT_CODES[name]
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()
