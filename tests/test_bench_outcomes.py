"""The grid-scan benchmark's recorded outcomes, replayed at its two cheaper steps.

``bench/grid_scan_expected.json`` records the status, witness, lhs and rhs of
every grid-scan op.  The benchmark checks them at h = 0.05, 0.02 and 0.01;
here each h = 0.05 and 0.02 op is run and checked with the benchmark's own
``check_recorded``.  The files under ``bench/`` are only read.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
RECORDED = json.loads((BENCH / "grid_scan_expected.json").read_text())
SPECS = [(label, run) for label, run in WORKLOADS.grid_scan_specs()
         if label.endswith((".h0.05", ".h0.02"))]


def test_both_steps_of_every_scan_are_replayed():
    labels = [label for label, _ in SPECS]
    assert len(labels) == 18 and set(labels) <= set(RECORDED)


@pytest.mark.parametrize("label, run", SPECS, ids=[label for label, _ in SPECS])
def test_grid_scan_outcome_matches_the_record(label, run):
    assert WORKLOADS.check_recorded(run(), RECORDED[label]) is None
