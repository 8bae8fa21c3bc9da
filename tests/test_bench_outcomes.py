"""The grid-scan benchmark's recorded outcomes, replayed at its two cheaper
steps, at its early exits and on the mirror-symmetric separable scans.

``bench/grid_scan_expected.json`` records the status, witness, lhs and rhs of
every grid-scan op.  The benchmark checks them at h = 0.05, 0.02 and 0.01;
here each h = 0.05 and 0.02 op, each h = 0.01 op that stops at its first
witness (about a millisecond each), the h = 0.01 c1 and dominates scans
that hold, and both budgeted searches (about 10 ms together) are run and
checked with the benchmark's own ``check_recorded``.  The atom-scale ops on
at most 12 atoms (set-up and all about half a second) go through their own
checks: the table and range references, the grid oracle and the expected
verdicts.  The files under ``bench/`` are only read.
"""

import importlib.util
import json
import re
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
EARLY_EXITS = ("c1.lukasiewicz-circ", "c2.lukasiewicz-circ", "q.godel-prod",
               "dominates.lukasiewicz-min")
# the ops whose c1 and dominates scans compare only the b >= a half of each row
SEPARABLE = ("c1.all-min.h0.01", "dominates.min-prod.h0.01", "search.squares.budget8e6",
             "search.lukasiewicz-circ.budget5e6")
SPECS = [(label, run) for label, run in WORKLOADS.grid_scan_specs()
         if label.endswith((".h0.05", ".h0.02"))
         or label in {f"{name}.h0.01" for name in EARLY_EXITS} | set(SEPARABLE)]


def test_both_steps_of_every_scan_are_replayed():
    labels = [label for label, _ in SPECS]
    assert len(labels) == 26 and set(labels) <= set(RECORDED)


@pytest.mark.parametrize("label, run", SPECS, ids=[label for label, _ in SPECS])
def test_grid_scan_outcome_matches_the_record(label, run):
    assert WORKLOADS.check_recorded(run(), RECORDED[label]) is None


def atoms(op):
    """The atom count n of an atom-scale op, from the ``.n<n>`` that ends its kind."""
    return int(re.fullmatch(r".*\.n(\d+)", op.kind)[1])


# the n = 16 and 20 tables are built but not run: their ops take about 0.5 s
ATOM_OPS = [op for op in WORKLOADS.atom_scale(1).ops if atoms(op) <= 12]


def test_the_atom_scale_ops_up_to_twelve_atoms_are_replayed():
    assert len(ATOM_OPS) == 50 and sorted({atoms(op) for op in ATOM_OPS}) == [4, 6, 7, 8, 10, 12]


@pytest.mark.parametrize("op", ATOM_OPS, ids=[op.kind for op in ATOM_OPS])
def test_atom_scale_outcome_passes_its_check(op):
    assert op.check(op.run()) is None
