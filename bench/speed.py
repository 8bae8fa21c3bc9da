"""Machine-speed normalisation for the benchmark's timings.

A shared machine's speed can drift by up to 2x over seconds to minutes with
the load of other tenants, with no steal time visible to the guest (seen on
the 2-vCPU development machine).  So each phase
of a run (one pass, the set-up probes, the repro runs) also times fixed
reference kernels, at its start and after every REF_EVERY_S of work, and the
phase's timings are divided by the median slowdown seen: the kernels' time
over their time on the quiet development machine.  Reported times therefore
read as seconds on that quiet machine, and a change to chebint, which the
kernels do not touch, still moves them.

There are three kernels: an interpreter-bound Python loop, a numpy
expression over a flat 4 MB array, and a broadcast that builds one 101^3
slab (8 MB) as the scans do.  Each workload weights them by where its own
time goes, except that ops under SHORT_OP_S follow the Python kernel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_EVERY_S = 0.1  # work between two slowdown samples
# Ops shorter than this are per-call overhead whatever the workload, so they
# are divided by the Python kernel's slowdown alone.
SHORT_OP_S = 0.02
SHORT_OP_WEIGHTS = {"python": 1.0}

_ARRAY = np.linspace(0.0, 1.0, 1 << 19)
_AXIS = np.linspace(0.0, 1.0, 101)
_TABLE = np.minimum(_AXIS[:, None], _AXIS[None, :])


def _python_kernel():
    acc = 0.0
    slots = {}
    for i in range(8000):
        acc += (i % 7) * 0.5
        slots[i & 31] = acc
    return acc


def _flat_kernel():
    return np.minimum(_ARRAY, 0.5) * _ARRAY


def _slab_kernel():
    return np.minimum(_AXIS[:, None, None], _TABLE[None, :, :])


# Each kernel with its time on the quiet development machine (Python 3.11.7,
# numpy 2.4.6, 2 vCPUs).  The times never change, so two commits compare.
KERNELS = {
    "python": (_python_kernel, 0.00078),
    "flat": (_flat_kernel, 0.00076),
    "slab": (_slab_kernel, 0.00060),
}


def _median_of_3(fn):
    times = []
    for _ in range(3):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class Speed:
    """Kernel timings against the quiet machine, and the slowdowns they imply."""

    def __init__(self, weights):
        self.weights = weights  # kernel name -> weight; the weights sum to 1
        self.samples = []  # one {kernel: time / nominal time} per sample

    def sample(self):
        names = set(self.weights) | set(SHORT_OP_WEIGHTS)
        self.samples.append({name: _median_of_3(KERNELS[name][0]) / KERNELS[name][1]
                             for name in names})

    def slowdown(self, samples, weights=None):
        """Median over samples of the weighted slowdown (default weights: the workload's)."""
        weights = weights or self.weights
        return statistics.median(sum(w * sample[name] for name, w in weights.items())
                                 for sample in samples)

    def runs(self, measure, count):
        """Call measure() count times between samples; divide by the slowdown."""
        first = len(self.samples)
        self.sample()
        values = []
        for _ in range(count):
            values.append(measure())
            self.sample()
        slowdown = self.slowdown(self.samples[first:])
        return [None if v is None else v / slowdown for v in values]
