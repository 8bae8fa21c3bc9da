"""chebint benchmark: four workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload scenario-suite --seed 1 --seconds 20 --trace 0

Workloads: scenario-suite, grid-scan, property-mix, atom-scale (see
bench/README.md).  With ``--trace 0`` the named workload runs untraced for
about ``--seconds`` seconds and the end-to-end metrics are reported.  With
``--trace 1`` every workload runs one untraced and one traced pass, and the
per-layer metrics of BENCHMARK.json are reported; the spans go to
``.bench_out/``.  Every time is divided by the machine's slowdown, measured
with reference kernels (speed.py).  Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Everything runs in one process and one
thread, pinned to one CPU; subprocesses (set-up probes, ``chebint repro``,
``import chebint``) run one at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # single-threaded numpy; must precede its import

import numpy as np  # noqa: E402  (after the thread settings above)
from speed import REF_EVERY_S, SHORT_OP_S, SHORT_OP_WEIGHTS, Speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("scenario-suite", "grid-scan", "property-mix", "atom-scale")

SETUP_PROBES = 7  # set-ups per run; setup_s is their median
REPRO_RUNS = 15  # timed `chebint repro` runs after one warm-up
IMPORT_RUNS = 7  # timed `import chebint` runs after one warm-up
OP_TIMEOUT_S = 30
MEASURE_CAP_S = 90  # no new pass starts after this
DEADLINE_S = 140  # no new op starts after this, so a run ends well within 180 s
SUBPROCESS_TIMEOUT_S = 60
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

STARTED = time.monotonic()
SUBPROCESS_REFERENCE = {"python": 0.5, "flat": 0.5}  # start-up: bytecode plus loading numpy


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_chebint():
    """Import chebint from this checkout's src/, never from anywhere else."""
    package = SRC / "chebint"
    if not (package / "__init__.py").is_file():
        fail(f"no chebint sources at {package}")
    sys.path.insert(0, str(SRC))
    import chebint

    if Path(chebint.__file__).resolve().parent != package.resolve():
        fail(f"imported chebint from {chebint.__file__}, expected {package}")


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


class Tally:
    """Attempted and failed ops, with the first few problems for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, kind, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{kind}: {problem}")


def run_op(op, call):
    """Time one op under a timeout, then check its result: (seconds, problem)."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        result = call(op.run)
    except OpTimeout:
        return time.perf_counter() - start, f"timed out after {OP_TIMEOUT_S} s"
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    try:
        problem = op.check(result)
    except Exception as exc:  # a malformed result fails its op
        problem = f"check raised {type(exc).__name__}: {exc}"
    return seconds, problem


def run_pass(ops, tally, speed, call=lambda fn: fn()):
    """Run every op once; returns (normalised op times, raw total), in seconds.

    The reference kernels are sampled before the pass and after every
    REF_EVERY_S of op time.  Each op is divided by the pass's median slowdown:
    the Python kernel's for ops under SHORT_OP_S, the workload's otherwise.
    """
    first = len(speed.samples)
    speed.sample()
    raw = []
    since_sample = 0.0
    for op in ops:
        if time.monotonic() - STARTED > DEADLINE_S:
            tally.record(op.kind, "not started: run deadline passed")
            continue
        seconds, problem = run_op(op, call)
        tally.record(op.kind, problem)
        raw.append(seconds)
        since_sample += seconds
        if since_sample >= REF_EVERY_S:
            speed.sample()
            since_sample = 0.0
    speed.sample()
    samples = speed.samples[first:]
    short, long = speed.slowdown(samples, SHORT_OP_WEIGHTS), speed.slowdown(samples)
    return [t / (short if t < SHORT_OP_S else long) for t in raw], sum(raw)


def run_child(args, tally, kind, expect_stdout=None):
    """Time one subprocess of the interpreter to exit; returns milliseconds."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.record(kind, f"timed out after {SUBPROCESS_TIMEOUT_S} s")
        return None
    ms = (time.perf_counter() - start) * 1000.0
    problem = expect_stdout(proc) if expect_stdout else (
        None if proc.returncode == 0 else f"exit code {proc.returncode}: {proc.stderr[-200:]}")
    tally.record(kind, problem)
    return ms


def setup_probe_seconds(workload, seed, tally):
    """Seconds from starting an interpreter to its workload being built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        try:
            code = proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
    ok = line.strip() == "ready" and code == 0
    tally.record("setup-probe", None if ok else f"probe printed {line!r}, exit {code}")
    return seconds if ok else None


def repro_check(expect):
    from workloads import check_expect

    def check(proc):
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return f"no JSON report (exit {proc.returncode})"
        return check_expect((proc.returncode, report), expect)
    return check


def median_or_nan(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def measure_workload(args):
    """Untraced run of one workload: the end-to-end metrics."""
    import chebint.scenarios as scenarios
    from workloads import NOT_RUN, WORKLOADS

    tally = Tally()
    subprocess_speed = Speed(SUBPROCESS_REFERENCE)
    setups = subprocess_speed.runs(
        lambda: setup_probe_seconds(args.workload, args.seed, tally), SETUP_PROBES)
    workload = WORKLOADS[args.workload](args.seed)
    speed = Speed(workload.reference)
    ops = workload.ops
    min_samples = math.ceil(TAIL_BEYOND / (1.0 - workload.tail_pct / 100.0))
    min_passes = math.ceil(min_samples / len(ops))

    pass_times, op_times = [], []
    start = time.monotonic()
    while ((time.monotonic() - start < args.seconds or len(pass_times) < min_passes)
           and time.monotonic() - STARTED < MEASURE_CAP_S):
        times, _ = run_pass(ops, tally, speed)
        if len(times) < len(ops):
            break
        pass_times.append(sum(times))
        op_times += times

    expect = scenarios.load_scenario(workload.repro)["expect"]
    repro_args = ["-m", "chebint.cli", "repro", workload.repro, "--json"]
    check = repro_check(expect)
    run_child(repro_args, tally, "repro-warm-up", check)
    repro = subprocess_speed.runs(lambda: run_child(repro_args, tally, "repro", check),
                                  REPRO_RUNS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ms = [t * 1000.0 for t in op_times] or [float("nan")]
    beyond = len(op_times) * (1.0 - workload.tail_pct / 100.0)
    repro_note = f"`chebint repro {workload.repro} --json`"
    metrics = {
        "setup_s": (median_or_nan(setups), "s",
                    f"median of {SETUP_PROBES} set-ups in fresh interpreters"),
        "pass_s": (median_or_nan(pass_times), "s",
                   f"median of {len(pass_times)} passes, {len(ops)} ops each"),
        "op_ms.p50": (float(np.percentile(ms, 50)), "ms", f"{len(op_times)} samples"),
        "op_ms.tail": (float(np.percentile(ms, workload.tail_pct)), "ms",
                       f"p{workload.tail_pct:g}, {len(op_times)} samples, {beyond:.1f} beyond"),
        "peak_rss_mb": (peak_rss_mb, "MB", "max resident set of this process"),
        "repro_cli_ms": (median_or_nan(repro), "ms",
                         f"median of {REPRO_RUNS} {repro_note} after 1 warm-up"),
    }
    lines = [f"workload {args.workload}  seed {args.seed}  trace 0"]
    lines += [f"  {name:14s} {value:12.6g} {unit:3s}  ({note})"
              for name, (value, unit, note) in metrics.items()]
    lines.append(f"  failed_ratio   {tally.failed} / {tally.attempted}"
                 f" = {tally.failed / max(tally.attempted, 1):g}")
    lines.append(f"  slowdown vs the quiet machine (times above are divided by it): passes"
                 f" {speed.slowdown(speed.samples):.3f} with kernels {workload.reference},"
                 f" {speed.slowdown(speed.samples, SHORT_OP_WEIGHTS):.3f} for ops under"
                 f" {SHORT_OP_S * 1e3:g} ms; subprocesses"
                 f" {subprocess_speed.slowdown(subprocess_speed.samples):.3f}")
    lines += [f"  failure: {p}" for p in tally.problems]
    lines += [f"  not run: {what} ({why})" for name, what, why in NOT_RUN if name == args.workload]
    return tally, {name: (value, unit) for name, (value, unit, _) in metrics.items()}, lines


def trace_all(args):
    """One untraced and one traced pass of every workload: the per-layer metrics."""
    from tracer import Tracer, combine, layer_metrics
    from workloads import WORKLOADS

    tally = Tally()
    import_runs = Speed(SUBPROCESS_REFERENCE).runs(
        lambda: run_child(["-c", "import chebint"], tally, "import"), IMPORT_RUNS + 1)[1:]
    built = [WORKLOADS[name](args.seed) for name in WORKLOAD_NAMES]
    tracers, scales, overhead = {}, {}, {}
    for workload in built:
        speed = Speed(workload.reference)
        plain, _ = run_pass(workload.ops, tally, speed)
        tracer = Tracer()
        tracer.install()
        label = f"op.{workload.name}"
        try:
            traced, traced_raw = run_pass(workload.ops, tally, speed,
                                          lambda fn: tracer.call(label, fn))
        finally:
            tracer.uninstall()
        tracers[workload.name] = tracer
        scales[workload.name] = sum(traced) / traced_raw  # normalises the span times
        overhead[workload.name] = sum(traced) - sum(plain)

    per_workload = {name: layer_metrics(combine([(t, scales[name])]))
                    for name, t in tracers.items()}
    metrics = layer_metrics(combine([(t, scales[name]) for name, t in tracers.items()]))
    metrics["cli.import_ms"] = (median_or_nan(import_runs), "ms")
    metrics["trace.overhead_s"] = (sum(overhead.values()), "s")
    for name, seconds in overhead.items():
        metrics[f"trace.overhead_s.{name}"] = (seconds, "s")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    np.savez_compressed(f"{stem}-spans.npz", **{
        f"{name}.{field}": np.asarray(getattr(t, attr))
        for name, t in tracers.items()
        for field, attr in (("names", "names"), ("name", "span_name"), ("parent", "span_parent"),
                            ("start", "span_start"), ("end", "span_end"))})
    Path(f"{stem}-layers.json").write_text(json.dumps(
        {"total": {k: v[0] for k, v in metrics.items()},
         "per_workload": {w: {k: v[0] for k, v in m.items()} for w, m in per_workload.items()}},
        indent=1, sort_keys=True))

    lines = [f"traced run  seed {args.seed}  (all workloads; spans in {stem}-spans.npz)",
             f"  {'metric':52s} {'total':>12s} " + " ".join(f"{w:>14s}" for w in WORKLOAD_NAMES)]
    for key, (value, unit) in metrics.items():
        cells = " ".join(f"{per_workload[w][key][0]:14.6g}" if key in per_workload[w]
                         else " " * 14 for w in WORKLOAD_NAMES)
        lines.append(f"  {key:52s} {value:12.6g} {cells}  {unit}")
    unattributed = {w: t.layers[f"op.{w}"][1] * scales[w] for w, t in tracers.items()}
    lines.append("  op self time outside traced functions (s): "
                 + ", ".join(f"{w} {s:.4f}" for w, s in unattributed.items()))
    lines.append(f"  failed_ratio   {tally.failed} / {tally.attempted}")
    lines += [f"  failure: {p}" for p in tally.problems]
    return tally, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOAD_NAMES:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOAD_NAMES)}")
    if not args.seconds > 0:
        fail("--seconds must be positive")

    import_chebint()
    if not args.setup_probe:
        # One CPU for the run and its subprocesses, so the reference kernel is
        # timed on the CPU that does the work; the load is single-threaded.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    tally, metrics, lines = (trace_all if args.trace else measure_workload)(args)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # a metric with no valid sample (every probe failed) reads null, never NaN
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
