#!/usr/bin/env python3
"""Closed-loop benchmark of the ``gt`` command line: one client, one thread.

    python3 perfbench/run.py --workload solve|rewrite|audit
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all     # each workload in turn

Run it from the root of a source checkout; it imports ``gametree`` from
``src/``. Each op is exactly the work of one ``gt`` command, run in-process
through ``gametree.cli.main`` with stdout and stderr captured, and the next op
starts only when the previous one returns. Every op parses its own documents,
and every pass starts from a fresh import of ``gametree`` (made outside the
timed region), so no module-level state carries over from one pass to the
next, as none does between two runs of the ``gt`` command.

A run sets up its inputs (``setup_s``: import ``gametree``, generate the
seeded inputs, write the documents; done ``SETUP_REPEATS`` times, median
reported), then runs whole passes over the workload's op list: at least two,
and another while it should still end within ``--seconds``. Every op's output
is checked in every pass, and its stdout must hash the same in every pass.

Times are reported at a fixed reference speed. The shared machines this runs
on change speed by up to 2x, within a second and over minutes, which would
swamp any change to the program. So right before each op the benchmark times
``reference_loop``, a fixed pure-Python loop, and scales the op's wall time by
``REFERENCE_S`` over the median of those loop times around the op (see
``speed_scales``); set-up time is scaled by the loop times taken right
before and after it.
An op's latency is then its fastest pass, the timing least disturbed.
``ops_per_s`` is ops over the sum of those latencies, and ``op_ms_p50`` /
``op_ms_p90`` are their quantiles. Each pass holds at least 100 ops, so at
least 10 lie beyond p90. The report lines above the JSON also give the
unscaled wall-clock figures.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``spans.py`` instead, per pass, plus ``trace.overhead_frac``; the spans go to
``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every op
passed its checks, 1 when one did not, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("solve", "rewrite", "audit")
# The seed runs use by default, and one kept back for confirming a claimed
# gain on inputs the change was not tuned on.
DEFAULT_SEED = 1
HELDOUT_SEED = 7717
DEFAULT_SECONDS = 30
SETUP_REPEATS = 3
MIN_PASSES = 2
# The time of reference_loop on an unloaded core of the machine the bounds in
# BENCHMARK.json were set on (Intel Xeon, Python 3.11). Reported times are
# scaled to this speed.
REFERENCE_S = 0.63e-3
SPEED_WINDOW = 10

# name -> unit of every end-to-end metric, in report order
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "gametree" / "__init__.py").is_file():
        print(f"error: no gametree sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        result, report, tracer = run_workload(args.workload, args.seed, args.seconds,
                                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"),
                     {"workload": args.workload, "seed": args.seed, **environment()})
    print(report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc, "cpu": cpu}


# -- set-up -------------------------------------------------------------------------


def set_up(name: str, seed: int, workdir: str, scale: float = 1.0):
    """Import gametree afresh, generate the inputs and write the documents,
    ``SETUP_REPEATS`` times; returns the last workload and the median time."""
    times = []
    workload = None
    for rep in range(SETUP_REPEATS):
        forget_gametree()
        directory = os.path.join(workdir, f"inputs{rep}")
        before = statistics.median(reference_seconds() for _ in range(5))
        start = time.perf_counter()
        importlib.import_module("gametree.cli")
        workload = workloads.build(name, seed, directory, scale)
        elapsed = time.perf_counter() - start
        after = statistics.median(reference_seconds() for _ in range(5))
        times.append(elapsed * 2 * REFERENCE_S / (before + after))
    return workload, statistics.median(times)


def forget_gametree():
    """Drop every ``gametree`` module, so the next import runs them afresh."""
    for modname in [m for m in sys.modules
                    if m == "gametree" or m.startswith("gametree.")]:
        del sys.modules[modname]


# -- running ops --------------------------------------------------------------------


def run_op(argv):
    """Run one ``gt`` command in-process; returns (result, seconds)."""
    cli = sys.modules["gametree.cli"]
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as e:  # argparse rejected the arguments
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a crash is a failed op, never a lost run
        error = f"{type(e).__name__}: {e}"
    elapsed = time.perf_counter() - start
    return workloads.OpResult(rc, out.getvalue(), err.getvalue(), error), elapsed


def reference_loop():
    """A fixed pure-Python loop of the kind the program runs (Fraction
    arithmetic, tuples, dicts); its time tracks the machine's current speed."""
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(k % 7 + 1, k % 5 + 2) * Fraction(k % 3 + 1, k % 11 + 1)
    table = {}
    for k in range(300):
        table[(k, k % 7)] = [k] * 3
    return total, len(table)


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def speed_scales(refs: list[float]) -> list[float]:
    """Per op, ``REFERENCE_S`` over the machine's speed around it: the median
    of the reference times of the ``SPEED_WINDOW`` ops on either side. One
    reference time alone is too noisy (about 15% between neighbours), and
    taking each op's fastest pass would then favour the passes whose
    reference happened to run slow."""
    n = len(refs)
    return [REFERENCE_S / statistics.median(
                refs[max(0, k - SPEED_WINDOW):min(n, k + SPEED_WINDOW + 1)])
            for k in range(n)]


class Runner:
    """Runs passes over a workload's ops and keeps what the metrics need."""

    def __init__(self, workload):
        self.workload = workload
        self.best: list[float] = []      # per op, its fastest untraced pass
        self.best_raw: list[float] = []  # the same in wall-clock seconds
        self.busy = {False: 0.0, True: 0.0}  # traced? -> scaled seconds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []  # stdout sha256 per op, from the first pass

    def run_pass(self, tracer=None):
        ops = self.workload.ops
        results, times, refs = [], [], []
        forget_gametree()
        importlib.import_module("gametree.cli")
        if tracer is not None:
            tracer.begin_pass()
            tracer.install()
        try:
            for k, op in enumerate(ops):
                refs.append(reference_seconds())
                if tracer is not None:
                    tracer.begin_op(k)
                res, elapsed = run_op(op.argv)
                if tracer is not None:
                    tracer.end_op()
                results.append(res)
                times.append(elapsed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        scales = speed_scales(refs)
        scaled = [t * f for t, f in zip(times, scales)]
        if tracer is not None:
            tracer.end_pass(scales)
        self.busy[tracer is not None] += sum(scaled)
        if tracer is None:
            self.best = list(map(min, self.best, scaled)) if self.best else scaled
            self.best_raw = list(map(min, self.best_raw, times)) if self.best_raw else times
        self.check(results)

    def check(self, results):
        ops = self.workload.ops
        bad = self.workload.check(ops, results)
        digests = [hashlib.sha256(r.stdout.encode()).hexdigest() for r in results]
        if not self.digests:
            self.digests = digests
        for k, (first, now) in enumerate(zip(self.digests, digests)):
            if first != now:
                bad.setdefault(k, "stdout differs from the first pass")
        self.attempted += len(ops)
        self.failed += len(bad)
        for k in sorted(bad)[:max(0, 5 - len(self.failures))]:
            args = ' '.join(os.path.basename(a) for a in ops[k].argv)
            self.failures.append(f"gt {args}: {bad[k]}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, scale: float = 1.0):
    """Set up and measure one workload; returns the result object, the report
    text and the tracer (None if untraced)."""
    workload, setup_s = set_up(name, seed, workdir, scale)
    runner = Runner(workload)
    tracer = spans.Tracer() if trace else None
    min_passes = 1 if trace else MIN_PASSES
    passes = 0
    start = time.perf_counter()
    while True:
        runner.run_pass()
        if trace:
            runner.run_pass(tracer)
        passes += 1
        elapsed = time.perf_counter() - start
        # start another pass only if it should end within the time given
        if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
            break
    env = environment()
    lines = [f"# workload={name} seed={seed} ops/pass={len(workload.ops)} "
             f"passes={passes}{' (x2: untraced, traced)' if trace else ''} "
             f"ops={runner.attempted} failed={runner.failed} "
             "instances per stratum: " + "; ".join(
                 f"{family} {list(sizes.values())}"
                 for family, sizes in workload.sizes.items()),
             f"# python={env['python']} nproc={env['nproc']} cpu={env['cpu']}"]
    lines += [f"# FAILED {msg}" for msg in runner.failures]
    if trace:
        metrics = per_layer(tracer, runner)
        lines += [f"# layer shares of traced self time: " + ", ".join(
            f"{layer} {share:.1%}"
            for layer, share in spans.layer_shares(tracer.first).items())]
    else:
        metrics = end_to_end(runner, setup_s)
        raw = runner.best_raw
        lines.append(f"# unscaled wall clock: ops_per_s={len(raw) / sum(raw):.4g} "
                     f"op_ms_p50={statistics.median(raw) * 1e3:.4g} "
                     f"op_ms_p90={statistics.quantiles(raw, n=10)[8] * 1e3:.4g}")
    lines += [f"{m} = {v['value']:.6g} {v['unit']}" for m, v in metrics.items()]
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return result, "\n".join(lines), tracer


def end_to_end(runner: Runner, setup_s: float) -> dict:
    lat = runner.best
    deciles = statistics.quantiles(lat, n=10)
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}


def per_layer(tracer, runner: Runner) -> dict:
    """Mean over traced passes. Counts must repeat exactly in every pass."""
    per_pass = tracer.per_pass
    first = per_pass[0]
    for other in per_pass[1:]:
        for m, unit_better in spans.METRICS.items():
            if unit_better[0] != "s" and m in first and first[m] != other[m]:
                runner.failed += 1
                runner.failures.append(f"counter {m} differs between traced passes")
    values = {m: statistics.fmean(p[m] for p in per_pass) for m in first}
    values["trace.overhead_frac"] = runner.busy[True] / runner.busy[False] - 1
    return {m: {"value": values[m], "unit": unit}
            for m, (unit, _better) in spans.METRICS.items()}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process, so each reports its own peak
    memory; exit 1 if any op of any workload failed."""
    summary, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary[name] = {"correct": False, "error": f"exit code {proc.returncode}"}
        ok = ok and proc.returncode == 0 and summary[name].get("correct") is True
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
