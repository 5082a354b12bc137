#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark, in about a quarter of a minute.

    python3 perfbench/selftest.py

It checks that the metric names, units and workloads the benchmark prints
match ``BENCHMARK.json``; that every workload passes its checks at a tiny
size, untraced and traced; that two traced runs of one seed give identical
counters; that each workload's output check flags a deliberately wrong
output, as does the stdout identity check across passes; that a pass starts
from a fresh import of ``gametree``; and that a traced op that raises inside
a layer is counted as failed. Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import sys
import tempfile

import run
import spans
import workloads

TINY = 0.03  # ladder scale: a few instances per workload
failures: list[str] = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_names():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py runs")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end names and units match run.py")
    expect({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
           == spans.METRICS, "BENCHMARK.json per_layer entries match spans.py")
    return bench


def tiny_run(bench, name: str, trace: bool, workdir: str):
    result, _report, _tracer = run.run_workload(name, run.DEFAULT_SEED, 0, trace,
                                                workdir, scale=TINY)
    listed = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    mode = "traced" if trace else "untraced"
    expect(result["correct"] and result["failed"] == 0,
           f"{name}: tiny {mode} run passes every check")
    expect(list(result["metrics"]) == listed,
           f"{name}: tiny {mode} run prints exactly the listed metrics")
    return result


def counters(result) -> dict:
    return {m: v["value"] for m, v in result["metrics"].items()
            if v["unit"] != "s" and m != "trace.overhead_frac"}


def check_flags(workload, results):
    """Corrupt one output per workload and expect the checker to flag it."""
    ops, name = workload.ops, workload.name
    expect(workload.check(ops, results) == {}, f"{name}: genuine outputs pass")
    bad = list(results)
    if name == "solve":
        k = next(i for i, op in enumerate(ops) if op.kind == "efce")
        bad[k] = dataclasses.replace(results[k], stderr=results[k].stderr.replace(
            '"gap": "0"', '"gap": "1/7"'))
        j = next(i for i, op in enumerate(ops) if op.kind == "bce+objective")
        report = json.loads(results[j].stderr)
        report["outputs"]["objective_value"] += "1"
        bad[j] = dataclasses.replace(results[j], stderr=json.dumps(report))
        flagged = workload.check(ops, bad)
        expect(k in flagged, "solve: a nonzero reported gap is flagged")
        expect(j in flagged, "solve: unequal efce and bce objective values are flagged")
    elif name == "rewrite":
        k = 0
        bad[k] = dataclasses.replace(results[k], stderr=re.sub(
            r"bce gap out:.*", "bce gap out:  1000", results[k].stderr))
        bad[1] = dataclasses.replace(results[1], stderr=results[1].stderr.replace(
            "outcome-equivalent: True", "outcome-equivalent: False"))
        flagged = workload.check(ops, bad)
        expect(k in flagged, "rewrite: bce gap out above efce gap in is flagged")
        expect(1 in flagged, "rewrite: a rewrite that is not outcome-equivalent is flagged")
    else:
        k = next(i for i, op in enumerate(ops) if (op.group, op.kind) == ("lrr", "efce"))
        bad[k] = dataclasses.replace(results[k], stdout=results[k].stdout.replace(
            '"gap": "1/5"', '"gap": "1/10"'))
        j = next(i for i, op in enumerate(ops)
                 if op.group not in ("ebos", "lrr", "surj") and op.kind == "nfcce")
        bad[j] = dataclasses.replace(results[j], stdout=re.sub(
            r'"gap": "[^"]*"', '"gap": "1000"', results[j].stdout, count=1))
        flagged = workload.check(ops, bad)
        expect(k in flagged, "audit: a fixture gap off its pin is flagged")
        expect(any(i in flagged for i, op in enumerate(ops)
                   if op.group == ops[j].group and op.kind == "efce"),
               "audit: an nfcce gap above the efce gap is flagged")
    bad = list(results)
    bad[0] = dataclasses.replace(results[0], rc=2, stderr="internal error: injected\n")
    expect(0 in workload.check(ops, bad), f"{name}: a non-zero exit code is flagged")


def check_identity(workload, results):
    runner = run.Runner(workload)
    runner.check(results)
    changed = list(results)
    changed[0] = dataclasses.replace(results[0], stdout=results[0].stdout + " ")
    runner.check(changed)
    expect(runner.failed == 1, f"{workload.name}: stdout that changes between passes "
                               f"is flagged")


def check_traced_failure(workdir):
    """A game document that does not parse makes ``parse_game`` raise inside
    its span; the traced pass must still give its metrics and count the op
    as failed."""
    path = os.path.join(workdir, "broken.game.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{}")
    op = workloads.Op(("gap", path, path, "--notion", "efce"), "broken", "efce")
    runner = run.Runner(workloads.Workload("audit", [op], workloads.check_audit))
    tracer = spans.Tracer()
    before = sys.modules["gametree.cli"]
    try:
        runner.run_pass(tracer)
    except Exception as e:  # noqa: BLE001 -- any crash fails the check
        expect(False, f"a traced op that raises is counted, not a crash ({e!r})")
        return
    expect(sys.modules["gametree.cli"] is not before,
           "a pass starts from a fresh import of gametree")
    expect(runner.failed == 1 and tracer.per_pass[0]["game.parse_game.calls"] == 1,
           "a traced op that raises is counted as failed")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    bench = check_names()
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        for name in run.WORKLOADS:
            tiny_run(bench, name, False, workdir)
            first = tiny_run(bench, name, True, workdir)
            second = tiny_run(bench, name, True, workdir)
            expect(counters(first) == counters(second),
                   f"{name}: two traced runs of one seed give identical counters")
            workload, _ = run.set_up(name, run.DEFAULT_SEED, workdir, scale=TINY)
            results = [run.run_op(op.argv)[0] for op in workload.ops]
            check_flags(workload, results)
            check_identity(workload, results)
        check_traced_failure(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
