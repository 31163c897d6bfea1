"""Self-test of the benchmark at tiny size; runs in seconds.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted, with a unit and a
well-formed name, on every workload and in both modes, and that corrupted
outputs make the output checks fail. Exits 1 and lists what failed.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import replace

import run  # sets the BLAS threads and puts this checkout's src/ on the path
from tracer import MOVES
from workloads import WORKLOADS, OpOutput, check_op, prepare, run_op

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

failures: list[str] = []


def expect(condition: bool, message: str):
    if not condition:
        failures.append(message)


def tiny(workload):
    """Small enough to run in a fraction of a second; too small to pass the
    criterion-7 checks, so only the emitted metrics are checked on it."""
    return replace(workload, emotion_counts=(5,) * 4, intent_counts=(5,) * 4,
                   unlabelled_count=48, min_len=24, max_len=48, epochs=3 - 2 * workload.sweep)


def small(workload):
    """The criterion-7 classes on short sequences; large enough that the
    uncorrupted op passes its checks."""
    return replace(workload, unlabelled_count=200, min_len=24, max_len=48, epochs=6)


def check_emitted(spec: dict, workdir: str):
    declared = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json workloads differ from perfbench/workloads.py")
    for name in declared[1]:
        expect(any(name == key or name.startswith(key + ".") for key in MOVES),
               f"per-layer metric {name} has no entry in tracer.MOVES")
    for workload in WORKLOADS.values():
        for trace in (0, 1):
            record = run.run_benchmark(tiny(workload), seed=3, seconds=0.01,
                                       trace=bool(trace), workdir=workdir)
            where = f"{workload.name} --trace {trace}"
            metrics = record["metrics"]
            expect(sorted(metrics) == sorted(declared[trace]),
                   f"{where}: emitted {sorted(metrics)}, declared {sorted(declared[trace])}")
            for name, metric in metrics.items():
                expect(NAME.fullmatch(name) is not None, f"{where}: bad metric name {name!r}")
                expect(UNIT.fullmatch(metric.get("unit", "")) is not None,
                       f"{where}: {name} has a bad or missing unit")
                value = metric.get("value")
                expect(isinstance(value, (int, float)) and math.isfinite(value),
                       f"{where}: {name} is not a finite number: {value!r}")


def corrupted(out: OpOutput, edit) -> OpOutput:
    runs = copy.deepcopy(out.runs)
    edit(runs)
    return OpOutput(seconds=out.seconds, runs=runs, exit_code=out.exit_code,
                    split_warnings=out.split_warnings, sweep_csv=out.sweep_csv)


def check_corruption(workdir: str):
    workload = small(WORKLOADS["tokens-ssl"])
    out = run_op(workload, prepare(workload, 3, workdir), 3)
    expect(check_op(workload, out) == [], "the uncorrupted tiny op fails its checks")
    by_method = {r.method: i for i, r in enumerate(out.runs)}

    def nudge_loss(runs):
        runs[by_method["fixmatch"]].result.reports[0].mean_total += 1e-12

    def nan_jrbm(runs):
        runs[0].result.test_metrics.jrbm = math.nan

    def out_of_range_jrbm(runs):
        runs[0].result.test_metrics.jrbm = 1.5

    def no_acceptance(runs):
        runs[by_method["fixmatch"]].result.reports[-1].emo.acceptance_rate = 0.0

    def no_entropy_loss(runs):
        runs[by_method["fullmatch"]].result.reports[-1].intent.ent = 0.0

    def no_negative_loss(runs):
        runs[by_method["fullmatch"]].result.reports[1].emo.neg = 0.0

    def lost_run(runs):
        del runs[-1]

    bad = corrupted(out, nudge_loss)
    expect(bad.digest != out.digest, "a one-ulp change to an epoch CSV keeps the digest")
    ops = [run.Op(traced=False, output=out), run.Op(traced=False, output=bad)]
    run._cross_check(ops)
    expect(bool(ops[1].problems), "an op whose epoch CSV differs passes the repeat check")
    for edit in (nan_jrbm, out_of_range_jrbm, no_acceptance, no_entropy_loss,
                 no_negative_loss, lost_run):
        expect(check_op(workload, corrupted(out, edit)) != [],
               f"corruption '{edit.__name__}' passes the output checks")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR, prefix="selftest-") as workdir:
        check_emitted(spec, workdir)
        check_corruption(workdir)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
