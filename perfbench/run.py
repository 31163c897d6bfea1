"""Benchmark of semimatch training, one workload per invocation.

    python3 perfbench/run.py --workload signal-ssl --seed 1 --seconds 30 --trace 0

Run it from anywhere; it uses the ``src/`` tree of the checkout it sits in
and writes only under ``.perfbench/`` there. Set-up (generate, write and
load the workload corpus) runs ``SETUPS`` times, then ops run one after
another until ``--seconds`` have passed. ``--trace 0`` reports the end-to-end
metrics with tracing off. ``--trace 1`` alternates untraced and traced ops
and reports the per-layer metrics. Every op's outputs are checked; an op that
raises, exits non-zero or fails a check counts as failed.

Human-readable lines come first. The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller
record, with the environment and every sample, goes to
``.perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field

# One BLAS thread: numpy reads these when it loads, so they are set first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
try:
    import semimatch
except ImportError as exc:
    sys.exit(f"perfbench: cannot import semimatch from {SRC}: {exc}")
if not os.path.abspath(semimatch.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: semimatch was imported from {semimatch.__file__}, not {SRC}")

import numpy as np  # noqa: E402

from tracer import MOVES, SPANS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CORPUS_SEED, WORKLOADS, OpOutput, Workload, check_op, prepare, run_op)

SETUPS = 3            # set-ups per run; setup_s is their median
MIN_ROUNDS = 2        # untraced ops per run at least, so a repeat is always checked
OUT_DIR = os.path.join(ROOT, ".perfbench")


@dataclass
class Op:
    traced: bool
    output: OpOutput | None            # None when the op raised
    spans: dict | None = None          # tracer snapshot of a traced op
    coverage: list[float] = field(default_factory=list)   # per train() call, traced op
    problems: list[str] = field(default_factory=list)


def _run_one(workload: Workload, prep, seed: int, tracer: Tracer | None) -> Op:
    if tracer is not None:
        tracer.reset()
    try:
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            output = run_op(workload, prep, seed)
    except Exception:                          # noqa: BLE001 - counted as a failed op
        traceback.print_exc()
        return Op(traced=tracer is not None, output=None, problems=["op raised"])
    if tracer is None:
        return Op(traced=False, output=output, problems=check_op(workload, output))
    return Op(traced=True, output=output, spans=tracer.snapshot(),
              coverage=[1.0 - own / total for total, own in tracer.train_calls],
              problems=check_op(workload, output))


def _trace_problems(op: Op) -> list[str]:
    """The traced op's span counts must match the work its outputs show."""
    runs = op.output.runs
    expected = {
        "trainer.train": len(runs),
        "data.make_batches": sum(len(r.result.reports) for r in runs),
        "trainer.evaluate": sum(len(r.result.reports) + 1 for r in runs),
    }
    return [f"traced op counted {op.spans[name][0]} {name} calls, outputs show {n}"
            for name, n in expected.items() if op.spans[name][0] != n]


def _cross_check(ops: list[Op]):
    """Every op must reproduce the outputs and counters of the first op that
    ran to the end, and traced ops the same span call counts."""
    done = [op for op in ops if op.output is not None]
    if not done:
        return
    ref = done[0].output
    ref_calls = next(({n: s[0] for n, s in op.spans.items()} for op in done if op.traced), None)
    for op in done:
        out = op.output
        if out.digest != ref.digest:
            op.problems.append("epoch CSVs differ from the first op of this seed")
        if out.counters() != ref.counters() or out.split_warnings != ref.split_warnings:
            op.problems.append("pseudo-label counters differ from the first op")
        if op.traced:
            op.problems += _trace_problems(op)
            if {n: s[0] for n, s in op.spans.items()} != ref_calls:
                op.problems.append("span call counts differ between traced ops")


def _median(values):
    return statistics.median(values) if values else float("nan")


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  workdir: str) -> dict:
    """Set up, run ops for ``seconds``, check them; return the results record."""
    tracer = Tracer() if trace else None
    setup_seconds, setup_spans, prep = [], [], None
    for _ in range(SETUPS):
        prep = None                            # free the last corpus before the next
        if tracer is not None:
            tracer.reset()
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            prep = prepare(workload, seed, workdir)
            setup_seconds.append(time.perf_counter() - start)
        if tracer is not None:
            setup_spans.append(tracer.snapshot())

    ops: list[Op] = []
    start, rounds = time.perf_counter(), 0
    while True:
        if trace:   # one untraced and one traced op, alternating which goes first
            order = (None, tracer) if rounds % 2 == 0 else (tracer, None)
        else:
            order = (None,)
        ops += [_run_one(workload, prep, seed, t) for t in order]
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= (1 if trace else MIN_ROUNDS) and elapsed * (rounds + 1) / rounds > seconds:
            break
    _cross_check(ops)

    # timings come from every op that ran to the end, failed checks or not
    completed = [op for op in ops if op.output is not None]
    failed = sum(1 for op in ops if op.problems)
    if not completed:
        raise RuntimeError(f"all {len(ops)} ops raised")
    if trace:
        metrics, samples = _per_layer(ops, setup_spans)
    else:
        metrics, samples = _end_to_end(completed, setup_seconds)
    return {
        "workload": asdict(workload), "corpus_seed": CORPUS_SEED, "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "environment": environment(seed),
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "failed_frac": failed / len(ops),
        "metrics": metrics, "samples": samples,
        "ops": [{"traced": op.traced, "problems": op.problems,
                 "seconds": op.output.seconds if op.output else None,
                 "digest": op.output.digest if op.output else None} for op in ops],
        "moves": MOVES if trace else None,
    }


def _method_seconds(ops: list[Op]) -> dict[str, list[float]]:
    """``<method>_s``: per op, the wall time of its train() calls of that method."""
    return {f"{method}_s": [sum(run.seconds for run in op.output.runs if run.method == method)
                            for op in ops] for method in ("baseline", "fixmatch", "fullmatch")}


def _end_to_end(completed: list[Op], setup_seconds) -> tuple[dict, dict]:
    timings = {"setup_s": setup_seconds, "run_s": [op.output.seconds for op in completed]}
    metrics = {name: {"value": _median(v), "unit": "s"} for name, v in timings.items()}
    # The per-method times are kept in the record but are per-layer metrics:
    # host speed drift gave them run-to-run spreads up to the 0.25 bound cap.
    timings.update(_method_seconds(completed))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    # deterministic: every op of a seed gives the same value, or it failed a check
    metrics["test_jrbm"] = {"value": completed[0].output.test_jrbm(), "unit": "score"}
    return metrics, timings


def _per_layer(ops: list[Op], setup_spans) -> tuple[dict, dict]:
    traced = [op for op in ops if op.traced and op.output is not None]
    if not traced:
        raise RuntimeError("every traced op raised")
    metrics = {}
    for name in SPANS:
        calls = setup_spans[0][name][0] + traced[0].spans[name][0]
        self_s = (_median([s[name][2] for s in setup_spans])
                  + _median([op.spans[name][2] for op in traced]))
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        self_name = "trainer.train.other_s" if name == "trainer.train" else f"{name}.self_s"
        metrics[self_name] = {"value": self_s, "unit": "s"}
    out = traced[0].output
    for name, value in out.counters().items():
        metrics[name] = {"value": value, "unit": "classes" if ".k_mean." in name else "ratio"}
    metrics["data.split_warnings"] = {"value": out.split_warnings, "unit": "count"}
    metrics["trace.coverage"] = {"value": min(c for op in traced for c in op.coverage),
                                 "unit": "ratio"}
    # ops run in (untraced, traced) or (traced, untraced) rounds
    pairs = [(a, b) if b.traced else (b, a) for a, b in zip(ops[::2], ops[1::2])]
    overhead = [t.output.seconds / u.output.seconds - 1.0 for u, t in pairs
                if u.output is not None and t.output is not None]
    metrics["trace.overhead_frac"] = {"value": _median(overhead), "unit": "ratio"}
    untraced = _method_seconds([op for op in ops if not op.traced and op.output is not None])
    for name, values in untraced.items():
        metrics[name] = {"value": _median(values), "unit": "s"}
    return metrics, {"trace.overhead_frac": overhead, **untraced}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "semimatch": semimatch.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "platform": platform.platform(), "workload_seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"work-{workload.name}-") as workdir:
        record = run_benchmark(workload, args.seed, args.seconds, bool(args.trace), workdir)
    path = os.path.join(OUT_DIR, "results",
                        f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload {workload.name}, seed {args.seed}: {record['attempted']} ops, "
          f"{record['failed']} failed (failed_frac {record['failed_frac']})")
    for op in record["ops"]:
        for problem in op["problems"]:
            print(f"  failed op: {problem}")
    for name, metric in record["metrics"].items():
        n = len(record["samples"].get(name, ()))
        print(f"  {name} = {metric['value']} {metric['unit']}" + (f" (median of {n})" if n else ""))
    for name, values in record["samples"].items():
        if name not in record["metrics"]:
            print(f"  ({name} = {_median(values)} s, median of {len(values)}; not emitted)")
    print(f"  results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
