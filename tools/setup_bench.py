"""Time and measure the memory of corpus set-up: generate, write, load.

For acceptance criterion 7's corpus recipe (200 labelled / 5000 unlabelled
samples of 160-320 frames or tokens, generator seed 100), signal and tokens,
one process runs ``synthesize_corpus``, ``save_corpus`` to a temporary file,
drops the corpus and runs ``load_corpus`` on the file, as the benchmark's
set-up does. After each phase it reads the phase's seconds and the process's
``ru_maxrss`` high-water mark. Each repeat of each modality runs in a fresh
process, since the high-water mark only rises; the modality that goes first
alternates from repeat to repeat. It prints the median of each number over
the repeats, one row per modality and phase, and the file size.

    python tools/setup_bench.py [--repeats 5] [--unlabelled 5000]

``--unlabelled`` changes the unlabelled count of the recipe (the pool whose
size a corpus file grows with). It imports ``semimatch`` from the ``src/``
tree of the checkout it sits in and uses one BLAS thread.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

CRITERION_7 = dict(emotion_counts=(29, 29, 29, 29, 28, 28, 28), intent_counts=(25,) * 8,
                   min_len=160, max_len=320, separation=1.5, correlation=0.8, seed=100)
MODALITY_MIX = {"signal": 1.0, "tokens": 0.0}
PHASES = ("import", "synthesize_corpus", "save_corpus", "load_corpus")


def _high_water_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_setup(modality: str, unlabelled: int) -> dict:
    """``{phase: [seconds, high-water MB after it]}`` and the file size in
    MB, in this process; the first phase is the import of ``semimatch``."""
    start = time.perf_counter()
    from semimatch import data
    report = {"import": [time.perf_counter() - start, _high_water_mb()]}

    def timed(phase, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        report[phase] = [time.perf_counter() - start, _high_water_mb()]
        return result

    config = data.GeneratorConfig(**CRITERION_7, unlabelled_count=unlabelled,
                                  modality_mix=MODALITY_MIX[modality])
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "corpus.jsonl")
        corpus = timed("synthesize_corpus", data.synthesize_corpus, config)
        timed("save_corpus", data.save_corpus, corpus, path)
        del corpus
        timed("load_corpus", data.load_corpus, path)
        report["file_mb"] = os.path.getsize(path) / 1e6
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--unlabelled", type=int, default=5000)
    parser.add_argument("--one", choices=sorted(MODALITY_MIX), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.unlabelled < 0:
        parser.error("--repeats must be at least 1 and --unlabelled non-negative")
    if args.one:
        print(json.dumps(one_setup(args.one, args.unlabelled)))
        return 0
    modalities = list(MODALITY_MIX)
    reports = {modality: [] for modality in modalities}
    for r in range(args.repeats):
        for modality in modalities[r % 2:] + modalities[:r % 2]:
            proc = subprocess.run(
                [sys.executable, __file__, "--one", modality, "--unlabelled", str(args.unlabelled)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"setup_bench: the {modality} set-up failed:\n{proc.stderr}")
            reports[modality].append(json.loads(proc.stdout))
    print(f"corpus set-up, criterion-7 recipe with {args.unlabelled} unlabelled; "
          f"median of {args.repeats} fresh processes")
    print(f"{'':6s} {'phase':17s} {'seconds':>8s} {'high-water MB':>14s}")
    for modality, runs in reports.items():
        for phase in PHASES:
            seconds, mb = (statistics.median(run[phase][i] for run in runs) for i in (0, 1))
            print(f"{modality:6s} {phase:17s} {seconds:8.3f} {mb:14.1f}")
        print(f"{modality:6s} {'file size MB':17s} {runs[0]['file_mb']:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
