"""Time one training step per method at the benchmark workloads' shapes.

One step is one ``semimatch.trainer.train_step`` call, the function
``trainer.train`` calls for each step: the weak and strong forwards,
``batch_terms``, ``loss_and_gradients`` and ``adam_step``. As in ``train``,
the baseline's unlabelled branches are empty, so it runs the last two only.
The shapes are the workloads': 4 labelled and 16 unlabelled rows (batch 4,
ratio 4), hidden width 64, 7 emotion and 8 intent classes, and a feature
width of 32 (signal, 8 bins) or 17 (tokens), at the default tau and sigma.
Each repeat times a run of steps per method and width, from the same seeded
model, in an order that rotates from repeat to repeat. It prints the median
and IQR of the microseconds per step, one row per method and width (the IQR
of a single repeat is 0).

    python tools/step_bench.py [--repeats 15] [--steps 200]

It imports ``semimatch`` from the ``src/`` tree of the checkout it sits in
and uses one BLAS thread.
"""

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from semimatch import trainer  # noqa: E402
from semimatch.losses import LossCoefficients  # noqa: E402
from semimatch.model import AdamState, BatchLossSpec, init_model  # noqa: E402

N_LAB, N_UNLAB, HIDDEN, N_EMOTION, N_INTENT = 4, 16, 64, 7, 8
WIDTHS = {"signal": 32, "tokens": 17}
BATCHES = 50     # distinct seeded batches a run of steps cycles through


def batches(width: int, rng: np.random.Generator) -> list:
    return [(rng.normal(size=(N_LAB, width)), rng.integers(0, N_EMOTION, N_LAB),
             rng.integers(0, N_INTENT, N_LAB), rng.normal(size=(N_UNLAB, width)),
             rng.normal(size=(N_UNLAB, width))) for _ in range(BATCHES)]


def run_steps(method: str, width: int, data: list, steps: int) -> float:
    """Seconds per step over ``steps`` steps of one seeded training run."""
    config = trainer.TrainConfig(method=method)
    model = init_model(width, HIDDEN, N_EMOTION, N_INTENT, np.random.default_rng(7))
    state = AdamState.zeros_like(model)
    coeffs = LossCoefficients()
    if method == "baseline":    # train() draws no unlabelled sample for it
        empty = np.empty((0, width))
        data = [(*batch[:3], empty, empty) for batch in data]
    start = time.perf_counter()
    for i in range(steps):
        lab_x, emo, intent, weak_x, strong_x = data[i % len(data)]
        spec = BatchLossSpec(lab_features=lab_x, emo_labels=emo, int_labels=intent,
                             coeffs=coeffs, intent_weight=config.intent_weight)
        _, model, state = trainer.train_step(method, model, spec, weak_x, strong_x,
                                             config.tau, config.sigma, state, 2e-2)
    return (time.perf_counter() - start) / steps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--steps", type=int, default=200)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.steps < 1:
        parser.error("--repeats and --steps must be at least 1")
    data = {m: batches(w, np.random.default_rng(w)) for m, w in WIDTHS.items()}
    cells = [(method, modality) for modality in WIDTHS for method in trainer.METHODS]
    for cell in cells:                      # warm-up
        run_steps(cell[0], WIDTHS[cell[1]], data[cell[1]], 20)
    times = {cell: [] for cell in cells}
    for r in range(args.repeats):
        for cell in cells[r % len(cells):] + cells[:r % len(cells)]:
            times[cell].append(run_steps(cell[0], WIDTHS[cell[1]], data[cell[1]], args.steps))
    print(f"us per step, median (IQR) of {args.repeats} repeats of {args.steps} steps")
    for (method, modality), runs in times.items():
        us = [t * 1e6 for t in runs]
        q1, median, q3 = (statistics.quantiles(us, n=4, method="inclusive") if len(us) > 1
                          else us * 3)
        print(f"{method:9s} {modality:6s} width {WIDTHS[modality]:2d}: "
              f"{median:7.1f} ({q3 - q1:5.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
