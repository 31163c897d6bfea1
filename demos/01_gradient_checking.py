"""Verify the hand-derived gradients against central finite differences.

The classifier, every loss term, and backprop are written by hand, so the
first thing worth demonstrating is that the analytic gradients are exact.
The oracle perturbs each parameter by +-``model.FD_STEP`` and differences the loss;
batch decisions (pseudo labels, gates, the rank cut k, soft targets) are
frozen before either path runs.
"""

import numpy as np

from semimatch.gradcheck import TOLERANCE, run_gradient_checks
from semimatch.losses import LossCoefficients, build_task_terms
from semimatch.model import (
    BatchLossSpec,
    batch_loss,
    finite_difference_gradient,
    forward_batch,
    init_model,
    loss_and_gradients,
    max_relative_error,
)

rng = np.random.default_rng(7)

# a desk-scale model: 16 features, 8 hidden units, 7 + 8 classes
model = init_model(input_dim=16, hidden_size=8, n_emotion=7, n_intent=8, rng=rng)

# one batch: 4 labelled feature vectors plus 4 unlabelled ones seen through
# a weak branch (decisions) and a strong branch (losses)
x_lab = rng.standard_normal((4, 16))
x_weak = rng.standard_normal((4, 16))
x_strong = rng.standard_normal((4, 16))
weak_emo, weak_int = forward_batch(model, x_weak)
strong_emo, strong_int = forward_batch(model, x_strong)

spec = BatchLossSpec(
    lab_features=x_lab,
    emo_labels=rng.integers(0, 7, 4),
    int_labels=rng.integers(0, 8, 4),
    strong_features=x_strong,
    emo_terms=build_task_terms(weak_emo, strong_emo, tau=0.15, sigma=0.99),
    int_terms=build_task_terms(weak_int, strong_int, tau=0.15, sigma=0.99),
    coeffs=LossCoefficients(unsup=0.5, negative=0.5, entropy=0.5),
)

result, analytic = loss_and_gradients(model, spec)
numeric = finite_difference_gradient(lambda m: batch_loss(m, spec).total, model)
err = max_relative_error(analytic, numeric, floor=TOLERANCE)
print(f"combined loss on this batch: {result.total:.6f}")
print(f"max relative error, analytic vs numeric: {err:.3e}")

print("\nnow the full sweep: 20 random batches x 7 loss configurations")
report = run_gradient_checks(seed=0, n_batches=20)
for name in sorted(report.per_config):
    print(f"  {name:<24s} {report.per_config[name]:.3e}")
print(f"overall max relative error: {report.max_rel_error:.3e} "
      f"({'PASS' if report.passed else 'FAIL'} at tolerance {report.tolerance:.0e})")
