"""Finite-difference verification of the analytic gradients.

Builds randomized two-task batches at desk scale, composes each loss
configuration (supervised only, gated consistency, rank-tail suppression,
mid-rank equalization, the full stack, and the multi-task combinations),
and compares backprop against the central-difference oracle. All batch
decisions are frozen before either path runs, so both see identical
constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .losses import LossCoefficients, batch_terms, build_task_terms
from .model import (
    BatchLossSpec,
    Gradients,
    batch_loss,
    init_model,
    forward_batch,
    loss_and_gradients,
    max_relative_error,
)

# tau low enough that random-init confidences open some gates and close others
_GATE_TAU = 0.15


@dataclass
class GradCheckReport:
    per_config: dict[str, float]
    max_rel_error: float
    tolerance: float
    seeds_checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def _specs_for_batch(rng, model, batch_size, input_dim, sigma=0.99):
    """All named loss configurations over one random batch."""
    x_lab = rng.standard_normal((batch_size, input_dim))
    x_weak = rng.standard_normal((batch_size, input_dim))
    x_strong = rng.standard_normal((batch_size, input_dim))
    emo_labels = rng.integers(0, model.n_emotion, batch_size)
    int_labels = rng.integers(0, model.n_intent, batch_size)
    pw_emo, pw_int = forward_batch(model, x_weak)
    ps_emo, ps_int = forward_batch(model, x_strong)

    fix_emo = build_task_terms(pw_emo, None, _GATE_TAU)
    fix_int = build_task_terms(pw_int, None, _GATE_TAU)

    weak, strong = (pw_emo, pw_int), (ps_emo, ps_int)
    joint_emo, joint_int = batch_terms("fixmatch", weak, strong, _GATE_TAU, sigma)
    full_emo, full_int = batch_terms("fullmatch", weak, strong, _GATE_TAU, sigma)

    lab = dict(lab_features=x_lab, emo_labels=emo_labels, int_labels=int_labels)
    return {
        "supervised_ce": BatchLossSpec(
            **lab, coeffs=LossCoefficients(0.0, 0.0, 0.0)),
        "gated_consistency": BatchLossSpec(
            **lab, strong_features=x_strong, emo_terms=fix_emo, int_terms=fix_int,
            coeffs=LossCoefficients(0.5, 0.0, 0.0)),
        "rank_tail_suppression": BatchLossSpec(
            strong_features=x_strong, emo_terms=full_emo, int_terms=full_int,
            coeffs=LossCoefficients(0.0, 0.5, 0.0)),
        "mid_rank_equalization": BatchLossSpec(
            strong_features=x_strong, emo_terms=full_emo, int_terms=full_int,
            coeffs=LossCoefficients(0.0, 0.0, 0.5)),
        "full_stack": BatchLossSpec(
            **lab, strong_features=x_strong, emo_terms=full_emo, int_terms=full_int,
            coeffs=LossCoefficients(0.5, 0.5, 0.5)),
        "multitask_joint_gate": BatchLossSpec(
            **lab, strong_features=x_strong, emo_terms=joint_emo, int_terms=joint_int,
            coeffs=LossCoefficients(0.5, 0.0, 0.0), intent_weight=0.7),
        "multitask_full_stack": BatchLossSpec(
            **lab, strong_features=x_strong, emo_terms=full_emo, int_terms=full_int,
            coeffs=LossCoefficients(0.5, 0.5, 0.5), intent_weight=0.7),
    }


def _numeric_gradient(model, spec, eps):
    """``finite_difference_gradient`` of ``spec``'s loss from one ``batch_loss``
    call on the 2P stacked parameter sets theta + eps e_i, then theta - eps e_i."""
    n = model.flat.size
    flat = model.flat + eps * np.concatenate([np.eye(n), -np.eye(n)])
    loss = batch_loss(model._wrap(flat, model._shapes), spec).total
    return Gradients._wrap((loss[:n] - loss[n:]) / (2.0 * eps), model._shapes)


def run_gradient_checks(seed: int = 0, n_batches: int = 20, batch_size: int = 4,
                        n_emotion: int = 7, n_intent: int = 8, input_dim: int = 16,
                        hidden_size: int = 8, eps: float = 1e-5,
                        tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic and numeric gradients over seeded random batches."""
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    if n_batches < 1:
        raise ConfigError("n_batches must be positive")
    worst: dict[str, float] = {}
    for batch_index in range(n_batches):
        rng = np.random.default_rng([seed, 50001, batch_index])
        model = init_model(input_dim, hidden_size, n_emotion, n_intent, rng)
        for name, spec in _specs_for_batch(rng, model, batch_size, input_dim).items():
            _, analytic = loss_and_gradients(model, spec)
            numeric = _numeric_gradient(model, spec, eps)
            err = max_relative_error(analytic, numeric, floor=tolerance)
            worst[name] = max(worst.get(name, 0.0), err)
    return GradCheckReport(per_config=worst, max_rel_error=max(worst.values()),
                           tolerance=tolerance, seeds_checked=n_batches)


__all__ = ["GradCheckReport", "run_gradient_checks"]
