"""Weighted F1, the joint recognition balance metric, confusion matrices,
and margin-based late fusion across models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


def _check_pair(preds, labels, n_classes):
    preds = np.asarray(preds, dtype=int)
    labels = np.asarray(labels, dtype=int)
    if preds.shape != labels.shape or preds.ndim != 1 or len(preds) == 0:
        raise ContractError("predictions and labels must be equal-length non-empty vectors")
    for name, arr in (("prediction", preds), ("label", labels)):
        if np.any(arr < 0) or np.any(arr >= n_classes):
            raise ContractError(f"{name} class index out of range")
    return preds, labels


def weighted_f1(preds, labels, n_classes: int) -> float:
    """Support-weighted mean of per-class F1 (a class with P+R = 0 scores 0)."""
    return _weighted_f1(confusion(preds, labels, n_classes))


def _weighted_f1(counts: np.ndarray) -> float:
    """``weighted_f1`` of the predictions a confusion matrix counts."""
    total = 0.0
    n = int(counts.sum())
    for c in range(len(counts)):
        support = int(counts[c].sum())
        if support == 0:
            continue
        tp = int(counts[c, c])
        fp = int(counts[:, c].sum()) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / support
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total += support / n * f1
    return total


def jrbm(f1_emo: float, f1_intent: float) -> float:
    """Harmonic mean of the two tasks' F1 scores; 0 when both are 0."""
    if not (0.0 <= f1_emo <= 1.0 and 0.0 <= f1_intent <= 1.0):
        raise ContractError("F1 scores must lie in [0, 1]")
    if f1_emo + f1_intent == 0.0:
        return 0.0
    return 2.0 * f1_emo * f1_intent / (f1_emo + f1_intent)


def confusion(preds, labels, n_classes: int) -> np.ndarray:
    """Count matrix with rows = true class, columns = predicted class."""
    preds, labels = _check_pair(preds, labels, n_classes)
    counts = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(counts, (labels, preds), 1)
    return counts


def margin_fusion(prob_tables) -> np.ndarray:
    """Fuse per-model probability tables by the margin-sampling rule.

    For each sample, every model's margin is its top-1 minus top-2
    probability; the model with the largest margin contributes its argmax.
    Margin ties go to the lower model index, argmax ties to the lower class.

    ``prob_tables`` is a sequence over models of (n_samples, n_classes)
    arrays for one task; returns the fused class per sample.
    """
    tables = [np.asarray(t, dtype=float) for t in prob_tables]
    if not tables:
        raise ContractError("margin fusion needs at least one model")
    shape = tables[0].shape
    if len(shape) != 2 or shape[1] < 2:
        raise ContractError("probability tables must be (n_samples, n_classes)")
    if any(t.shape != shape for t in tables):
        raise ContractError("all models must predict the same samples and classes")

    margins = np.empty((len(tables), shape[0]))
    argmaxes = np.empty((len(tables), shape[0]), dtype=int)
    for m, table in enumerate(tables):
        top2 = -np.partition(-table, 1, axis=1)[:, :2]
        margins[m] = top2[:, 0] - top2[:, 1]
        argmaxes[m] = np.argmax(table, axis=1)
    chosen = np.argmax(margins, axis=0)
    return argmaxes[chosen, np.arange(shape[0])]


@dataclass
class MetricsReport:
    """Per-task weighted F1, their harmonic mean, and confusion matrices."""

    f1_emo: float
    f1_intent: float
    jrbm: float
    confusion_emo: np.ndarray
    confusion_int: np.ndarray

    @classmethod
    def from_predictions(cls, emo_preds, emo_labels, int_preds, int_labels,
                         n_emotion: int, n_intent: int) -> "MetricsReport":
        counts_e = confusion(emo_preds, emo_labels, n_emotion)
        counts_i = confusion(int_preds, int_labels, n_intent)
        f1_e, f1_i = _weighted_f1(counts_e), _weighted_f1(counts_i)
        return cls(f1_emo=f1_e, f1_intent=f1_i, jrbm=jrbm(f1_e, f1_i),
                   confusion_emo=counts_e, confusion_int=counts_i)

    def to_dict(self) -> dict:
        return {
            "f1_emo": self.f1_emo,
            "f1_intent": self.f1_intent,
            "jrbm": self.jrbm,
            "confusion_emo": self.confusion_emo.tolist(),
            "confusion_int": self.confusion_int.tolist(),
        }


def confusion_csv(matrix: np.ndarray, class_names) -> str:
    """Render a confusion matrix as CSV with name headers on both axes."""
    if matrix.shape != (len(class_names), len(class_names)):
        raise ContractError("class name count does not match the matrix")
    lines = ["true\\pred," + ",".join(class_names)]
    for name, row in zip(class_names, matrix):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


__all__ = [
    "MetricsReport", "confusion", "confusion_csv", "jrbm", "margin_fusion",
    "weighted_f1",
]
