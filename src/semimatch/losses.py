"""Semi-supervised loss stack for joint two-task classification.

Three training objectives build on each other:

* baseline: plain supervised cross-entropy on labelled data;
* fixmatch: adds a consistency term on unlabelled data, where the weak
  branch's argmax becomes a pseudo label whenever its confidence clears a
  threshold, and the cross-entropy is charged to the strong branch;
* fullmatch: additionally picks a per-batch rank cut ``k`` (smallest k whose
  top-k agreement between weak pseudo labels and strong rankings beats a
  threshold), then suppresses strong-branch probabilities of classes ranked
  below k (adaptive negative loss) and pulls ranks 2..k toward a shared soft
  target (entropy meaning loss).

All functions here are pure and operate on probability vectors; the model
and gradients live in :mod:`semimatch.model`.

Conventions fixed across the package: ranks are 1-based by descending
probability with ties broken toward the lower class index; thresholds are
strict (``>``); unsupervised sums are divided by the full unlabelled batch
size; log arguments are clamped to ``[1e-12, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError

METHODS = ("baseline", "fixmatch", "fullmatch")
CLAMP_MIN = 1e-12
PROB_ATOL = 1e-6


def safe_log(x):
    """log with the argument clamped to [1e-12, 1]."""
    return np.log(np.clip(x, CLAMP_MIN, 1.0))


def _check_unit(name: str, value: float):
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"{name} must lie in (0, 1]")


def _as_prob_matrix(rows, what: str) -> np.ndarray:
    mat = np.asarray(rows, dtype=float)
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.ndim != 2 or mat.shape[1] < 2:
        raise ContractError(f"{what}: expected vectors of at least 2 classes")
    if np.any(mat < -1e-12) or np.any(mat > 1 + 1e-12):
        raise ContractError(f"{what}: probabilities outside [0, 1]")
    if np.any(np.abs(mat.sum(axis=1) - 1.0) > PROB_ATOL):
        raise ContractError(f"{what}: probability vectors must sum to 1")
    return mat


@dataclass(frozen=True)
class PseudoLabelDecision:
    """Outcome of the confidence gate for one unlabelled sample."""

    predicted_class: int
    confidence: float
    accepted: bool


@dataclass(frozen=True)
class TopKSelection:
    """Selected rank cut and the top-k accuracy achieved at it."""

    k: int
    topk_accuracy: float


@dataclass(frozen=True)
class SoftTargets:
    """Shared soft target for the mid-rank classes of one sample.

    ``values`` holds the target on member classes and 0 elsewhere;
    ``members`` marks the classes whose weak rank lies in [2, k].
    """

    values: np.ndarray
    members: np.ndarray


@dataclass
class LossBreakdown:
    """Itemized loss for one task on one batch.

    ``total`` applies the configured coefficients to the raw parts:
    ``l_sup + lam1 * l_fix_unsup + lam2 * l_neg + lam3 * l_ent``.
    """

    l_sup: float
    l_fix_unsup: float
    l_neg: float
    l_ent: float
    accepted_count: int
    total: float
    labelled_empty: bool = False
    k: int | None = None


@dataclass
class MultitaskLoss:
    """Combined objective ``emo.total + intent_weight * intent.total``."""

    total: float
    emo: LossBreakdown
    intent: LossBreakdown


@dataclass(frozen=True)
class LossCoefficients:
    """Weights of the unsupervised terms (lambda_1..3 in the config)."""

    unsup: float = 0.5
    negative: float = 0.5
    entropy: float = 0.5


@dataclass(frozen=True)
class TaskTerms:
    """Frozen per-batch decisions feeding one task's unsupervised losses.

    Everything here is a constant of the batch: no gradient flows through
    pseudo labels, gates, the rank cut, rank masks, or soft targets.
    """

    pseudo: np.ndarray                    # (B,) weak-branch argmax
    gate: np.ndarray                      # (B,) bool, confidence gate
    k: int | None = None                  # rank cut; None disables rank losses
    neg_mask: np.ndarray | None = None    # (B, C) bool, weak rank > k
    mid_mask: np.ndarray | None = None    # (B, C) bool, weak rank in [2, k]
    soft_target: np.ndarray | None = None  # (B,) shared target per sample


def _one_sample(mat: np.ndarray, what: str) -> np.ndarray:
    """The checked matrix of a single-sample helper, which must hold a row."""
    if not len(mat):
        raise ContractError(f"{what}: expected one probability vector, got an empty batch")
    return mat


def rank_classes(probs) -> np.ndarray:
    """1-based ranks by descending probability, ties to the lower index."""
    return rank_matrix(_one_sample(_as_prob_matrix(probs, "rank_classes"), "rank_classes"))[0]


def rank_matrix(probs: np.ndarray) -> np.ndarray:
    """Row-wise rank assignment; rank 1 holds each row's maximum."""
    order = np.argsort(-probs, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, probs.shape[1] + 1)[None, :], axis=1)
    return ranks


def _checked_branches(weak_probs, strong_probs, what: str):
    """Check a batch's weak and (unless None) strong matrices once each:
    ``(weak, strong, pseudo)``, where ``pseudo`` is the weak argmax."""
    weak = _as_prob_matrix(weak_probs, f"{what} weak branch")
    if strong_probs is not None:
        strong_probs = _as_prob_matrix(strong_probs, f"{what} strong branch")
        if weak.shape != strong_probs.shape:
            raise ContractError("weak and strong batches must have identical shapes")
    return weak, strong_probs, np.argmax(weak, axis=1)


def _cut(strong: np.ndarray, pseudo: np.ndarray, sigma: float) -> TopKSelection:
    """:func:`select_k` on checked matrices, by one count of the strong ranks."""
    _check_unit("sigma", sigma)
    b, n_classes = strong.shape
    if b == 0:
        raise ConfigError("select_k requires a non-empty batch")
    pseudo_rank = rank_matrix(strong)[np.arange(b), pseudo]
    acc = np.cumsum(np.bincount(pseudo_rank, minlength=n_classes + 1)[1:]) / b
    beats = np.flatnonzero(acc > sigma)
    k = int(beats[0]) + 1 if beats.size else n_classes
    return TopKSelection(k=k, topk_accuracy=float(acc[k - 1]))


def _terms_at_k(weak, strong, pseudo, gate, k: int) -> TaskTerms:
    """The decisions at cut ``k``: rank masks (weak ranks above k; in [2, k])
    and the soft target, the strong branch's leftover top-1 mass shared over
    the k - 1 mid ranks (zeros for k = 1)."""
    ranks = rank_matrix(weak)
    top1 = strong[np.arange(len(weak)), pseudo]
    soft_target = (1.0 - top1) / (k - 1) if k >= 2 else np.zeros(len(weak))
    return TaskTerms(pseudo, gate, k, ranks > k, (ranks >= 2) & (ranks <= k), soft_target)


def _decide(method: str, checked, tau: float, sigma: float | None) -> list[TaskTerms]:
    """Every task's decisions from its checked ``(weak, strong, pseudo)``.
    The confidence gate is max > tau. fixmatch gives all tasks one gate, the
    AND of theirs; fullmatch keeps each task's gate and adds the cut k and
    the terms at it."""
    gates = [weak.max(axis=1) > tau for weak, _, _ in checked]
    if len({len(gate) for gate in gates}) > 1:
        raise ContractError("the two tasks' batches differ in length")
    if method == "fullmatch":
        return [_terms_at_k(w, s, p, gate, _cut(s, p, sigma).k)
                for (w, s, p), gate in zip(checked, gates)]
    joint = np.logical_and.reduce(gates)
    return [TaskTerms(pseudo=pseudo, gate=joint) for _, _, pseudo in checked]


def gate_pseudo_label(weak_probs, tau: float) -> PseudoLabelDecision:
    """Gate one sample: argmax of the weak branch, accepted iff max > tau."""
    _check_unit("tau", tau)
    weak, _, pseudo = checked = _checked_branches(weak_probs, None, "gate_pseudo_label")
    _one_sample(weak, "gate_pseudo_label")
    cls = int(pseudo[0])
    return PseudoLabelDecision(predicted_class=cls, confidence=float(weak[0, cls]),
                               accepted=bool(_decide("fixmatch", [checked], tau, None)[0].gate[0]))


def select_k(weak_probs_batch, strong_probs_batch, sigma: float) -> TopKSelection:
    """Smallest k whose top-k accuracy beats sigma; k = C when none does.
    Top-k accuracy counts how often the weak-branch argmax appears among the
    k highest strong-branch probabilities."""
    _, strong, pseudo = _checked_branches(weak_probs_batch, strong_probs_batch, "select_k")
    return _cut(strong, pseudo, sigma)


def _stack_unlabelled(unlabelled):
    return _checked_branches([w for w, _ in unlabelled], [s for _, s in unlabelled], "unlabelled")


def _fixed_k_terms(unlabelled, k: int):
    """Stacked strong probs and the batch decisions at cut ``k``, gates closed."""
    weak, strong, pseudo = _stack_unlabelled(unlabelled)
    if not 1 <= k <= weak.shape[1]:
        raise ContractError("k must lie in [1, C]")
    return strong, _terms_at_k(weak, strong, pseudo, np.zeros(len(weak), dtype=bool), k)


def entropy_meaning_soft_label(weak_probs, strong_probs, k: int) -> SoftTargets:
    """Spread the strong branch's leftover top-1 mass over weak ranks 2..k.

    Each member class gets the same target, (1 - p_strong[weak argmax]) /
    (k - 1). For k = 1 the member set is empty.
    """
    _, terms = _fixed_k_terms([(weak_probs, strong_probs)], k)
    members = terms.mid_mask[0]
    return SoftTargets(values=np.where(members, terms.soft_target[0], 0.0), members=members)


def _fixed_k_loss(unlabelled, k: int) -> LossBreakdown:
    return task_loss_from_terms(None, None, *_fixed_k_terms(unlabelled, k), LossCoefficients())


def adaptive_negative_loss(unlabelled, k: int) -> float:
    """Mean over the batch of -sum over ranks>k of log(1 - strong prob)."""
    return _fixed_k_loss(unlabelled, k).l_neg if unlabelled else 0.0


def entropy_meaning_loss(unlabelled, k: int) -> float:
    """Per-class binary cross-entropy of ranks 2..k against the soft target.

    Normalized by batch size times class count.
    """
    return _fixed_k_loss(unlabelled, k).l_ent if unlabelled else 0.0


def batch_terms(method: str, weak, strong, tau: float, sigma: float):
    """Each task's batch decisions, ``(emo_terms, int_terms)`` for the
    ``(emotion, intent)`` pairs of weak- and strong-branch probabilities:
    fixmatch ANDs the tasks' confidence gates into one and has no rank losses;
    fullmatch keeps per-task gates and adds the rank losses at ``sigma``."""
    if method not in METHODS[1:]:
        raise ConfigError(f"method '{method}' has no unlabelled terms")
    checked = [_checked_branches(w, s if method == "fullmatch" else None, "build_task_terms")
               for w, s in zip(weak, strong)]
    return tuple(_decide(method, checked, tau, sigma))


def method_policy(method: str, weak_emo: np.ndarray, weak_int: np.ndarray,
                  tau: float, sigma: float):
    """The per-method rules of :func:`batch_terms` as ``(gate, sigma)``:
    fixmatch's joint gate and no rank losses (sigma None), or fullmatch's
    per-task gates (gate None) and rank losses at ``sigma``."""
    if method == "fullmatch":
        return None, sigma
    return batch_terms(method, (weak_emo, weak_int), (None, None), tau, sigma)[0].gate, None


def build_task_terms(weak_probs: np.ndarray, strong_probs: np.ndarray | None,
                     tau: float, sigma: float | None = None) -> TaskTerms:
    """Freeze one task's batch decisions from the weak (and strong) branch.

    The confidence gate opens where the weak branch's max clears tau.
    Passing ``sigma`` turns on the rank losses: the cut k is selected on
    this batch and the rank masks and soft targets are derived from it.
    """
    method = "fixmatch" if sigma is None else "fullmatch"
    return batch_terms(method, (weak_probs,), (strong_probs,), tau, sigma)[0]


def task_loss_from_terms(lab_probs: np.ndarray | None, labels: np.ndarray | None,
                         strong_probs: np.ndarray | None, terms: TaskTerms | None,
                         coeffs: LossCoefficients) -> LossBreakdown:
    """Evaluate one task's itemized loss given frozen batch decisions. Leading
    axes of the ``(..., B, C)`` probabilities give arrays; none, Python floats."""
    if lab_probs is not None and lab_probs.shape[-2]:
        labels = np.asarray(labels, dtype=int)
        if len(labels) != lab_probs.shape[-2]:
            raise ContractError("labelled probabilities and labels differ in length")
        _check_labels(labels, lab_probs.shape[-1])
        l_sup = -np.mean(safe_log(lab_probs[..., np.arange(len(labels)), labels]), axis=-1)
        labelled_empty = False
    else:
        l_sup, labelled_empty = 0.0, True

    l_fix = l_neg = l_ent = 0.0
    accepted = 0
    k = None
    if strong_probs is not None and strong_probs.shape[-2] and terms is not None:
        b, n_classes = strong_probs.shape[-2:]
        picked = strong_probs[..., np.arange(b), terms.pseudo]
        l_fix = -np.sum(terms.gate * safe_log(picked), axis=-1) / b
        accepted = int(terms.gate.sum())
        k = terms.k
        if terms.neg_mask is not None:
            l_neg = -np.sum(terms.neg_mask * safe_log(1.0 - strong_probs), axis=(-2, -1)) / b
        if terms.mid_mask is not None and terms.k >= 2:
            y = terms.soft_target[:, None]
            bce = y * safe_log(strong_probs) + (1.0 - y) * safe_log(1.0 - strong_probs)
            l_ent = -np.sum(terms.mid_mask * bce, axis=(-2, -1)) / (b * n_classes)

    total = l_sup + coeffs.unsup * l_fix + coeffs.negative * l_neg + coeffs.entropy * l_ent
    if np.ndim(total) == 0:
        l_sup, l_fix, l_neg, l_ent, total = map(float, (l_sup, l_fix, l_neg, l_ent, total))
    return LossBreakdown(l_sup=l_sup, l_fix_unsup=l_fix, l_neg=l_neg, l_ent=l_ent,
                         accepted_count=accepted, total=total,
                         labelled_empty=labelled_empty, k=k)


def _check_labels(labels: np.ndarray, n_classes: int):
    """Every label of a non-empty int array must index one of ``n_classes``."""
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ContractError("labels out of class range")


def _split_labelled(labelled):
    if not labelled:
        return None, None
    probs = _as_prob_matrix([p for p, _ in labelled], "labelled probabilities")
    labels = np.asarray([y for _, y in labelled], dtype=int)
    _check_labels(labels, probs.shape[1])
    return probs, labels


def _loss(method: str, labelled, unlabelled, tau: float, sigma: float | None,
          coeffs: LossCoefficients) -> list[LossBreakdown]:
    """Each task's loss from its labelled and unlabelled pairs: every matrix
    checked once, then the decisions of :func:`_decide` on the unlabelled
    ones (none for baseline or an empty unlabelled batch)."""
    _check_unit("tau", tau)
    sup = [_split_labelled(pairs) for pairs in labelled]
    unsup = [(None, None)] * len(sup)   # (strong probs, terms) per task
    if method != "baseline" and unlabelled[0]:
        checked = [_stack_unlabelled(pairs) for pairs in unlabelled]
        terms = _decide(method, checked, tau, sigma)
        unsup = [(strong, t) for (_, strong, _), t in zip(checked, terms)]
    return [task_loss_from_terms(*s, *u, coeffs) for s, u in zip(sup, unsup)]


def fixmatch_loss(labelled, unlabelled, tau: float, lam1: float) -> LossBreakdown:
    """Supervised cross-entropy plus the confidence-gated consistency term.

    ``labelled`` pairs (weak-branch probs, label); ``unlabelled`` pairs
    (weak probs, strong probs). The unsupervised sum is divided by the full
    unlabelled batch size.
    """
    return _loss("fixmatch", [labelled], [unlabelled], tau, None, LossCoefficients(unsup=lam1))[0]


def fullmatch_loss(labelled, unlabelled, tau: float, sigma: float,
                   lam1: float, lam2: float, lam3: float) -> LossBreakdown:
    """Gated consistency plus rank-tail suppression and mid-rank equalization.

    k is selected once for the whole batch. With lam2 = lam3 = 0 this
    reduces exactly to :func:`fixmatch_loss`.
    """
    return _loss("fullmatch", [labelled], [unlabelled], tau, sigma,
                 LossCoefficients(lam1, lam2, lam3))[0]


def multitask_loss(method: str, emo_labelled, int_labelled, emo_unlabelled,
                   int_unlabelled, lam: float = 1.0, tau: float = 0.95,
                   sigma: float = 0.99, lam1: float = 0.5, lam2: float = 0.5,
                   lam3: float = 0.5) -> MultitaskLoss:
    """Two-task objective: emotion total plus lam times the intent total.

    The unlabelled terms follow :func:`batch_terms`: fixmatch gates both
    tasks jointly, fullmatch computes every term per task, baseline has none.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method '{method}'")
    if len(emo_labelled) != len(int_labelled):
        raise ContractError("labelled sample counts differ between tasks")
    if len(emo_unlabelled) != len(int_unlabelled):
        raise ContractError("unlabelled sample counts differ between tasks")
    emo, intent = _loss(method, [emo_labelled, int_labelled], [emo_unlabelled, int_unlabelled],
                        tau, sigma, LossCoefficients(lam1, lam2, lam3))
    return MultitaskLoss(total=emo.total + lam * intent.total, emo=emo, intent=intent)


__all__ = [
    "CLAMP_MIN", "LossBreakdown", "LossCoefficients", "METHODS", "MultitaskLoss",
    "PseudoLabelDecision", "SoftTargets", "TaskTerms", "TopKSelection",
    "adaptive_negative_loss", "batch_terms", "build_task_terms",
    "entropy_meaning_loss", "entropy_meaning_soft_label", "fixmatch_loss",
    "fullmatch_loss", "gate_pseudo_label", "method_policy", "multitask_loss",
    "rank_classes", "rank_matrix", "safe_log", "select_k", "task_loss_from_terms",
]
