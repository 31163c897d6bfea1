"""Dense two-head classifier with hand-derived gradients.

A single shared hidden layer (ReLU) feeds two independent linear heads, one
per classification task. Everything is plain float64 numpy: forward pass,
analytic backprop for the composed semi-supervised loss, a bias-corrected
Adam update, and a central finite-difference oracle used to cross-check the
analytic gradients.

The model, its gradient and both Adam moments share one layout: one flat
float64 vector in :data:`PARAM_FIELDS` order, of which the named arrays are
views. Adam, the finiteness checks and the oracle each make one pass over it.
A ``flat`` of shape ``(M, P)`` stacks M parameter sets along a leading axis of
every array; the forward pass and ``batch_loss`` then give one result per set,
bit-equal to M single-set calls. Backprop and Adam take one set. A step is
mostly per-call overhead at this package's sizes, so the step path calls
ufuncs and their ``reduce``, not numpy's Python wrappers: the same bits.

Gradient semantics: pseudo labels, confidence gates, the selected rank cut
``k``, rank masks, and soft targets are all frozen constants of the batch
(see :class:`semimatch.losses.TaskTerms`). Gradients flow only through the
probabilities of the labelled pass and the strongly-augmented pass.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericError, Rule, require
from .losses import (
    CLAMP_MIN,
    LossBreakdown,
    LossCoefficients,
    MultitaskLoss,
    TaskTerms,
    _as_prob_matrix,
    task_loss_from_terms,
)

PARAM_FIELDS = ("w_trunk", "b_trunk", "w_emo", "b_emo", "w_int", "b_int")


@functools.cache
def _layout(shapes: tuple) -> tuple:
    """Each field's ``(name, slice of flat's last axis, shape)`` in the layout of ``shapes``."""
    ends = itertools.accumulate(math.prod(shape) for shape in shapes)
    return tuple((field, slice(end - math.prod(shape), end), shape)
                 for field, shape, end in zip(PARAM_FIELDS, shapes, ends))


class Gradients:
    """The parameter layout, and the gradient's type: the arrays named in
    :data:`PARAM_FIELDS` are C-order views of one float64 vector ``flat``.
    The constructor copies the six arrays, by position or name, into it."""

    def __init__(self, *arrays, **named):
        arrays += tuple(named.pop(f) for f in PARAM_FIELDS[len(arrays):] if f in named)
        if named or len(arrays) != len(PARAM_FIELDS):
            raise TypeError(f"{type(self).__name__} takes the arrays {', '.join(PARAM_FIELDS)}")
        arrays = [np.asarray(a, dtype=float) for a in arrays]
        self._bind(np.concatenate([a.ravel() for a in arrays]), tuple(a.shape for a in arrays))

    @classmethod
    def _wrap(cls, flat: np.ndarray, shapes: tuple) -> "Gradients":
        """``flat`` itself, not a copy, in the layout of ``shapes``."""
        out = cls.__new__(cls)
        out._bind(flat, shapes)
        return out

    def _bind(self, flat: np.ndarray, shapes: tuple):
        self.flat, self._shapes, lead = flat, shapes, flat.shape[:-1]
        for field, span, shape in _layout(shapes):
            setattr(self, field, flat[..., span].reshape(lead + shape))

    def _non_finite_field(self) -> str | None:
        if not np.logical_and.reduce(np.isfinite(self.flat), axis=None):
            return next(f for f in PARAM_FIELDS if not np.isfinite(getattr(self, f)).all())

    def copy(self):
        return self._wrap(self.flat.copy(), self._shapes)

    @classmethod
    def zeros_like(cls, model: "TwoHeadModel") -> "Gradients":
        return cls._wrap(np.zeros(model.flat.shape), model._shapes)


class TwoHeadModel(Gradients):
    """Shared trunk plus one linear head per task, in the parameter layout.

    Shapes: ``w_trunk (d, H)``, ``b_trunk (H,)``, ``w_emo (H, C_e)``,
    ``b_emo (C_e,)``, ``w_int (H, C_i)``, ``b_int (C_i,)``.
    """

    def _bind(self, flat: np.ndarray, shapes: tuple):
        super()._bind(flat, shapes)
        w_trunk, b_trunk, w_emo, b_emo, w_int, b_int = shapes
        if len(w_trunk) != 2:
            raise ContractError("trunk weights must be a 2-D matrix")
        hidden = w_trunk[1]
        if b_trunk != (hidden,):
            raise ContractError("trunk bias shape does not match trunk width")
        for w, b, name in ((w_emo, b_emo, "emotion"), (w_int, b_int, "intent")):
            if w[0] != hidden:
                raise ContractError(f"{name} head input width does not match trunk output")
            if b != (w[1],):
                raise ContractError(f"{name} head bias shape does not match head width")
            if w[1] < 2:
                raise ContractError(f"{name} head needs at least 2 classes")
        self._check_finite()

    def _check_finite(self):
        if field := self._non_finite_field():
            raise NumericError(f"non-finite values in parameter {field}")

    @property
    def input_dim(self) -> int:
        return self.w_trunk.shape[-2]

    @property
    def hidden_size(self) -> int:
        return self.w_trunk.shape[-1]

    @property
    def n_emotion(self) -> int:
        return self.w_emo.shape[-1]

    @property
    def n_intent(self) -> int:
        return self.w_int.shape[-1]


@dataclass
class TaskProbs:
    """Per-task probability vectors for one sample."""

    emo: np.ndarray
    intent: np.ndarray

    def __post_init__(self):
        for vec, name in ((self.emo, "emo"), (self.intent, "intent")):
            if vec.ndim != 1:
                raise ContractError(f"{name} probabilities must be a vector")
            _as_prob_matrix(vec, name)


@dataclass
class AdamState:
    """First and second moment vectors, laid out like ``flat``, plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, model: TwoHeadModel) -> "AdamState":
        return cls(m=np.zeros_like(model.flat), v=np.zeros_like(model.flat), step=0)


def init_model(input_dim: int, hidden_size: int, n_emotion: int, n_intent: int,
               rng: np.random.Generator) -> TwoHeadModel:
    """Seeded uniform init in +-1/sqrt(fan_in) for every parameter."""
    require("input_dim and hidden_size", Rule.COUNT, input_dim, hidden_size)

    def layer(fan_in, fan_out):
        limit = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        b = rng.uniform(-limit, limit, size=fan_out)
        return w, b

    w1, b1 = layer(input_dim, hidden_size)
    we, be = layer(hidden_size, n_emotion)
    wi, bi = layer(hidden_size, n_intent)
    return TwoHeadModel(w1, b1, we, be, wi, bi)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise float64 softmax, shifted by the row max for stability, in one buffer."""
    e = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), dtype=float)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _forward_parts(model: TwoHeadModel, x: np.ndarray):
    """The one checked forward of a (B, d) batch: ``(x, z, a, p_emo, p_int)``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ContractError(
            f"feature batch shape {x.shape} does not match model input dim {model.input_dim}")
    z = x @ model.w_trunk + model.b_trunk[..., None, :]
    a = np.maximum(z, 0.0)
    p_emo = softmax(a @ model.w_emo + model.b_emo[..., None, :])
    p_int = softmax(a @ model.w_int + model.b_int[..., None, :])
    return x, z, a, p_emo, p_int


def forward(model: TwoHeadModel, x: np.ndarray) -> TaskProbs:
    """Run one feature vector through trunk -> ReLU -> heads -> softmax."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.input_dim,):
        raise ContractError(
            f"feature dimension {x.shape} does not match model input ({model.input_dim},)")
    *_, p_emo, p_int = _forward_parts(model, x[None, :])
    return TaskProbs(emo=p_emo[0], intent=p_int[0])


def forward_batch(model: TwoHeadModel, x: np.ndarray, parts: bool = False) -> tuple:
    """Batched forward; returns (emotion probs, intent probs) as (B, C) arrays,
    or with ``parts`` every intermediate ``(x, z, a, p_emo, p_int)``, which
    ``loss_and_gradients`` takes in place of forwarding that batch again."""
    out = _forward_parts(model, x)
    return out if parts else out[3:]


def ce_logit_gradient(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample gradient of -log p[label] w.r.t. the logits: p - onehot."""
    g = np.array(probs, dtype=float, ndmin=2)
    labels = np.asarray(labels, dtype=int)
    g[np.arange(labels.size), labels] -= 1.0
    return g


@dataclass
class BatchLossSpec:
    """One batch's composed multi-task loss with all discrete decisions frozen.

    ``lab_features`` feed the supervised term for both tasks;
    ``strong_features`` feed every unsupervised term. ``emo_terms`` /
    ``int_terms`` carry the frozen pseudo labels, gates, masks, and soft
    targets produced from the weak branch (and, for the rank losses, the
    strong branch at the base parameters).
    """

    lab_features: np.ndarray | None = None     # (B_l, d)
    emo_labels: np.ndarray | None = None       # (B_l,)
    int_labels: np.ndarray | None = None       # (B_l,)
    strong_features: np.ndarray | None = None  # (B_u, d)
    emo_terms: TaskTerms | None = None
    int_terms: TaskTerms | None = None
    coeffs: LossCoefficients = LossCoefficients()
    intent_weight: float = 1.0


def _forward_loss(model: TwoHeadModel, spec: BatchLossSpec, strong=None):
    """Forward the labelled and strong branches once each; ``strong``, when
    given, is the strong branch's forward parts at these parameters and is
    used as is. Returns the composed loss and each branch's forward parts
    (None when it is empty), which backprop reuses instead of forwarding
    again."""
    def parts(features):
        return _forward_parts(model, features) if features is not None and len(features) else None

    lab = parts(spec.lab_features)
    if strong is None:
        strong = parts(spec.strong_features)
    elif strong[0].shape != np.shape(spec.strong_features):
        raise ContractError("strong forward parts do not match the strong features")
    p_lab = lab[3:] if lab is not None else (None, None)
    p_str = strong[3:] if strong is not None else (None, None)
    emo = task_loss_from_terms(p_lab[0], spec.emo_labels, p_str[0], spec.emo_terms, spec.coeffs)
    intent = task_loss_from_terms(p_lab[1], spec.int_labels, p_str[1], spec.int_terms, spec.coeffs)
    return MultitaskLoss(emo.total + spec.intent_weight * intent.total, emo, intent), lab, strong


def batch_loss(model: TwoHeadModel, spec: BatchLossSpec) -> MultitaskLoss:
    """Evaluate the composed loss at the given parameters, decisions fixed.

    This is the finite-difference oracle's scalar path, so it always
    forwards both branches itself. Backprop evaluates its loss through the
    same code, so both see the same frozen constants and the only moving
    parts are the probabilities.
    """
    return _forward_loss(model, spec)[0]


def _check_finite_breakdown(name: str, bd: LossBreakdown):
    for field in ("l_sup", "l_fix_unsup", "l_neg", "l_ent", "total"):
        if not math.isfinite(getattr(bd, field)):
            raise NumericError(f"{name} loss term {field} is not finite")


def _unsup_logit_grad(p: np.ndarray, terms: TaskTerms, coeffs: LossCoefficients,
                      task_weight: float) -> np.ndarray:
    """Logit gradient of the unsupervised terms on the strong branch.

    The gated consistency term uses the softmax-CE shortcut directly; the
    rank-tail and mid-rank terms are assembled as dL/dp and pushed through
    the softmax Jacobian in one pass. Clamped log arguments contribute zero
    gradient, matching the clamping in the scalar path.
    """
    b, n_classes = p.shape
    g = coeffs.unsup / b * terms.gate[:, None] * ce_logit_gradient(p, terms.pseudo)
    if terms.neg_mask is None and terms.mid_mask is None:
        return task_weight * g      # fixmatch: no rank terms

    dl_dp = 0.0     # the terms' sum starts from +0.0, as it did from a zeros array
    one_minus = 1.0 - p
    inv_one_minus = np.divide(1.0, one_minus, out=np.zeros(p.shape), where=one_minus > CLAMP_MIN)
    if terms.neg_mask is not None and coeffs.negative != 0.0:
        dl_dp = dl_dp + coeffs.negative / b * terms.neg_mask * inv_one_minus
    if terms.mid_mask is not None and coeffs.entropy != 0.0:
        y = terms.soft_target[:, None]
        dl_dp = dl_dp + -coeffs.entropy / (b * n_classes) * terms.mid_mask * (
            y * np.divide(1.0, p, out=np.zeros(p.shape), where=p > CLAMP_MIN)
            - (1.0 - y) * inv_one_minus)
    if np.logical_or.reduce(dl_dp, axis=None):
        # softmax Jacobian: dL/du_j = p_j * (g_j - sum_c g_c p_c)
        g += p * (dl_dp - np.add.reduce(dl_dp * p, axis=1, keepdims=True))
    return task_weight * g


def loss_and_gradients(model: TwoHeadModel, spec: BatchLossSpec,
                       strong=None) -> tuple[MultitaskLoss, Gradients]:
    """Itemized loss plus the analytic gradient of its total.

    The decisions inside ``spec`` never receive gradient; see the module
    docstring. ``strong`` is ``forward_batch(model, spec.strong_features,
    parts=True)`` when the caller already ran it at these parameters;
    None forwards the strong branch here.
    """
    result, lab, strong = _forward_loss(model, spec, strong)
    _check_finite_breakdown("emotion", result.emo)
    _check_finite_breakdown("intent", result.intent)
    grads = Gradients.zeros_like(model)

    def accumulate(x, z, a, g_emo, g_int):
        # += onto the zeros, not =: it turns a -0.0 entry into +0.0
        grads.w_emo += a.T @ g_emo
        grads.b_emo += np.add.reduce(g_emo, axis=0)
        grads.w_int += a.T @ g_int
        grads.b_int += np.add.reduce(g_int, axis=0)
        dz = (g_emo @ model.w_emo.T + g_int @ model.w_int.T) * (z > 0.0)
        grads.w_trunk += x.T @ dz
        grads.b_trunk += np.add.reduce(dz, axis=0)

    if lab is not None:
        *_, p_emo, p_int = lab
        b_l = len(p_emo)
        g_emo = ce_logit_gradient(p_emo, spec.emo_labels) / b_l
        g_int = spec.intent_weight * ce_logit_gradient(p_int, spec.int_labels) / b_l
        accumulate(*lab[:3], g_emo, g_int)

    if strong is not None:
        *_, p_emo, p_int = strong
        g_emo = _unsup_logit_grad(p_emo, spec.emo_terms, spec.coeffs, 1.0)
        g_int = _unsup_logit_grad(p_int, spec.int_terms, spec.coeffs, spec.intent_weight)
        accumulate(*strong[:3], g_emo, g_int)

    if field := grads._non_finite_field():
        raise NumericError(f"non-finite gradient for parameter {field}")
    return result, grads


def backprop(model: TwoHeadModel, spec: BatchLossSpec) -> tuple[float, Gradients]:
    """Scalar loss of the composed batch plus its exact analytic gradient."""
    result, grads = loss_and_gradients(model, spec)
    return result.total, grads


def adam_step(model: TwoHeadModel, grads: Gradients, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[TwoHeadModel, AdamState]:
    """One bias-corrected Adam update in one pass over the flat vectors. Never
    in place: the trainer keeps the best epoch's model while training goes on."""
    require("learning rate", Rule.POSITIVE, lr)
    if grads._shapes != model._shapes:
        field = next(f for f, a, b in zip(PARAM_FIELDS, grads._shapes, model._shapes) if a != b)
        raise ContractError(f"gradient shape mismatch for {field}")
    t = state.step + 1
    g = grads.flat
    m = beta1 * state.m     # fresh buffers, updated in place in the same order
    m += (1.0 - beta1) * g
    v = beta2 * state.v
    v += (1.0 - beta2) * g * g
    step = lr * (m / (1.0 - beta1 ** t))
    step /= np.sqrt(v / (1.0 - beta2 ** t)) + eps
    new = TwoHeadModel.__new__(TwoHeadModel)    # in model's layout, which passed its checks
    Gradients._bind(new, model.flat - step, model._shapes)
    new._check_finite()
    return new, AdamState(m=m, v=v, step=t)


def finite_difference_gradient(loss_fn, model: TwoHeadModel, eps: float = 1e-5) -> Gradients:
    """Central-difference gradient oracle: (L(t+eps) - L(t-eps)) / (2 eps).

    ``loss_fn`` must be a pure function of the model parameters; any frozen
    batch decisions must be captured in its closure so that perturbing a
    parameter never changes them.
    """
    work = model.copy()
    out = Gradients.zeros_like(model)
    for i, orig in enumerate(model.flat):
        work.flat[i] = orig + eps
        plus = loss_fn(work)
        work.flat[i] = orig - eps
        minus = loss_fn(work)
        work.flat[i] = orig
        out.flat[i] = (plus - minus) / (2.0 * eps)
    return out


def max_relative_error(analytic: Gradients, numeric: Gradients, floor: float = 1e-4) -> float:
    """Largest guarded relative difference between two gradient sets.

    Per entry: ``|a - n| / max(|a|, |n|, floor)``. The floor turns the
    comparison into an absolute one for entries smaller than ``floor``,
    which keeps finite-difference rounding noise from dominating.
    """
    a, n = analytic.flat, numeric.flat
    return float(np.max(np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)))


__all__ = [
    "AdamState", "BatchLossSpec", "Gradients", "TaskProbs", "TwoHeadModel",
    "adam_step", "backprop", "batch_loss", "ce_logit_gradient",
    "finite_difference_gradient", "forward", "forward_batch", "init_model",
    "loss_and_gradients", "max_relative_error", "softmax",
]
