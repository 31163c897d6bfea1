"""Training loop: batching, augmentation, one ``train_step`` per batch
(loss composition and an Adam update), per-epoch validation, and
checkpoint selection by validation JRBM.

Determinism contract: every random draw comes from a generator keyed by
(config seed, stream id, epoch), so two runs with the same config and
corpus produce bit-identical trajectories. The labelled streams are
independent of the unlabelled ones, which is what makes a fixmatch run
whose gate never opens reproduce the baseline trajectory exactly.

Each augmentation branch (labelled weak, unlabelled weak, unlabelled
strong) has one stream per epoch, consumed in step order, and neither
augmenting nor featurizing depends on the model. So an epoch's branch is
drawn in one call over all its steps' samples and featurized in one call
(a block of steps at a time, to bound memory on large epochs); an empty
branch (the baseline's unlabelled ones) takes neither. A block travels as
one ``Ragged`` batch: its payloads are concatenated once, the operator body
and the featurizer work on that array, and no per-sequence objects are
built in between. A branch block's
rows depend only on the operator kind and parameters, the generator state
before the block, the featurizer settings and the sample ids; raw rows
(evaluation splits, an unaugmented weak branch) only on the last two. The
train() calls on one corpus inside ``shared_features(corpus)`` share a
memo of rows under those keys, and a hit restores the state that the miss
would leave. Outside a scope nothing is kept: each epoch's generators
start afresh, so the keys of one run seldom recur.

The weak-augmentation ablation switch (``weak_aug_on_unlabelled``) turns
only the unlabelled weak branch into the identity; labelled samples are
always weakly augmented.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .augment import (
    MODALITIES,
    FeatureExtractor,
    Ragged,
    _check_param,
    augment_signal,
    augment_tokens,
    strong_kind,
    weak_kinds,
)
from .data import Corpus, SplitSpec, make_batches, stratified_split, unlabelled_per_step
from .errors import ConfigError, ContractError, Rule, require, require_finite_fields
from .losses import METHODS, LossCoefficients, batch_terms
from .losses import build_task_terms  # noqa: F401  perfbench/tracer.py wraps this name
from .metrics import MetricsReport
from .model import (
    AdamState,
    BatchLossSpec,
    TwoHeadModel,
    adam_step,
    forward_batch,
    init_model,
    loss_and_gradients,
)

# rng stream ids; each is combined with (seed, epoch)
_STREAM_INIT = 40001
_STREAM_BATCH = 41000
_STREAM_LAB_AUG = 42000
_STREAM_WEAK_AUG = 43000
_STREAM_STRONG_AUG = 44000


@dataclass
class TrainConfig:
    """Every knob of a training run; see the README for the config-file keys."""

    method: str = "baseline"
    modality: str = "signal"
    weak_aug_kind: str | None = None     # default: flip (signal) / synonym (tokens)
    strong_aug_kind: str | None = None   # fixed per modality; kept for visibility
    weak_aug_on_unlabelled: bool = True
    epochs: int = 30
    batch_size: int = 8
    unlabelled_ratio: float = 1.0
    learning_rate: float = 3e-5
    lr_decay: float = 0.9
    tau: float = 0.95
    sigma: float = 0.99
    unsup_weight: float = 0.5
    negative_weight: float = 0.5
    entropy_weight: float = 0.5
    intent_weight: float = 1.0
    hidden_size: int = 64
    seed: int = 0
    train_frac: float = 0.7
    valid_frac: float = 0.15
    test_frac: float = 0.15
    signal_bins: int = 4
    token_max_len: int = 64
    flip_max_seconds: float = 6.25
    time_mask_max_frames: int = 30000
    pitch_max_steps: int = 4
    noise_scale: float = 0.05
    swap_count: int = 1
    delete_prob: float = 0.1
    synonym_prob: float = 0.15
    contextual_prob: float = 0.15
    contextual_neighbors: int = 5

    def __post_init__(self):
        require_finite_fields(self)
        if self.method not in METHODS:
            raise ConfigError(f"unknown method '{self.method}'")
        if self.modality not in MODALITIES:
            raise ConfigError(f"unknown modality '{self.modality}'")
        if self.weak_aug_kind is None:
            self.weak_aug_kind = "flip" if self.modality == "signal" else "synonym"
        if self.weak_aug_kind not in weak_kinds(self.modality):
            raise ConfigError(
                f"'{self.weak_aug_kind}' is not a weak augmentation for {self.modality}")
        expected_strong = strong_kind(self.modality)
        if self.strong_aug_kind is None:
            self.strong_aug_kind = expected_strong
        if self.strong_aug_kind != expected_strong:
            raise ConfigError(
                f"the strong augmentation for {self.modality} is '{expected_strong}'")
        for name in ("tau", "sigma", "lr_decay"):
            require(name, Rule.OPEN_UNIT, getattr(self, name))
        require("learning_rate", Rule.POSITIVE, self.learning_rate)
        require("epochs, batch_size, and hidden_size", Rule.COUNT,
                self.epochs, self.batch_size, self.hidden_size)
        # unlabelled_per_step also rejects a negative unlabelled_ratio
        if (unlabelled_per_step(self.batch_size, self.unlabelled_ratio) == 0
                and self.method != "baseline"):
            raise ConfigError(
                f"unlabelled_ratio {self.unlabelled_ratio} at batch_size {self.batch_size} "
                f"draws no unlabelled sample per step, which method '{self.method}' needs")
        for name in ("unsup_weight", "negative_weight", "entropy_weight", "intent_weight"):
            require(name, Rule.NON_NEGATIVE, getattr(self, name))
        # featurizer and augmentation fields, under their functions' rules, in any modality
        for keyword, name in [("bins", "signal_bins"), ("max_length", "token_max_len"),
                              *(kw for params in _AUG_PARAMS.values() for kw in params.items())]:
            _check_param(keyword, getattr(self, name), name)
        # raises ConfigError on bad fractions or a negative seed
        SplitSpec(self.train_frac, self.valid_frac, self.test_frac, seed=self.seed)


def lr_at_epoch(lr0: float, decay: float, epoch: int) -> float:
    """Geometric schedule: lr0 * decay**epoch."""
    if epoch < 0:
        raise ContractError("epoch must be non-negative")
    return lr0 * decay ** epoch


@dataclass
class TaskEpochStats:
    """Mean loss parts for one task over an epoch's steps."""

    sup: float = 0.0
    unsup: float = 0.0
    neg: float = 0.0
    ent: float = 0.0
    total: float = 0.0
    acceptance_rate: float = 0.0
    k_hist: dict[int, int] = field(default_factory=dict)


@dataclass
class EpochReport:
    epoch: int
    lr: float
    emo: TaskEpochStats
    intent: TaskEpochStats
    mean_total: float
    val: MetricsReport


@dataclass
class TrainResult:
    model: TwoHeadModel              # checkpoint with the best validation JRBM
    reports: list[EpochReport]
    best_epoch: int
    val_metrics: MetricsReport       # validation metrics of the best checkpoint
    test_metrics: MetricsReport | None


# operator kind -> {operator keyword: TrainConfig field}
_AUG_PARAMS = {
    "flip": {"max_seconds": "flip_max_seconds"},
    "time_mask": {"max_frames": "time_mask_max_frames"},
    "pitch_shift": {"max_steps": "pitch_max_steps"},
    "gaussian_noise": {"scale": "noise_scale"},
    "swap": {"n_swaps": "swap_count"},
    "delete": {"p": "delete_prob"},
    "synonym": {"p": "synonym_prob"},
    "contextual": {"n_neighbors": "contextual_neighbors", "p": "contextual_prob"},
}


# the most samples, labelled and unlabelled, that one block of an epoch's
# steps augments and featurizes at once
_BLOCK_SAMPLES = 4096
# the most feature bytes one memo keeps; rows computed past it are not kept
_MEMO_BYTES = 64 * 2**20
_SHARED = ContextVar("semimatch_shared_features", default=None)   # (corpus, memo) in scope


@contextmanager
def shared_features(corpus: Corpus):
    """Let the train() calls on ``corpus`` inside the block share feature rows."""
    token = _SHARED.set((corpus, {}))
    try:
        yield
    finally:
        _SHARED.reset(token)


def _blocks(steps):
    """Consecutive runs of whole steps, each holding at most
    ``_BLOCK_SAMPLES`` samples unless one step alone holds more."""
    block, size = [], 0
    for step in steps:
        n = len(step[0]) + len(step[1])
        if block and size + n > _BLOCK_SAMPLES:
            yield block
            block, size = [], 0
        block.append(step)
        size += n
    if block:
        yield block


def _rows(config: TrainConfig, corpus: Corpus, extractor: FeatureExtractor, memo,
          samples, kind: str | None, rng: np.random.Generator | None) -> np.ndarray:
    """The feature rows of one branch: ``samples`` under the operator ``kind``
    (None: as they are), drawn from ``rng``. An empty branch has no rows and
    draws nothing; otherwise the rows are the memo's, if it holds them (moving
    ``rng`` past their draws), or augmented in one call and featurized in one,
    as one ``Ragged`` batch."""
    if not samples:
        return np.empty((0, extractor.dim))
    if kind is not None:
        params = {keyword: getattr(config, name) for keyword, name in _AUG_PARAMS[kind].items()}
    if memo is not None:
        key = (extractor.modality, extractor.bins, extractor.max_token_len,
               tuple(s.id for s in samples))
        if kind is not None:
            key += (kind, *params.values(), repr(rng.bit_generator.state))
        if key in memo:
            x, state = memo[key]
            if state is not None:
                rng.bit_generator.state = state
            return x
    payloads = Ragged.of([s.payload for s in samples], type(samples[0].payload))
    if kind is not None and config.modality == "signal":
        payloads = augment_signal(payloads, kind, rng, **params)
    elif kind is not None:
        payloads = augment_tokens(payloads, kind, rng, lexicon=corpus.lexicon,
                                  table=corpus.embedding, **params)
    x = extractor(payloads)
    x.flags.writeable = False    # memo rows are shared between runs
    if memo is not None and sum(r.nbytes for r, _ in memo.values()) + x.nbytes <= _MEMO_BYTES:
        memo[key] = x, rng.bit_generator.state if kind else None
    return x


def _epoch_features(config: TrainConfig, corpus: Corpus, extractor: FeatureExtractor,
                    memo, steps, epoch: int):
    """``(lab_batch, lab_x, weak_x, strong_x)`` for each step of an epoch, in
    order: the step's labelled batch and the feature rows of its labelled,
    unlabelled weak and unlabelled strong branches, sliced from one
    ``_rows`` call per branch and block of steps."""
    rng_lab = np.random.default_rng([config.seed, _STREAM_LAB_AUG, epoch])
    rng_weak = np.random.default_rng([config.seed, _STREAM_WEAK_AUG, epoch])
    rng_strong = np.random.default_rng([config.seed, _STREAM_STRONG_AUG, epoch])
    weak_unlab_kind = config.weak_aug_kind if config.weak_aug_on_unlabelled else None
    for block in _blocks(steps):
        lab = [s for lab_batch, _ in block for s in lab_batch]
        unlab = [s for _, unlab_batch in block for s in unlab_batch]
        lab_x = _rows(config, corpus, extractor, memo, lab, config.weak_aug_kind, rng_lab)
        weak_x = _rows(config, corpus, extractor, memo, unlab, weak_unlab_kind, rng_weak)
        strong_x = _rows(config, corpus, extractor, memo, unlab, config.strong_aug_kind, rng_strong)
        lab_end = unlab_end = 0
        for lab_batch, unlab_batch in block:
            lab_start, lab_end = lab_end, lab_end + len(lab_batch)
            unlab_start, unlab_end = unlab_end, unlab_end + len(unlab_batch)
            yield (lab_batch, lab_x[lab_start:lab_end],
                   weak_x[unlab_start:unlab_end], strong_x[unlab_start:unlab_end])


def predict_probs(model: TwoHeadModel, samples, extractor: FeatureExtractor):
    """Per-task probability tables for a list of samples (no augmentation)."""
    return forward_batch(model, extractor([s.payload for s in samples]))


def metrics_from_probs(samples, p_emo: np.ndarray, p_int: np.ndarray) -> MetricsReport:
    """Metrics of the argmax of per-task probability tables against the labels."""
    return MetricsReport.from_predictions(
        np.argmax(p_emo, axis=1), [s.emotion for s in samples],
        np.argmax(p_int, axis=1), [s.intent for s in samples],
        p_emo.shape[1], p_int.shape[1])


def evaluate(model: TwoHeadModel, samples, extractor: FeatureExtractor, *,
             rows: np.ndarray | None = None) -> MetricsReport:
    """Metrics of raw samples (or of their feature ``rows``) under the model's argmax."""
    samples = list(samples)
    if not samples:
        raise ContractError("evaluate needs a non-empty sample list")
    if any(not s.is_labelled for s in samples):
        raise ContractError("evaluate requires labelled samples")
    probs = predict_probs(model, samples, extractor) if rows is None else forward_batch(model, rows)
    return metrics_from_probs(samples, *probs)


def _mean(items: list, part: str) -> float:
    """The mean of one attribute over the items: its float sum in step order
    (not ``sum``, which compensates from Python 3.12 on) over the count."""
    return reduce(add, (getattr(item, part) for item in items), 0.0) / max(len(items), 1)


def _task_stats(breakdowns: list, unlab_seen: int) -> TaskEpochStats:
    """One task's epoch statistics from its per-step loss breakdowns."""
    accepted = sum(bd.accepted_count for bd in breakdowns)
    return TaskEpochStats(
        sup=_mean(breakdowns, "l_sup"), unsup=_mean(breakdowns, "l_fix_unsup"),
        neg=_mean(breakdowns, "l_neg"), ent=_mean(breakdowns, "l_ent"),
        total=_mean(breakdowns, "total"), acceptance_rate=accepted / max(unlab_seen, 1),
        k_hist=dict(Counter(bd.k for bd in breakdowns if bd.k is not None)))


def labelled_pool(corpus: Corpus, modality: str) -> list:
    """The corpus's labelled samples of one modality; none is an error."""
    pool = [s for s in corpus.labelled if s.modality == modality]
    if not pool:
        raise ConfigError(f"{corpus.name} has no labelled {modality} samples")
    return pool


def unlabelled_pool(corpus: Corpus, method: str, modality: str) -> list:
    """The corpus's unlabelled samples of one modality; none is an error for
    the methods that train on them."""
    pool = [s for s in corpus.unlabelled if s.modality == modality]
    if method != "baseline" and not pool:
        raise ConfigError(f"method '{method}' needs unlabelled data, and "
                          f"{corpus.name} has no unlabelled {modality} samples")
    return pool


def split_for(config: TrainConfig, corpus: Corpus) -> tuple[list, list, list]:
    """The (train, valid, test) split of the config's labelled pool under its
    fractions and seed: the split that train() fits and eval reads."""
    spec = SplitSpec(config.train_frac, config.valid_frac, config.test_frac, seed=config.seed)
    return stratified_split(labelled_pool(corpus, config.modality), spec)


def extractor_for(config: TrainConfig, corpus: Corpus) -> FeatureExtractor:
    """The featurizer of the config's modality and sizes over the corpus's
    embedding: the one train() fits with and eval reads with."""
    return FeatureExtractor(config.modality, bins=config.signal_bins,
                            max_token_len=config.token_max_len, table=corpus.embedding)


def train_step(method: str, model: TwoHeadModel, spec: BatchLossSpec, weak_x: np.ndarray,
               strong_x: np.ndarray, tau: float, sigma: float, state: AdamState, lr: float):
    """One step of train(): ``(loss, new model, new Adam state)``, with ``spec`` filled in."""
    strong = None   # the strong branch's forward, which the loss reuses
    if len(strong_x):   # an empty unlabelled branch (the baseline's) has no batch decisions
        spec.strong_features = strong_x
        weak = forward_batch(model, weak_x)
        strong = forward_batch(model, strong_x, parts=True)
        spec.emo_terms, spec.int_terms = batch_terms(method, weak, strong[3:], tau, sigma)
    result, grads = loss_and_gradients(model, spec, strong)
    return result, *adam_step(model, grads, state, lr)


def train(config: TrainConfig, corpus: Corpus) -> TrainResult:
    """Run the configured method on the corpus; see the module docstring."""
    train_set, valid_set, test_set = split_for(config, corpus)
    unlab_pool = unlabelled_pool(corpus, config.method, config.modality)
    valid_eval = valid_set or train_set

    extractor = extractor_for(config, corpus)
    memo = shared[1] if (shared := _SHARED.get()) and shared[0] is corpus else None
    valid_x = _rows(config, corpus, extractor, memo, valid_eval, None, None)
    model = init_model(extractor.dim, config.hidden_size, corpus.n_emotion, corpus.n_intent,
                       np.random.default_rng([config.seed, _STREAM_INIT]))
    state = AdamState.zeros_like(model)
    coeffs = LossCoefficients(unsup=config.unsup_weight, negative=config.negative_weight,
                              entropy=config.entropy_weight)
    mu = 0.0 if config.method == "baseline" else config.unlabelled_ratio

    reports: list[EpochReport] = []
    best_jrbm, best_model, best_val, best_epoch = -1.0, model, None, 0
    for epoch in range(config.epochs):
        lr = lr_at_epoch(config.learning_rate, config.lr_decay, epoch)
        steps = make_batches(train_set, unlab_pool, config.batch_size, mu,
                             seed=[config.seed, _STREAM_BATCH, epoch])

        results = []
        for lab_batch, lab_x, weak_x, strong_x in _epoch_features(
                config, corpus, extractor, memo, steps, epoch):
            spec = BatchLossSpec(
                lab_features=lab_x,
                emo_labels=np.array([s.emotion for s in lab_batch]),
                int_labels=np.array([s.intent for s in lab_batch]),
                coeffs=coeffs, intent_weight=config.intent_weight)
            result, model, state = train_step(config.method, model, spec, weak_x, strong_x,
                                              config.tau, config.sigma, state, lr)
            results.append(result)

        val = evaluate(model, valid_eval, extractor, rows=valid_x)
        unlab_seen = sum(len(unlab_batch) for _, unlab_batch in steps)
        reports.append(EpochReport(
            epoch=epoch, lr=lr, emo=_task_stats([r.emo for r in results], unlab_seen),
            intent=_task_stats([r.intent for r in results], unlab_seen),
            mean_total=_mean(results, "total"), val=val))
        if val.jrbm > best_jrbm:
            best_jrbm, best_model, best_val, best_epoch = val.jrbm, model, val, epoch

    test = evaluate(best_model, test_set, extractor, rows=_rows(
        config, corpus, extractor, memo, test_set, None, None)) if test_set else None
    return TrainResult(model=best_model, reports=reports, best_epoch=best_epoch,
                       val_metrics=best_val, test_metrics=test)


_CSV_COLUMNS = [
    "epoch", "lr",
    "emo_sup", "emo_unsup", "emo_neg", "emo_ent", "emo_total", "emo_accept_rate", "emo_k_hist",
    "int_sup", "int_unsup", "int_neg", "int_ent", "int_total", "int_accept_rate", "int_k_hist",
    "mean_total", "val_f1_emo", "val_f1_intent", "val_jrbm",
]


def epoch_reports_csv(reports) -> str:
    """One CSV row per epoch; float cells use repr for exact round-trips."""
    lines = [",".join(_CSV_COLUMNS)]
    for r in reports:
        cells = [str(r.epoch), repr(r.lr)]
        for t in (r.emo, r.intent):
            cells += [*map(repr, (t.sup, t.unsup, t.neg, t.ent, t.total, t.acceptance_rate)),
                      " ".join(f"{k}:{n}" for k, n in sorted(t.k_hist.items()))]
        cells += [repr(r.mean_total), repr(r.val.f1_emo), repr(r.val.f1_intent), repr(r.val.jrbm)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


__all__ = [
    "EpochReport", "METHODS", "TaskEpochStats", "TrainConfig", "TrainResult", "epoch_reports_csv",
    "evaluate", "extractor_for", "labelled_pool", "lr_at_epoch", "metrics_from_probs",
    "predict_probs", "shared_features", "split_for", "train", "train_step", "unlabelled_pool",
]
