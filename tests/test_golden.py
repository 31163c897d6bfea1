"""Golden digests: a fixed grid of small ``train()`` runs keeps its bytes.

Each run records the sha256 of its ``epoch_reports_csv`` text and of its
checkpoint text (``checkpoint_to_text`` of the returned model, with the best
epoch and validation JRBM as extras, as ``semimatch train`` writes it). The
grid covers signal (flip, pitch_shift) and tokens (swap, synonym), all three
methods, and weak augmentation of unlabelled data on and off, on a
36-labelled / 60-unlabelled corpus at 3 epochs.

``GOLDEN_CLI`` pins what ``semimatch eval --split test`` writes for two
signal grid checkpoints and one tokens grid checkpoint, and what
``semimatch fuse`` writes for the two signal ones, which share the split.

``LOSS_DIGEST`` pins the loss API: every public :mod:`semimatch.losses`
function over a few hundred seeded batches (tied, uniform and one-hot rows,
sigma = j/B and 1, exact-threshold tau, and inputs with one fault each). It
hashes each output's types and bits, and each exception's type and message.

``STEP_DIGEST`` pins ``trainer.train_step``, the function ``train()`` calls
for each step (the weak and strong forwards, ``batch_terms``,
``loss_and_gradients`` and ``adam_step``; the baseline's empty unlabelled
branch takes only the last two), over a few hundred seeded random steps:
every method, one-row labelled and unlabelled batches, k = 1 and k = C,
every gate closed and every gate open, saturated softmax rows,
``intent_weight`` other than 1 and non-zero Adam state. It hashes the loss
breakdown, the new parameters and Adam's moments, so a change that moves the
bits of a step ``train()`` takes moves it.

``CORPUS_DIGEST`` pins what ``synthesize_corpus`` generates: the
``corpus_to_text`` bytes of a grid of ``GeneratorConfig`` recipes, among them
both criterion-7 corpora (200 labelled / 5000 unlabelled, signal and tokens),
mixed modalities, zero separation, one-frame and fixed lengths, no unlabelled
samples and several seeds. ``CORPUS_CONTENT_DIGEST`` pins the
``corpus_fingerprint`` of the same recipes: their decoded content, which no
change of the file format moves.

A change meant to keep training trajectories (a refactor, a speedup) leaves
every digest unchanged. A change that moves trajectories by design updates
these digests and says so in ``CHANGES.md``:
``PYTHONPATH=src python tests/test_golden.py`` prints ``CORPUS_DIGEST``,
``CORPUS_CONTENT_DIGEST``, ``LOSS_DIGEST``, ``STEP_DIGEST``, ``GOLDEN`` and ``GOLDEN_CLI`` as the current
tree computes them.
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from semimatch import losses
from semimatch.cli import main
from semimatch.data import (
    GeneratorConfig,
    corpus_fingerprint,
    corpus_to_text,
    load_corpus,
    save_corpus,
    synthesize_corpus,
)
from semimatch.model import (
    PARAM_FIELDS,
    AdamState,
    BatchLossSpec,
    TwoHeadModel,
    forward_batch,
    init_model,
)
from semimatch.persist import checkpoint_to_text
from semimatch.trainer import METHODS, TrainConfig, epoch_reports_csv, train, train_step

WEAK_KINDS = {"signal": ("flip", "pitch_shift"), "tokens": ("swap", "synonym")}
# confidence thresholds at which each modality's gates open for some samples
# and stay closed for others within 3 epochs, so that the weak branch's
# augmentation moves the trajectory; token features are weaker, hence lower
TAU = {"signal": 0.6, "tokens": 0.4}
GRID = [(modality, kind, method, on_unlab)
        for modality, kinds in WEAK_KINDS.items()
        for kind, method, on_unlab in itertools.product(kinds, METHODS, (True, False))]

# run id -> (sha256 of epochs CSV, sha256 of checkpoint text), first 16 hex
# digits. Baseline never reads unlabelled data, and swap leaves the order-free
# token features as they are, so those runs share an epochs CSV with their
# weak-augmentation twin; their checkpoints differ by the config they record.
# tokens-synonym-fullmatch weak-unlab and raw-unlab share an epochs CSV too:
# at these sizes the synonym draws on the unlabelled weak branch move no
# decision of the loss. tokens-swap-fixmatch keeps its checkpoints: its best
# validation epoch is the first, whose row of the epochs CSV did not move.
GOLDEN = {
    "signal-flip-baseline-weak-unlab": ('15246ea0bcfb9414', 'dfb0f41b4c7d27e2'),
    "signal-flip-baseline-raw-unlab": ('15246ea0bcfb9414', '4d9674ee0b3830ef'),
    "signal-flip-fixmatch-weak-unlab": ('0a2bada1b8d39280', '94d2d8e45f6657c5'),
    "signal-flip-fixmatch-raw-unlab": ('784431d9d978410f', 'f8b0b01ffbf80cdc'),
    "signal-flip-fullmatch-weak-unlab": ('4e135fefd7dec8ad', '5a93335951c0b76b'),
    "signal-flip-fullmatch-raw-unlab": ('ff89d9ffb0949c14', '8cec60b534bec383'),
    "signal-pitch_shift-baseline-weak-unlab": ('90c8d4098c7d029e', '6c71ad264d0e9605'),
    "signal-pitch_shift-baseline-raw-unlab": ('90c8d4098c7d029e', 'a270c643633f4639'),
    "signal-pitch_shift-fixmatch-weak-unlab": ('5f8e5aa707ac8f31', '4d2a1419f873fe80'),
    "signal-pitch_shift-fixmatch-raw-unlab": ('368149e5dbdb6b97', 'a62306378f3e8287'),
    "signal-pitch_shift-fullmatch-weak-unlab": ('c8f83f54974f392b', '6b83f66d71a27f8c'),
    "signal-pitch_shift-fullmatch-raw-unlab": ('0e84b430db7822f9', '39aff7d080944a9a'),
    "tokens-swap-baseline-weak-unlab": ('2e62a5c8ca48f158', 'b79e094503080499'),
    "tokens-swap-baseline-raw-unlab": ('2e62a5c8ca48f158', '7b6a6ae10a18d17e'),
    "tokens-swap-fixmatch-weak-unlab": ('fc09b409bd88d999', '10bdf00dedddcb62'),
    "tokens-swap-fixmatch-raw-unlab": ('fc09b409bd88d999', '8af7bd46a915adfa'),
    "tokens-swap-fullmatch-weak-unlab": ('a60c5b91b99dc29c', '0956299d1b95b208'),
    "tokens-swap-fullmatch-raw-unlab": ('a60c5b91b99dc29c', '314948d6b7644d0d'),
    "tokens-synonym-baseline-weak-unlab": ('5651f47a71b8075f', 'd194af15106336c1'),
    "tokens-synonym-baseline-raw-unlab": ('5651f47a71b8075f', '8457e38a69a085d2'),
    "tokens-synonym-fixmatch-weak-unlab": ('48992efc07f2e8fa', '8b4b348f1b3de3d9'),
    "tokens-synonym-fixmatch-raw-unlab": ('50bc6bc2da71ef83', 'ca2e6162c1f169fd'),
    "tokens-synonym-fullmatch-weak-unlab": ('905c914eebf16879', '084cfb3afb27ca92'),
    "tokens-synonym-fullmatch-raw-unlab": ('905c914eebf16879', 'a2ac021358005c71'),
}


# eval run id -> its grid cell; fuse reads the predictions of the two signal
# runs. At 3 epochs most grid models predict one class per task on the test
# split; the two signal baselines do not, and they disagree on intent.
EVAL_RUNS = {
    "signal-flip-baseline-weak-unlab": ("signal", "flip", "baseline", True),
    "signal-pitch_shift-baseline-weak-unlab": ("signal", "pitch_shift", "baseline", True),
    "tokens-synonym-fullmatch-weak-unlab": ("tokens", "synonym", "fullmatch", True),
}
EVAL_FILES = ("metrics.json", "predictions.jsonl", "confusion_emotion.csv",
              "confusion_intent.csv")

# output path -> sha256 of its bytes, first 16 hex digits
GOLDEN_CLI = {
    "signal-flip-baseline-weak-unlab/metrics.json": 'fec169d1277d6b1c',
    "signal-flip-baseline-weak-unlab/predictions.jsonl": '96c4ce3f7b66ec29',
    "signal-flip-baseline-weak-unlab/confusion_emotion.csv": '15ea26df3378351c',
    "signal-flip-baseline-weak-unlab/confusion_intent.csv": '6fa3281f6c81252e',
    "signal-pitch_shift-baseline-weak-unlab/metrics.json": '89bd4192456c6085',
    "signal-pitch_shift-baseline-weak-unlab/predictions.jsonl": '1a1285cf36ff5b7f',
    "signal-pitch_shift-baseline-weak-unlab/confusion_emotion.csv": '15ea26df3378351c',
    "signal-pitch_shift-baseline-weak-unlab/confusion_intent.csv": 'b64f495b4881f7b9',
    "tokens-synonym-fullmatch-weak-unlab/metrics.json": '9d1922cb72ad35db',
    "tokens-synonym-fullmatch-weak-unlab/predictions.jsonl": '72308ab55a8b4829',
    "tokens-synonym-fullmatch-weak-unlab/confusion_emotion.csv": 'dbf4e0fe70b6d65f',
    "tokens-synonym-fullmatch-weak-unlab/confusion_intent.csv": '2358ada7e2cea0cf',
    "fused/fused_metrics.json": 'fec169d1277d6b1c',
}

# sha256 of the corpus_to_text bytes of every CORPUS_GRID recipe, first 16 hex digits
CORPUS_DIGEST = '2ce9a3b7b557e4e1'

# sha256 of the corpus_fingerprint of every CORPUS_GRID recipe, first 16 hex digits
CORPUS_CONTENT_DIGEST = '8db99610a3ad33f4'

# sha256 of every record of loss_api_records(), first 16 hex digits
LOSS_DIGEST = '9328820c7200958e'

# sha256 of every record of step_records(), first 16 hex digits
STEP_DIGEST = '01a4bb7d0c32cc76'


def run_id(modality, kind, method, on_unlab):
    return f"{modality}-{kind}-{method}-{'weak-unlab' if on_unlab else 'raw-unlab'}"


def corpus_for(modality):
    return synthesize_corpus(GeneratorConfig(
        emotion_counts=(12, 12, 12), intent_counts=(18, 18), unlabelled_count=60,
        min_len=40, max_len=80, separation=0.8, correlation=0.0,
        modality_mix=1.0 if modality == "signal" else 0.0, seed=5))


CRITERION_7 = dict(emotion_counts=(29, 29, 29, 29, 28, 28, 28), intent_counts=(25,) * 8,
                   unlabelled_count=5000, min_len=160, max_len=320, separation=1.5,
                   correlation=0.8, seed=100)
SMALL = dict(emotion_counts=(3, 4, 5), intent_counts=(6, 6), unlabelled_count=70,
             min_len=20, max_len=50, separation=0.8, correlation=0.5)
CORPUS_GRID = [
    *(dict(CRITERION_7, modality_mix=mix) for mix in (1.0, 0.0)),
    *(dict(SMALL, modality_mix=mix, seed=seed) for mix in (0.0, 0.5, 1.0) for seed in (0, 1, 7)),
    dict(SMALL, modality_mix=0.5, separation=0.0, seed=3),
    dict(SMALL, modality_mix=0.5, separation=4.0, vocab_size=2, sample_rate=8000, seed=3),
    dict(SMALL, modality_mix=0.5, min_len=1, max_len=3, seed=4),
    dict(SMALL, modality_mix=0.5, min_len=1, max_len=1, seed=4),
    dict(SMALL, modality_mix=0.5, min_len=33, max_len=33, seed=5),
    dict(SMALL, modality_mix=0.5, unlabelled_count=0, seed=6),
    dict(SMALL, modality_mix=0.0, unlabelled_count=0, correlation=1.0, seed=6),
]


@functools.cache
def corpus_digests() -> tuple[str, str, str]:
    """``CORPUS_DIGEST`` and ``CORPUS_CONTENT_DIGEST`` as this tree computes
    them, and the digest ``CORPUS_DIGEST`` states over the file bytes that
    ``save_corpus`` writes instead of the ``corpus_to_text`` bytes."""
    text, content, written = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "corpus.jsonl"
        for recipe in CORPUS_GRID:
            corpus = synthesize_corpus(GeneratorConfig(**recipe))
            text.update(corpus_to_text(corpus).encode())
            content.update(corpus_fingerprint(corpus).encode())
            save_corpus(corpus, str(path))
            written.update(path.read_bytes())
    return text.hexdigest()[:16], content.hexdigest()[:16], written.hexdigest()[:16]


def trained(modality, kind, method, on_unlab, corpus):
    """The cell's ``train()`` result and the checkpoint text ``semimatch
    train`` writes for it."""
    config = TrainConfig(method=method, modality=modality, weak_aug_kind=kind,
                         weak_aug_on_unlabelled=on_unlab, epochs=3, batch_size=8,
                         learning_rate=3e-3, tau=TAU[modality], sigma=0.8, hidden_size=16,
                         seed=2, train_frac=0.6, valid_frac=0.2, test_frac=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = train(config, corpus)
    checkpoint = checkpoint_to_text(
        result.model, config, corpus.emotion_names, corpus.intent_names,
        extras={"best_epoch": result.best_epoch, "val_jrbm": result.val_metrics.jrbm})
    return result, checkpoint


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digests(modality, kind, method, on_unlab, corpus):
    result, checkpoint = trained(modality, kind, method, on_unlab, corpus)
    return tuple(sha16(text.encode())
                 for text in (epoch_reports_csv(result.reports), checkpoint))


def cli_digests(workdir: Path, corpora) -> dict:
    """``eval --split test`` of each ``EVAL_RUNS`` checkpoint, then ``fuse``
    of the two signal runs' predictions: the digest of every file written."""
    for modality, corpus in corpora.items():
        save_corpus(corpus, str(workdir / f"{modality}.jsonl"))
    argvs = []
    for name, cell in EVAL_RUNS.items():
        (workdir / f"{name}.json").write_text(trained(*cell, corpora[cell[0]])[1])
        argvs.append(["eval", "--checkpoints", str(workdir / f"{name}.json"),
                      "--corpus", str(workdir / f"{cell[0]}.jsonl"),
                      "--out", str(workdir / name), "--split", "test"])
    argvs.append(["fuse", "--checkpoints"]
                 + [str(workdir / name / "predictions.jsonl")
                    for name, cell in EVAL_RUNS.items() if cell[0] == "signal"]
                 + ["--out", str(workdir / "fused")])
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        for argv in argvs:
            assert main(argv) == 0, argv
    paths = [f"{name}/{file}" for name in EVAL_RUNS for file in EVAL_FILES]
    return {path: sha16((workdir / path).read_bytes())
            for path in paths + ["fused/fused_metrics.json"]}


def canonical(value) -> str:
    """Type and exact bits of a loss API output, recursively."""
    if dataclasses.is_dataclass(value):
        return f"{type(value).__name__}(" + ",".join(
            canonical(getattr(value, f.name)) for f in dataclasses.fields(value)) + ")"
    if isinstance(value, (tuple, list)):
        return f"{type(value).__name__}[" + ",".join(map(canonical, value)) + "]"
    if isinstance(value, np.ndarray):
        return f"ndarray<{value.dtype.str}{value.shape}>{value.tobytes().hex()}"
    if isinstance(value, (float, np.floating)):
        return f"{type(value).__name__}:{float(value).hex()}"
    return f"{type(value).__name__}:{value!r}"


def _rows(rng, n_rows: int, n_classes: int) -> np.ndarray:
    """Probability rows: Dirichlet, uniform, a two-way tie at the top, or one-hot."""
    rows = rng.dirichlet(np.full(n_classes, rng.choice([0.3, 1.0, 5.0])), size=n_rows)
    for row in rows:
        kind = rng.integers(5)
        if kind == 1:
            row[:] = 1.0 / n_classes
        elif kind == 2:
            row[:] = 0.0
            row[rng.choice(n_classes, 2, replace=False)] = 0.5
        elif kind == 3:
            row[:] = 0.0
            row[rng.integers(n_classes)] = 1.0
    return rows


FAULTS = ("sigma", "tau", "sum", "range", "classes", "shape", "label", "k",
          "lengths", "empty", "method")


def _loss_api_batch(rng, fault):
    """One seeded batch of both tasks, with at most one fault in its inputs."""
    batch = int(rng.integers(1, 7))
    sizes = {"emo": int(rng.integers(2, 6)), "int": int(rng.integers(2, 5))}
    n_lab = int(rng.integers(1 if fault == "label" else 0, 4))
    n_unlab = {task: 0 if fault == "empty" else batch for task in sizes}
    if fault == "lengths":
        n_unlab["int"] += 1
    mats = {}
    for task, n_classes in sizes.items():
        mats[task, "lab"] = _rows(rng, n_lab, n_classes)
        mats[task, "weak"] = _rows(rng, n_unlab[task], n_classes)
        mats[task, "strong"] = _rows(rng, n_unlab[task], n_classes)
    labels = {task: rng.integers(0, sizes[task], n_lab) for task in sizes}
    j = int(rng.integers(1, batch + 1))
    sigma = float(rng.choice([j / batch, 1.0, rng.uniform(0.3, 0.99)]))
    tau = float(rng.choice([0.5, rng.uniform(0.2, 0.95), mats["emo", "weak"].max(initial=0.5)]))
    k = int(rng.integers(1, sizes["emo"] + 1))
    if fault == "sigma":
        sigma = float(rng.choice([0.0, 1.5]))
    elif fault == "tau":
        tau = float(rng.choice([0.0, 1.25]))
    elif fault == "k":
        k = int(rng.choice([0, sizes["emo"] + 1]))
    elif fault == "label":
        task = str(rng.choice(["emo", "int"]))
        labels[task][-1] = rng.choice([-1, sizes[task]])
    elif fault == "shape":
        task = str(rng.choice(["emo", "int"]))
        mats[task, "strong"] = _rows(rng, batch, sizes[task] + 1)
    elif fault in ("sum", "range", "classes"):
        keys = [key for key, mat in mats.items() if len(mat)]
        key = keys[rng.integers(len(keys))]
        mat = mats[key]
        if fault == "sum":
            mat[-1] *= 1.01
        elif fault == "range":
            mat[-1] = 0.0
            mat[-1, :2] = (1.25, -0.25)
        else:
            mats[key] = np.ones((len(mat), 1))
    return mats, labels, tau, sigma, k


def loss_api_records(rounds: int = 240):
    """``(function, canonical output or exception)`` for every public losses
    function over ``rounds`` seeded batches; every third batch has a fault."""
    rng = np.random.default_rng(1717)
    records = []

    def record(name, fn, *args):
        try:
            out = canonical(fn(*args))
        except Exception as exc:    # the exception's type and message are the output
            out = f"raised {type(exc).__name__}: {exc}"
        records.append((name, out))

    for step in range(rounds):
        fault = FAULTS[(step // 3) % len(FAULTS)] if step % 3 == 2 else None
        mats, labels, tau, sigma, k = _loss_api_batch(rng, fault)
        methods = ["baseline", "fixmatch", "fullmatch"] + (["selfmatch"] * (fault == "method"))
        lab = {t: list(zip(mats[t, "lab"], labels[t].tolist())) for t in ("emo", "int")}
        unlab = {t: list(zip(mats[t, "weak"], mats[t, "strong"])) for t in ("emo", "int")}
        weak = (mats["emo", "weak"], mats["int", "weak"])
        strong = (mats["emo", "strong"], mats["int", "strong"])
        we, se = weak[0], strong[0]
        record("safe_log", losses.safe_log, np.concatenate([we.ravel(), [0.0, -1.0, 2.0]]))
        record("rank_matrix", losses.rank_matrix, we)
        record("rank_classes", losses.rank_classes, we[0] if len(we) else we)
        record("select_k", losses.select_k, we, se, sigma)
        record("gate_pseudo_label", losses.gate_pseudo_label, we[0] if len(we) else we, tau)
        record("entropy_meaning_soft_label", losses.entropy_meaning_soft_label,
               we[0] if len(we) else we, se[0] if len(se) else se, k)
        record("adaptive_negative_loss", losses.adaptive_negative_loss, unlab["emo"], k)
        record("entropy_meaning_loss", losses.entropy_meaning_loss, unlab["emo"], k)
        for sig in (None, sigma):
            record("build_task_terms", losses.build_task_terms, we, se, tau, sig)
        try:
            terms = losses.build_task_terms(we, se, 0.5, 0.9)
        except Exception:
            terms = None
        record("task_loss_from_terms", losses.task_loss_from_terms, mats["emo", "lab"],
               labels["emo"], se, terms, losses.LossCoefficients(0.3, 0.7, 1.1))
        record("fixmatch_loss", losses.fixmatch_loss, lab["emo"], unlab["emo"], tau, 0.7)
        record("fullmatch_loss", losses.fullmatch_loss, lab["emo"], unlab["emo"], tau, sigma,
               0.7, 0.4, 0.9)
        for method in methods:
            record("batch_terms", losses.batch_terms, method, weak, strong, tau, sigma)
            record("method_policy", losses.method_policy, method, *weak, tau, sigma)
            record("multitask_loss", losses.multitask_loss, method, lab["emo"], lab["int"],
                   unlab["emo"], unlab["int"], 0.6, tau, sigma, 0.7, 0.4, 0.9)
    return records


def loss_digest() -> str:
    return sha16(repr(loss_api_records()).encode())


def _step_case(rng, i: int):
    """One seeded step's model, batches, decisions' settings and Adam state."""
    method = METHODS[i % 3]
    dim, hidden = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    model = init_model(dim, hidden, int(rng.integers(2, 8)), int(rng.integers(2, 9)), rng)
    # large weights saturate the softmax, so clamped logs and 1 - p = 0 occur
    scale = float(rng.choice([1.0, 1.0, 8.0, 300.0]))
    model = TwoHeadModel(*(scale * getattr(model, f) for f in PARAM_FIELDS))
    n_lab = 1 if i % 7 == 0 else int(rng.integers(1, 6))
    n_unlab = 0 if method == "baseline" else 1 if i % 5 == 0 else int(rng.integers(1, 20))
    lab_x = rng.normal(size=(n_lab, dim))
    weak_x = rng.normal(size=(n_unlab, dim))
    # a strong branch equal to the weak one puts every pseudo label at rank 1: k = 1
    strong_x = weak_x.copy() if i % 4 == 0 else rng.normal(size=(n_unlab, dim))
    spec = BatchLossSpec(
        lab_features=lab_x,
        emo_labels=rng.integers(0, model.n_emotion, n_lab),
        int_labels=rng.integers(0, model.n_intent, n_lab),
        coeffs=losses.LossCoefficients(*(float(rng.choice([0.0, rng.uniform(0.1, 2.0)]))
                                         for _ in range(3))),
        intent_weight=float(rng.choice([1.0, 0.3, 2.5])))
    # tau 1 closes every gate and a tiny tau opens every one; sigma 1 gives k = C
    tau = float(rng.choice([1.0, 1e-9, rng.uniform(0.2, 0.95)]))
    sigma = float(rng.choice([1.0, 0.05, rng.uniform(0.3, 0.99)]))
    size = model.flat.size
    state = AdamState(m=rng.normal(scale=0.01, size=size), v=rng.uniform(0.0, 1e-3, size),
                      step=int(rng.integers(0, 60)))
    lr = float(rng.choice([3e-3, 0.1]))
    return method, model, spec, weak_x, strong_x, tau, sigma, state, lr


def step_records(steps: int = 240):
    """``(canonical loss, new parameters and Adam state, or exception)`` per
    seeded step, and the set of the step conditions the steps reached."""
    rng = np.random.default_rng(2424)
    records, reached = [], set()
    for i in range(steps):
        case = _step_case(rng, i)
        try:
            result, model, state = train_step(*case)
        except Exception as exc:    # the exception's type and message are the output
            records.append(f"raised {type(exc).__name__}: {exc}")
            continue
        records.append((canonical(result), canonical(model.flat), canonical(state)))
        method, before, spec, _, strong_x = case[:5]
        reached.add(method)
        reached.update({"one labelled row"} if len(spec.lab_features) == 1 else ())
        reached.update({"one unlabelled row"} if len(strong_x) == 1 else ())
        reached.update({"intent weight not 1"} if spec.intent_weight != 1.0 else ())
        x = strong_x if len(strong_x) else spec.lab_features
        reached.update({"1 - p = 0"} if any((p == 1.0).any() for p in forward_batch(before, x))
                       else ())
        for terms, bd in ((spec.emo_terms, result.emo), (spec.int_terms, result.intent)):
            if terms is None:
                continue
            reached.update({"all gates closed"} if not terms.gate.any() else ())
            reached.update({"all gates open"} if terms.gate.all() else ())
            if bd.k is not None:
                reached.update({"k = 1"} if bd.k == 1 else ())
                reached.update({"k = C"} if bd.k == terms.neg_mask.shape[1] else ())
    return records, reached


def step_digest() -> str:
    return sha16(repr(step_records()[0]).encode())


def test_step_digest_unchanged():
    records, reached = step_records()
    assert reached >= {*METHODS, "one labelled row", "one unlabelled row", "intent weight not 1",
                       "1 - p = 0", "all gates closed", "all gates open", "k = 1", "k = C"}
    assert not any(isinstance(r, str) for r in records)
    assert sha16(repr(records).encode()) == STEP_DIGEST


def test_corpus_digest_unchanged():
    assert corpus_digests()[0] == CORPUS_DIGEST


def test_corpus_content_digest_unchanged():
    assert corpus_digests()[1] == CORPUS_CONTENT_DIGEST


def test_save_corpus_writes_the_corpus_to_text_bytes():
    """The file ``save_corpus`` streams holds, for every grid recipe, the
    bytes ``CORPUS_DIGEST`` pins."""
    text_digest, _, written_digest = corpus_digests()
    assert written_digest == text_digest


def test_corpus_grid_reloads_to_its_fingerprint(tmp_path):
    """Each grid corpus, written at the current version and read back, has
    the content it was generated with."""
    path = str(tmp_path / "corpus.jsonl")
    for recipe in CORPUS_GRID:
        corpus = synthesize_corpus(GeneratorConfig(**recipe))
        save_corpus(corpus, path)
        assert corpus_fingerprint(load_corpus(path)) == corpus_fingerprint(corpus), recipe


def test_loss_api_digest_unchanged():
    assert loss_digest() == LOSS_DIGEST


def test_grid_covers_every_method_kind_and_flag():
    assert len(GRID) == 24 and set(GOLDEN) == {run_id(*cell) for cell in GRID}


@pytest.mark.parametrize("modality", sorted(WEAK_KINDS))
def test_training_digests_unchanged(modality):
    corpus = corpus_for(modality)
    moved = []
    for cell in GRID:
        if cell[0] == modality:
            got = digests(*cell, corpus)
            if got != GOLDEN[run_id(*cell)]:
                moved.append(f"{run_id(*cell)}: {got}")
    assert not moved, "digests moved:\n" + "\n".join(moved)


def test_eval_and_fuse_digests_unchanged(tmp_path):
    corpora = {modality: corpus_for(modality) for modality in WEAK_KINDS}
    assert cli_digests(tmp_path, corpora) == GOLDEN_CLI


if __name__ == "__main__":
    # Print CORPUS_DIGEST, CORPUS_CONTENT_DIGEST, LOSS_DIGEST, STEP_DIGEST, GOLDEN and GOLDEN_CLI as the current
    # tree computes them, to paste over the values above when a change moves outputs by
    # design; the dicts' diff names the runs and files that moved.
    text_digest, content_digest, _ = corpus_digests()
    print(f"CORPUS_DIGEST = {text_digest!r}")
    print(f"CORPUS_CONTENT_DIGEST = {content_digest!r}")
    print(f"LOSS_DIGEST = {loss_digest()!r}")
    print(f"STEP_DIGEST = {step_digest()!r}")
    corpora = {modality: corpus_for(modality) for modality in WEAK_KINDS}
    print("GOLDEN = {")
    for cell in GRID:
        print(f'    "{run_id(*cell)}": {digests(*cell, corpora[cell[0]])!r},')
    print("}")
    with tempfile.TemporaryDirectory() as workdir:
        print("GOLDEN_CLI = {")
        for path, digest in cli_digests(Path(workdir), corpora).items():
            print(f'    "{path}": {digest!r},')
        print("}")
