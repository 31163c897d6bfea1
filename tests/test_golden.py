"""Golden digests: a fixed grid of small ``train()`` runs keeps its bytes.

Each run records the sha256 of its ``epoch_reports_csv`` text and of its
checkpoint text (``checkpoint_to_text`` of the returned model, with the best
epoch and validation JRBM as extras, as ``semimatch train`` writes it). The
grid covers signal (flip, pitch_shift) and tokens (swap, synonym), all three
methods, and weak augmentation of unlabelled data on and off, on a
36-labelled / 60-unlabelled corpus at 3 epochs.

A change meant to keep training trajectories (a refactor, a speedup) leaves
every digest unchanged. A change that moves trajectories by design updates
these digests and says so in ``CHANGES.md``:
``PYTHONPATH=src python tests/test_golden.py`` prints ``GOLDEN`` as the
current tree computes it.
"""

import hashlib
import itertools
import warnings

import pytest

from semimatch.data import GeneratorConfig, synthesize_corpus
from semimatch.persist import checkpoint_to_text
from semimatch.trainer import METHODS, TrainConfig, epoch_reports_csv, train

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


def run_id(modality, kind, method, on_unlab):
    return f"{modality}-{kind}-{method}-{'weak-unlab' if on_unlab else 'raw-unlab'}"


def corpus_for(modality):
    return synthesize_corpus(GeneratorConfig(
        emotion_counts=(12, 12, 12), intent_counts=(18, 18), unlabelled_count=60,
        min_len=40, max_len=80, separation=0.8, correlation=0.0,
        modality_mix=1.0 if modality == "signal" else 0.0, seed=5))


def digests(modality, kind, method, on_unlab, corpus):
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
    return tuple(hashlib.sha256(text.encode()).hexdigest()[:16]
                 for text in (epoch_reports_csv(result.reports), checkpoint))


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


if __name__ == "__main__":
    # Print GOLDEN as the current tree computes it, to paste over the dict above
    # when a change moves trajectories by design; its diff names the runs that moved.
    corpora = {modality: corpus_for(modality) for modality in WEAK_KINDS}
    print("GOLDEN = {")
    for cell in GRID:
        print(f'    "{run_id(*cell)}": {digests(*cell, corpora[cell[0]])!r},')
    print("}")
