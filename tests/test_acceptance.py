"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criterion 7 trains fifteen small models and is the
slow one (about 1.5 minutes); everything else finishes in seconds.
"""

import json
import warnings

import numpy as np

from conftest import random_probs
from semimatch.augment import (
    EmbeddingTable,
    SignalSequence,
    SynonymLexicon,
    TokenSequence,
    augment_signal,
    augment_tokens,
)
from semimatch.cli import main
from semimatch.data import (
    GeneratorConfig,
    Sample,
    SplitSpec,
    stratified_split,
    synthesize_corpus,
)
from semimatch.gradcheck import run_gradient_checks
from semimatch.losses import (
    adaptive_negative_loss,
    build_task_terms,
    entropy_meaning_soft_label,
    fixmatch_loss,
    fullmatch_loss,
    select_k,
)
from semimatch.metrics import jrbm, margin_fusion, weighted_f1
from semimatch.model import PARAM_FIELDS
from semimatch.trainer import TrainConfig, shared_features, train

from test_losses import oracle_select_k, random_batch
from test_metrics import oracle_margin_fusion, oracle_weighted_f1


def ok(criterion: int, message: str):
    print(f"PASS criterion {criterion}: {message}")


def silent_train(config, corpus):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return train(config, corpus)


def test_criterion_1_metric_fidelity():
    """JRBM reproduces the reported F1 pairs within +-0.0005."""
    pairs = [(0.351, 0.454, 0.396), (0.292, 0.323, 0.307),
             (0.301, 0.399, 0.343), (0.338, 0.453, 0.387)]
    for f1_emo, f1_int, expected in pairs:
        assert abs(jrbm(f1_emo, f1_int) - expected) <= 0.0005
    ok(1, f"jrbm matches all {len(pairs)} reported F1 pairs within 0.0005")


def test_criterion_2_gradient_correctness():
    """Analytic gradients vs central differences, 20 batches per loss."""
    report = run_gradient_checks(seed=2024, n_batches=20, batch_size=4,
                                 n_emotion=7, n_intent=8, input_dim=16,
                                 hidden_size=8, tolerance=1e-4)
    assert report.passed, f"max relative error {report.max_rel_error:.3e}"
    assert len(report.per_config) == 7
    ok(2, f"max relative error {report.max_rel_error:.2e} <= 1e-4 over "
          f"{report.seeds_checked} batches x {len(report.per_config)} loss configs")


def test_criterion_3_degeneracy_identities():
    """Exact: full->fix at lam2=lam3=0; fix(tau=1) == baseline run；
    single-model fusion == argmax."""
    rng = np.random.default_rng(33)
    for _ in range(100):
        labelled, unlabelled = random_batch(rng, 3, 6, 5, alpha=0.4)
        full = fullmatch_loss(labelled, unlabelled, 0.7, 0.99, 0.5, 0.0, 0.0)
        fix = fixmatch_loss(labelled, unlabelled, 0.7, 0.5)
        assert full.total == fix.total

    corpus = synthesize_corpus(GeneratorConfig(
        emotion_counts=(12, 12, 12), intent_counts=(18, 18), unlabelled_count=40,
        min_len=40, max_len=80, separation=1.0, seed=4))
    shared = dict(epochs=4, batch_size=8, learning_rate=3e-3, hidden_size=16,
                  seed=6, train_frac=0.6, valid_frac=0.2, test_frac=0.2)
    base = silent_train(TrainConfig(method="baseline", **shared), corpus)
    fix = silent_train(TrainConfig(method="fixmatch", tau=1.0, **shared), corpus)
    for field in PARAM_FIELDS:
        assert np.array_equal(getattr(base.model, field), getattr(fix.model, field))
    for rb, rf in zip(base.reports, fix.reports):
        assert rb.emo.sup == rf.emo.sup and rb.val.jrbm == rf.val.jrbm

    table = random_probs(rng, 50, 6)
    assert np.array_equal(margin_fusion([table]), np.argmax(table, axis=1))
    ok(3, "full==fix at zero rank weights; tau=1.0 run retraces baseline; "
          "single-model fusion is argmax")


def test_criterion_4_oracle_equivalence():
    """Brute-force scans agree with zero mismatches."""
    rng = np.random.default_rng(44)
    for _ in range(1000):
        b, c = int(rng.integers(1, 7)), int(rng.integers(2, 8))
        weak = random_probs(rng, b, c)
        strong = random_probs(rng, b, c)
        sigma = float(rng.uniform(0.2, 0.999))
        sel = select_k(weak, strong, sigma)
        k_exp, acc_exp = oracle_select_k(weak.tolist(), strong.tolist(), sigma)
        assert sel.k == k_exp and abs(sel.topk_accuracy - acc_exp) < 1e-12

    for _ in range(100):
        c, n = int(rng.integers(2, 9)), int(rng.integers(1, 50))
        labels = rng.integers(0, c, n)
        preds = rng.integers(0, c, n)
        got = weighted_f1(preds, labels, c)
        assert abs(got - oracle_weighted_f1(preds.tolist(), labels.tolist(), c)) < 1e-12

    for _ in range(100):
        n, c = int(rng.integers(1, 25)), int(rng.integers(2, 7))
        tables = [random_probs(rng, n, c) for _ in range(int(rng.integers(1, 5)))]
        assert np.array_equal(margin_fusion(tables), oracle_margin_fusion(tables))
    ok(4, "select_k x1000, weighted_f1 x100, margin fusion x100: zero mismatches")


def test_criterion_5_structural_invariants():
    """Rank partition, soft-label mass, rank-tail zero at k=C."""
    rng = np.random.default_rng(55)
    for _ in range(1000):
        b, c = int(rng.integers(1, 7)), int(rng.integers(3, 9))
        weak = random_probs(rng, b, c)
        strong = random_probs(rng, b, c)
        terms = build_task_terms(weak, strong, tau=0.5, sigma=float(rng.uniform(0.3, 0.99)))
        top1 = np.zeros((b, c), dtype=bool)
        top1[np.arange(b), terms.pseudo] = True
        union = top1 | terms.mid_mask | terms.neg_mask
        overlap = (top1 & terms.mid_mask) | (top1 & terms.neg_mask) \
            | (terms.mid_mask & terms.neg_mask)
        assert union.all() and not overlap.any()

        k = int(rng.integers(2, c + 1))
        soft = entropy_meaning_soft_label(weak[0], strong[0], k)
        assert abs(soft.values.sum() - (1.0 - strong[0][terms.pseudo[0]])) < 1e-12

        batch = [(weak[i], strong[i]) for i in range(b)]
        assert adaptive_negative_loss(batch, k=c) == 0.0
    ok(5, "rank partition, soft-label mass (1e-12), and k=C zero hold on 1000 batches")


def test_criterion_6_stratified_split():
    """Reproduces the 815/155 split and stays within +-1 per joint class."""
    def sample(i, emotion=0, intent=0):
        return Sample(id=f"s{i}", modality="signal",
                      payload=SignalSequence(np.ones(4)), emotion=emotion, intent=intent)

    pool = [sample(i) for i in range(970)]
    train_set, valid_set, test_set = stratified_split(pool, SplitSpec(0.84, 0.16, 0.0, seed=0))
    assert (len(train_set), len(valid_set), len(test_set)) == (815, 155, 0)

    rng = np.random.default_rng(66)
    mixed = [sample(i, int(rng.integers(3)), int(rng.integers(3))) for i in range(500)]
    groups = {}
    for s in mixed:
        groups.setdefault((s.emotion, s.intent), 0)
        groups[(s.emotion, s.intent)] += 1
    fractions = (0.7, 0.2, 0.1)
    for seed in range(100):
        parts = stratified_split(mixed, SplitSpec(*fractions, seed=seed))
        assert sorted(s.id for p in parts for s in p) == sorted(s.id for s in mixed)
        for key, n in groups.items():
            for part, frac in zip(parts, fractions):
                got = sum(1 for s in part if (s.emotion, s.intent) == key)
                assert abs(got - n * frac) <= 1.0
    ok(6, "815/155 reproduced; joint classes within +-1 of target over 100 seeds")


def test_criterion_7_desk_scale_ssl_experiment():
    """Directional property: gated consistency beats supervised-only, and the
    rank losses stay active, on 200 labelled / 5000 unlabelled samples."""
    corpus = synthesize_corpus(GeneratorConfig(
        emotion_counts=(29, 29, 29, 29, 28, 28, 28), intent_counts=(25,) * 8,
        unlabelled_count=5000, min_len=160, max_len=320,
        separation=1.5, correlation=0.8, seed=100))
    assert len(corpus.labelled) == 200 and len(corpus.unlabelled) == 5000

    def config(method, seed):
        # tau, sigma, and the three loss weights stay at their defaults
        return TrainConfig(method=method, weak_aug_kind="pitch_shift", epochs=40,
                           batch_size=4, unlabelled_ratio=4.0, learning_rate=2e-2,
                           lr_decay=0.99, hidden_size=64, seed=seed, signal_bins=8,
                           noise_scale=1.0, train_frac=0.3, valid_frac=0.2,
                           test_frac=0.5)

    wins = 0
    jrbms = []
    for seed in range(5):
        with shared_features(corpus):   # the three runs of a seed share feature rows
            base = silent_train(config("baseline", seed), corpus)
            fix = silent_train(config("fixmatch", seed), corpus)
            full = silent_train(config("fullmatch", seed), corpus)
        assert fix.reports[-1].emo.acceptance_rate > 0.0
        wins += fix.test_metrics.jrbm >= base.test_metrics.jrbm
        jrbms.append((base.test_metrics.jrbm, fix.test_metrics.jrbm))

        for report in full.reports[1:]:
            coverage = report.emo.acceptance_rate + report.intent.acceptance_rate
            assert coverage > 0.0, f"seed {seed} epoch {report.epoch}: no accepted samples"
            assert report.emo.neg > 0.0 and report.intent.neg > 0.0
            assert report.emo.ent > 0.0 and report.intent.ent > 0.0
    assert wins >= 4, f"fixmatch >= baseline in only {wins}/5 seeds ({jrbms})"
    mean_base = np.mean([a for a, _ in jrbms])
    mean_fix = np.mean([b for _, b in jrbms])
    ok(7, f"fixmatch >= baseline in {wins}/5 seeds "
          f"(mean test JRBM {mean_base:.3f} -> {mean_fix:.3f}); "
          f"fullmatch coverage and rank losses active every epoch after the first")


GEN_CFG = """
emotion_counts = 12, 12, 12
intent_counts = 18, 18
unlabelled_count = 30
min_len = 40
max_len = 80
separation = 1.0
seed = 9
"""

TRAIN_CFG = """
method = fullmatch
epochs = 2
batch_size = 8
learning_rate = 3e-3
tau = 0.6
hidden_size = 8
seed = 4
train_frac = 0.6
valid_frac = 0.2
test_frac = 0.2
"""


def test_criterion_8_determinism(tmp_path, monkeypatch):
    """Identical runs produce byte-identical corpus files and epoch CSVs."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gen.cfg").write_text(GEN_CFG)
    (tmp_path / "train.cfg").write_text(TRAIN_CFG)
    assert main(["gen-data", "--config", "gen.cfg", "--out", "c1.jsonl"]) == 0
    assert main(["gen-data", "--config", "gen.cfg", "--out", "c2.jsonl"]) == 0
    assert (tmp_path / "c1.jsonl").read_bytes() == (tmp_path / "c2.jsonl").read_bytes()

    assert main(["train", "--config", "train.cfg", "--corpus", "c1.jsonl",
                 "--out", "r1"]) == 0
    assert main(["train", "--config", "train.cfg", "--corpus", "c1.jsonl",
                 "--out", "r2"]) == 0
    csv1 = (tmp_path / "r1/epochs.csv").read_bytes()
    assert csv1 == (tmp_path / "r2/epochs.csv").read_bytes()
    ck1 = json.loads((tmp_path / "r1/checkpoint.json").read_text())
    ck2 = json.loads((tmp_path / "r2/checkpoint.json").read_text())
    assert ck1 == ck2
    ok(8, "gen-data and train are byte-identical across reruns")


def test_criterion_9_augmentation_properties():
    """Every augment invariant over >=1000 randomized cases each."""
    rng = np.random.default_rng(99)
    lexicon = SynonymLexicon.from_groups(vocab_size=18, group_size=3)
    table = EmbeddingTable.from_seed(vocab_size=18, dim=6, seed=0)

    for _ in range(1000):
        n = int(rng.integers(4, 240))
        seq = SignalSequence(frames=rng.standard_normal(n) + 0.5)
        kind = str(rng.choice(("flip", "time_mask", "pitch_shift", "gaussian_noise")))
        out = augment_signal([seq], kind, rng, **({"max_frames": 60}
                                                  if kind == "time_mask" else {}))[0]
        assert len(out) == len(seq) and out.sample_rate == seq.sample_rate
        assert np.all(np.isfinite(out.frames))
        if kind == "flip":
            np.testing.assert_allclose(np.sort(out.frames), np.sort(seq.frames))
        if kind == "time_mask":
            zeros = np.flatnonzero(out.frames == 0.0)
            assert 1 <= len(zeros) <= 60
            assert zeros[-1] - zeros[0] + 1 == len(zeros)
            rest = np.setdiff1d(np.arange(n), zeros)
            np.testing.assert_array_equal(out.frames[rest], seq.frames[rest])

    for _ in range(1000):
        n = int(rng.integers(1, 50))
        seq = TokenSequence(tokens=rng.integers(0, 18, n), vocab_size=18)
        kind = str(rng.choice(("swap", "delete", "synonym", "contextual")))
        out = augment_tokens([seq], kind, rng, lexicon=lexicon, table=table)[0]
        assert np.all(out.tokens >= 0) and np.all(out.tokens < 18)
        if kind == "swap":
            assert sorted(out.tokens.tolist()) == sorted(seq.tokens.tolist())
        if kind == "delete":
            assert 1 <= len(out) <= len(seq)
            it = iter(seq.tokens.tolist())
            assert all(any(tok == orig for orig in it) for tok in out.tokens.tolist())

    seq_sig = SignalSequence(frames=rng.standard_normal(120))
    seq_tok = TokenSequence(tokens=rng.integers(0, 18, 25), vocab_size=18)
    for i in range(1000):
        kind = ("flip", "time_mask", "pitch_shift", "gaussian_noise")[i % 4]
        a = augment_signal([seq_sig], kind, np.random.default_rng(i))[0]
        b = augment_signal([seq_sig], kind, np.random.default_rng(i))[0]
        np.testing.assert_array_equal(a.frames, b.frames)
        kind = ("swap", "delete", "synonym", "contextual")[i % 4]
        a = augment_tokens([seq_tok], kind, np.random.default_rng(i),
                           lexicon=lexicon, table=table)[0]
        b = augment_tokens([seq_tok], kind, np.random.default_rng(i),
                           lexicon=lexicon, table=table)[0]
        np.testing.assert_array_equal(a.tokens, b.tokens)
    ok(9, "length/multiset/subsequence/vocabulary/reproducibility invariants "
          "hold over 1000+ randomized cases each")
