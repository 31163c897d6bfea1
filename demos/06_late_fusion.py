"""Margin-sampling late fusion of independently trained models.

Each model predicts per-task probability vectors for the shared test set;
for every sample and task, the model with the widest top1-top2 margin
contributes its argmax. Models trained with different weak augmentations
make different mistakes, so the fusion can beat both.
"""

import warnings

from semimatch.data import GeneratorConfig, synthesize_corpus
from semimatch.metrics import MetricsReport, margin_fusion
from semimatch.trainer import (
    TrainConfig,
    extractor_for,
    metrics_from_probs,
    predict_probs,
    split_for,
    train,
)

warnings.simplefilter("ignore")

corpus = synthesize_corpus(GeneratorConfig(
    emotion_counts=(29, 29, 29, 29, 28, 28, 28), intent_counts=(25,) * 8,
    unlabelled_count=2000, min_len=160, max_len=320,
    separation=1.2, correlation=0.8, seed=100))


def fit(weak_kind):
    config = TrainConfig(
        method="fixmatch", weak_aug_kind=weak_kind,
        epochs=25, batch_size=4, unlabelled_ratio=4.0,
        learning_rate=2e-2, lr_decay=0.99, hidden_size=64,
        signal_bins=8, noise_scale=1.0, seed=0,
        train_frac=0.3, valid_frac=0.2, test_frac=0.5)
    return config, train(config, corpus)


models = {kind: fit(kind) for kind in ("flip", "time_mask", "pitch_shift")}

# every config shares the split seed, so the test sets coincide
config0 = models["flip"][0]
_, _, test = split_for(config0, corpus)
extractor = extractor_for(config0, corpus)
emo_labels = [s.emotion for s in test]
int_labels = [s.intent for s in test]

emo_tables, int_tables = [], []
print("individual models on the shared test set:")
for kind, (config, result) in models.items():
    emo_probs, int_probs = predict_probs(result.model, test, extractor)
    emo_tables.append(emo_probs)
    int_tables.append(int_probs)
    report = metrics_from_probs(test, emo_probs, int_probs)
    print(f"  weak={kind:<12s} F1 emo {report.f1_emo:.3f}  "
          f"F1 intent {report.f1_intent:.3f}  JRBM {report.jrbm:.3f}")

# rank by validation JRBM and fuse the best two, then all three
order = sorted(models, key=lambda k: -models[k][1].val_metrics.jrbm)
print(f"\nvalidation ranking: {order}")
for take in (2, 3):
    picked = [list(models).index(k) for k in order[:take]]
    fused = MetricsReport.from_predictions(
        margin_fusion([emo_tables[i] for i in picked]), emo_labels,
        margin_fusion([int_tables[i] for i in picked]), int_labels,
        corpus.n_emotion, corpus.n_intent)
    print(f"best-{take} fusion: F1 emo {fused.f1_emo:.3f}  "
          f"F1 intent {fused.f1_intent:.3f}  JRBM {fused.jrbm:.3f}")
