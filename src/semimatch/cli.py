"""Command-line harness: corpus generation, training, evaluation, fusion,
Table-shaped sweeps, and gradient checking.

Every subcommand is deterministic given its config and seed, and all
outputs are written atomically (temp file + rename), so a failed run never
leaves a partial artifact behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from .config import (
    GENERATOR_CONFIG_KEYS,
    TRAIN_CONFIG_KEYS,
    load_generator_config,
    load_train_config,
)
from .data import load_corpus, save_corpus, synthesize_corpus
from .augment import weak_kinds
from .errors import ConfigError, ContractError, SemimatchError
from .fileio import atomic_write_text
from .gradcheck import run_gradient_checks
from .metrics import MetricsReport, confusion_csv, margin_fusion
from .persist import load_checkpoint, load_predictions, save_checkpoint, save_predictions
from .trainer import (
    epoch_reports_csv,
    extractor_for,
    labelled_pool,
    metrics_from_probs,
    predict_probs,
    shared_features,
    split_for,
    train,
    unlabelled_pool,
)


def _require_file(path: str, what: str):
    if not os.path.isfile(path):
        raise ConfigError(f"{what} file not found: {path}")


def _write_json(path: str, payload: dict):
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _metrics_files(out_dir: str, metrics: MetricsReport, emotion_names, intent_names,
                   prefix: str = ""):
    _write_json(os.path.join(out_dir, f"{prefix}metrics.json"), metrics.to_dict())
    atomic_write_text(os.path.join(out_dir, f"{prefix}confusion_emotion.csv"),
                      confusion_csv(metrics.confusion_emo, emotion_names))
    atomic_write_text(os.path.join(out_dir, f"{prefix}confusion_intent.csv"),
                      confusion_csv(metrics.confusion_int, intent_names))


def _seed_override(args) -> dict:
    """The config override ``--seed`` asks for, checked before any config
    file is read, so that a bad value is not reported as the file's."""
    if args.seed is None:
        return {}
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    return {"seed": args.seed}


def cmd_gen_data(args) -> int:
    overrides = _seed_override(args)
    _require_file(args.config, "config")
    config = load_generator_config(args.config, **overrides)
    corpus = synthesize_corpus(config)
    save_corpus(corpus, args.out)
    print(f"wrote corpus with {len(corpus.labelled)} labelled / "
          f"{len(corpus.unlabelled)} unlabelled samples to {args.out}")
    return 0


def _train_summary(config, result) -> dict:
    return {
        "method": config.method,
        "modality": config.modality,
        "weak_aug_kind": config.weak_aug_kind,
        "weak_aug_on_unlabelled": config.weak_aug_on_unlabelled,
        "seed": config.seed,
        "epochs": config.epochs,
        "best_epoch": result.best_epoch,
        "val": result.val_metrics.to_dict(),
        "test": result.test_metrics.to_dict() if result.test_metrics else None,
    }


def cmd_train(args) -> int:
    overrides = _seed_override(args)
    _require_file(args.config, "config")
    _require_file(args.corpus, "corpus")
    config = load_train_config(args.config, **overrides)
    corpus = load_corpus(args.corpus)
    result = train(config, corpus)

    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "checkpoint.json"), result.model, config,
                    corpus.emotion_names, corpus.intent_names,
                    extras={"best_epoch": result.best_epoch,
                            "val_jrbm": result.val_metrics.jrbm})
    atomic_write_text(os.path.join(args.out, "epochs.csv"),
                      epoch_reports_csv(result.reports))
    _write_json(os.path.join(args.out, "summary.json"), _train_summary(config, result))
    test_note = (f", test JRBM {result.test_metrics.jrbm:.3f}"
                 if result.test_metrics else "")
    print(f"trained {config.method} ({config.modality}); best epoch {result.best_epoch}, "
          f"valid JRBM {result.val_metrics.jrbm:.3f}{test_note}")
    return 0


def _split_samples(corpus, config, split_name: str):
    if split_name == "all":
        return labelled_pool(corpus, config.modality)
    samples = dict(zip(("train", "valid", "test"), split_for(config, corpus)))[split_name]
    if not samples:
        raise ConfigError(f"the {split_name} split is empty under this config")
    return samples


def cmd_eval(args) -> int:
    if len(args.checkpoints) != 1:
        raise ConfigError("eval expects exactly one checkpoint")
    checkpoint = args.checkpoints[0]
    _require_file(checkpoint, "checkpoint")
    _require_file(args.corpus, "corpus")
    model, config, emotion_names, intent_names = load_checkpoint(checkpoint)
    corpus = load_corpus(args.corpus)
    if [corpus.emotion_names, corpus.intent_names] != [emotion_names, intent_names]:
        raise ConfigError(f"the class names of corpus {args.corpus} differ from those "
                          f"of checkpoint {checkpoint}")
    samples = _split_samples(corpus, config, args.split)
    extractor = extractor_for(config, corpus)
    if extractor.dim != model.input_dim:
        raise ConfigError(f"checkpoint {checkpoint} reads {model.input_dim} features, but "
                          f"its config gives {extractor.dim} on corpus {args.corpus}")
    emo_probs, int_probs = predict_probs(model, samples, extractor)
    metrics = metrics_from_probs(samples, emo_probs, int_probs)

    os.makedirs(args.out, exist_ok=True)
    _metrics_files(args.out, metrics, emotion_names, intent_names)
    save_predictions(os.path.join(args.out, "predictions.jsonl"),
                     [s.id for s in samples], [s.emotion for s in samples],
                     [s.intent for s in samples], emo_probs, int_probs)
    print(f"evaluated {len(samples)} samples ({args.split}): "
          f"F1 emo {metrics.f1_emo:.3f}, F1 intent {metrics.f1_intent:.3f}, "
          f"JRBM {metrics.jrbm:.3f}")
    return 0


def cmd_fuse(args) -> int:
    if len(args.checkpoints) < 2:
        raise ConfigError("fuse needs at least two prediction files")
    loaded = []
    for path in args.checkpoints:
        _require_file(path, "predictions")
        loaded.append(load_predictions(path))
    ids, emo_labels, int_labels = loaded[0][0], loaded[0][1], loaded[0][2]
    for path, entry in zip(args.checkpoints[1:], loaded[1:]):
        if entry[0] != ids:
            raise ContractError(f"{path}: sample ids do not match the first file")
        if not (np.array_equal(entry[1], emo_labels) and np.array_equal(entry[2], int_labels)):
            raise ContractError(f"{path}: labels do not match the first file")
        if (entry[3].shape, entry[4].shape) != (loaded[0][3].shape, loaded[0][4].shape):
            raise ContractError(f"{path}: class counts do not match the first file")

    emo_preds = margin_fusion([entry[3] for entry in loaded])
    int_preds = margin_fusion([entry[4] for entry in loaded])
    n_emotion = loaded[0][3].shape[1]
    n_intent = loaded[0][4].shape[1]
    metrics = MetricsReport.from_predictions(emo_preds, emo_labels, int_preds, int_labels,
                                             n_emotion, n_intent)
    os.makedirs(args.out, exist_ok=True)
    emotion_names = [f"emotion_{i}" for i in range(n_emotion)]
    intent_names = [f"intent_{i}" for i in range(n_intent)]
    _metrics_files(args.out, metrics, emotion_names, intent_names, prefix="fused_")
    print(f"fused {len(args.checkpoints)} models over {len(ids)} samples: "
          f"F1 emo {metrics.f1_emo:.3f}, F1 intent {metrics.f1_intent:.3f}, "
          f"JRBM {metrics.jrbm:.3f}")
    return 0


_SWEEP_COLUMNS = [
    "method", "augment",
    "wo_weak_valid_jrbm", "wo_weak_test_f1_emo", "wo_weak_test_f1_intent", "wo_weak_test_jrbm",
    "w_weak_valid_jrbm", "w_weak_test_f1_emo", "w_weak_test_f1_intent", "w_weak_test_jrbm",
]


def cmd_sweep(args) -> int:
    """Grid of method x weak augmentation x ablation state, one CSV row per
    (method, augment) with the two ablation states side by side."""
    overrides = _seed_override(args)
    _require_file(args.config, "config")
    _require_file(args.corpus, "corpus")
    base = load_train_config(args.config, **overrides)
    if base.test_frac <= 0:
        raise ConfigError("sweep needs test_frac > 0 to report test metrics")
    corpus = load_corpus(args.corpus)
    # the corpus errors of the first baseline and fixmatch cells, before any cell trains
    labelled_pool(corpus, base.modality)
    unlabelled_pool(corpus, "fixmatch", base.modality)

    def cell(config):
        result = train(config, corpus)
        if result.test_metrics is None:
            raise ConfigError("the test split is empty under this config")
        return (result.val_metrics.jrbm, result.test_metrics.f1_emo,
                result.test_metrics.f1_intent, result.test_metrics.jrbm)

    with shared_features(corpus):
        base_metrics = cell(replace(base, method="baseline"))
        rows = [("baseline", "-") + base_metrics + base_metrics]
        for method in ("fixmatch", "fullmatch"):
            for kind in weak_kinds(base.modality):
                without = cell(replace(base, method=method, weak_aug_kind=kind,
                                       weak_aug_on_unlabelled=False))
                with_aug = cell(replace(base, method=method, weak_aug_kind=kind,
                                        weak_aug_on_unlabelled=True))
                rows.append((method, kind) + without + with_aug)
                print(f"{method}/{kind}: wo/ JRBM {without[3]:.3f}, w/ JRBM {with_aug[3]:.3f}")

    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in row))
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "sweep.csv")
    atomic_write_text(out_path, "\n".join(lines) + "\n")
    print(f"wrote {len(rows)} sweep rows to {out_path}")
    return 0


def cmd_gradcheck(args) -> int:
    report = run_gradient_checks(seed=args.seed, n_batches=args.batches)
    for name in sorted(report.per_config):
        print(f"{name}: max relative error {report.per_config[name]:.3e}")
    print(f"overall max relative error {report.max_rel_error:.3e} "
          f"(tolerance {report.tolerance:.0e}, {report.seeds_checked} batches)")
    if report.passed:
        print("gradient check PASSED")
        return 0
    print("gradient check FAILED")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semimatch",
        description="Semi-supervised two-task classification experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen-data", help="synthesize a corpus file from a generator config",
        epilog="config keys: " + ", ".join(GENERATOR_CONFIG_KEYS))
    gen.add_argument("--config", required=True, help="generator config (key = value)")
    gen.add_argument("--out", required=True, help="output corpus file")
    gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    gen.set_defaults(func=cmd_gen_data)

    train_keys = "config keys: " + ", ".join(TRAIN_CONFIG_KEYS)
    tr = sub.add_parser("train", help="train one model and write its reports",
                        epilog=train_keys)
    tr.add_argument("--config", required=True, help="train config (key = value)")
    tr.add_argument("--corpus", required=True, help="corpus file")
    tr.add_argument("--out", required=True, help="output directory")
    tr.add_argument("--seed", type=int, default=None, help="override the config seed")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint and dump predictions")
    ev.add_argument("--checkpoints", required=True, nargs="+", help="one checkpoint file")
    ev.add_argument("--corpus", required=True, help="corpus file")
    ev.add_argument("--out", required=True, help="output directory")
    ev.add_argument("--split", choices=("train", "valid", "test", "all"), default="test",
                    help="which split of the corpus to evaluate (default: test)")
    ev.set_defaults(func=cmd_eval)

    fu = sub.add_parser("fuse", help="margin-fuse two or more prediction files")
    fu.add_argument("--checkpoints", required=True, nargs="+",
                    help="prediction files written by eval")
    fu.add_argument("--out", required=True, help="output directory")
    fu.set_defaults(func=cmd_fuse)

    sw = sub.add_parser(
        "sweep", help="run the method x augmentation x ablation grid",
        epilog=train_keys)
    sw.add_argument("--config", required=True, help="base train config (key = value)")
    sw.add_argument("--corpus", required=True, help="corpus file")
    sw.add_argument("--out", required=True, help="output directory")
    sw.add_argument("--seed", type=int, default=None, help="override the config seed")
    sw.set_defaults(func=cmd_sweep)

    gc = sub.add_parser("gradcheck", help="verify analytic gradients against "
                                          "central finite differences")
    gc.add_argument("--seed", type=int, default=0, help="base seed for the random batches")
    gc.add_argument("--batches", type=int, default=20,
                    help="number of random batches per loss configuration")
    gc.set_defaults(func=cmd_gradcheck)
    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as one ``warning: ...`` line, without its source line."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # only the shown text changes: a caller recording warnings still records them
    format_warning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.func(args)
    except (SemimatchError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
