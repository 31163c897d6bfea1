"""Checkpoint and prediction-dump serialization.

Checkpoints are single JSON documents carrying the full train config, the
label names, and every parameter array; JSON float round-tripping is exact,
so a reloaded model is bit-identical. Prediction dumps are line-delimited
JSON, one sample per line with its true labels and both tasks' probability
vectors; they are the input format of the fusion command.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .config import train_config_from_json
from .errors import SchemaError
from .fileio import (
    CHECKPOINT_FORMAT,
    PREDICTIONS_FORMAT,
    VERSIONS,
    atomic_write_text,
    json_int,
    json_str,
    jsonl_lines,
    located,
    name_list,
    read_json,
    read_jsonl,
)
from .model import PARAM_FIELDS, TwoHeadModel
from .trainer import TrainConfig


def checkpoint_to_text(model: TwoHeadModel, config: TrainConfig,
                       emotion_names, intent_names, extras: dict | None = None) -> str:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": VERSIONS[CHECKPOINT_FORMAT][0],
        "config": asdict(config),
        "emotion_names": list(emotion_names),
        "intent_names": list(intent_names),
        "params": {f: getattr(model, f).tolist() for f in PARAM_FIELDS},
    }
    if extras:
        doc.update(extras)
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def save_checkpoint(path: str, model: TwoHeadModel, config: TrainConfig,
                    emotion_names, intent_names, extras: dict | None = None):
    atomic_write_text(path, checkpoint_to_text(model, config, emotion_names,
                                               intent_names, extras))


def load_checkpoint(path: str) -> tuple[TwoHeadModel, TrainConfig, list[str], list[str]]:
    doc = read_json(path, CHECKPOINT_FORMAT)
    with located(path):
        params = {f: np.asarray(doc["params"][f], dtype=float) for f in PARAM_FIELDS}
        model, config = TwoHeadModel(**params), train_config_from_json(doc["config"])
        emotion_names = name_list(doc.get("emotion_names"), "emotion_names")
        intent_names = name_list(doc.get("intent_names"), "intent_names")
        for task, names, width in (("emotion", emotion_names, model.n_emotion),
                                   ("intent", intent_names, model.n_intent)):
            if len(names) != width:
                raise SchemaError(f"{len(names)} {task}_names for a {width}-class {task} head")
        return model, config, emotion_names, intent_names


def _prediction_lines(sample_ids, emo_labels, int_labels,
                      emo_probs: np.ndarray, int_probs: np.ndarray):
    header = {"n_emotion": int(emo_probs.shape[1]), "n_intent": int(int_probs.shape[1])}
    rows = ({"id": str(sid), "emotion": int(emo_labels[i]), "intent": int(int_labels[i]),
             "emo_probs": list(emo_probs[i]), "int_probs": list(int_probs[i])}
            for i, sid in enumerate(sample_ids))
    return jsonl_lines(PREDICTIONS_FORMAT, header, rows)


def predictions_to_text(sample_ids, emo_labels, int_labels,
                        emo_probs: np.ndarray, int_probs: np.ndarray) -> str:
    return "".join(_prediction_lines(sample_ids, emo_labels, int_labels, emo_probs, int_probs))


def save_predictions(path: str, sample_ids, emo_labels, int_labels,
                     emo_probs, int_probs):
    atomic_write_text(path, _prediction_lines(sample_ids, emo_labels, int_labels,
                                              emo_probs, int_probs))


def _label(value, name: str, n_classes: int) -> int:
    if not 0 <= json_int(value, name) < n_classes:
        raise SchemaError(f"{name} label {value} outside [0, {n_classes})")
    return value


def _width(value, name: str) -> int:
    if json_int(value, name) < 2:
        raise SchemaError(f"{name} must be at least 2, got {value}")
    return value


def _prob_row(value, name: str, width: int) -> list[float]:
    """A probability row: ``width`` finite JSON numbers."""
    if (not isinstance(value, list) or len(value) != width
            or not set(map(type, value)) <= {int, float}):
        raise SchemaError(f"{name} must be a list of {width} JSON numbers")
    if not all(map(math.isfinite, value)):
        raise SchemaError(f"{name} holds a non-finite value")
    return value


def load_predictions(path: str):
    """Returns (ids, emo_labels, int_labels, emo_probs, int_probs)."""
    records = read_jsonl(path, PREDICTIONS_FORMAT)
    _, header = next(records)
    with located(f"{path} line 1"):
        n_emotion = _width(header["n_emotion"], "n_emotion")
        n_intent = _width(header["n_intent"], "n_intent")
    ids, emo_labels, int_labels, emo_probs, int_probs = [], [], [], [], []
    for line_no, row in records:
        with located(f"{path} line {line_no}"):
            ids.append(json_str(row["id"], "id"))
            emo_labels.append(_label(row["emotion"], "emotion", n_emotion))
            int_labels.append(_label(row["intent"], "intent", n_intent))
            emo_probs.append(_prob_row(row["emo_probs"], "emo_probs", n_emotion))
            int_probs.append(_prob_row(row["int_probs"], "int_probs", n_intent))
    if not ids:
        raise SchemaError(f"{path}: no prediction rows")
    return (ids, np.asarray(emo_labels), np.asarray(int_labels),
            np.asarray(emo_probs, dtype=float), np.asarray(int_probs, dtype=float))


__all__ = [
    "load_checkpoint", "load_predictions", "save_checkpoint", "save_predictions",
    "checkpoint_to_text", "predictions_to_text",
]
