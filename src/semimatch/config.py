"""Plain-text ``key = value`` config files for training and data generation.

One assignment per line; blank lines and ``#`` comments are ignored;
unknown keys are errors. The keys, and how each value is parsed, are
derived from the fields of :class:`TrainConfig` / :class:`GeneratorConfig`
and their annotations. List-valued generator fields use comma-separated
entries. A retired train key is read only at its fixed value, and dropped.
"""

from __future__ import annotations

from dataclasses import fields

from . import augment
from .data import GeneratorConfig
from .errors import ConfigError, SchemaError
from .fileio import read_text
from .trainer import TrainConfig

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _to_bool(value: str) -> bool:
    low = value.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"expected a boolean, got '{value}'")


def _to_int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got '{value}'") from None


def _to_float(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got '{value}'") from None


def _to_int_list(value: str) -> tuple[int, ...]:
    return tuple(_to_int(part.strip()) for part in value.split(",") if part.strip())


def _to_str_list(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def parse_key_values(text: str) -> dict[str, tuple[int, str]]:
    """Raw key -> (line number, value) mapping; duplicate keys are errors."""
    mapping: dict[str, tuple[int, str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in mapping:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        mapping[key] = line_no, value
    return mapping


# dataclass field annotation -> (parser of its config-file value, the JSON
# value types a checkpoint may store for it, their name); the list-valued
# generator fields never go into a checkpoint
_FIELD_TYPES = {
    "str": (str, (str,), "a string"),
    "str | None": (str, (str, type(None)), "a string or null"),
    "bool": (_to_bool, (bool,), "a boolean"),
    "int": (_to_int, (int,), "an integer"),
    "float": (_to_float, (int, float), "a number"),
    "tuple[int, ...]": (_to_int_list, None, None),
    "tuple[str, ...] | None": (_to_str_list, None, None),
}


def _parsers(config_class) -> dict:
    return {f.name: _FIELD_TYPES[f.type][0] for f in fields(config_class)}


_TRAIN_PARSERS = _parsers(TrainConfig)
_GENERATOR_PARSERS = _parsers(GeneratorConfig)
TRAIN_CONFIG_KEYS = tuple(_TRAIN_PARSERS)
GENERATOR_CONFIG_KEYS = tuple(_GENERATOR_PARSERS)
_TRAIN_JSON_TYPES = {f.name: _FIELD_TYPES[f.type][1:] for f in fields(TrainConfig)}

# keys TrainConfig no longer has; a file may still set each, to its fixed value (_retire)
RETIRED_TRAIN_KEYS = ("strong_aug_kind", "token_max_len", "flip_max_seconds",
                      "time_mask_max_frames", "pitch_max_steps", "swap_count", "delete_prob",
                      "synonym_prob", "contextual_prob", "contextual_neighbors")


def _retire(values: dict, where, form) -> TrainConfig:
    """``TrainConfig`` of ``values`` without the retired keys, each of which must hold
    the value every run used, equal in ``form``: ``augment.<KEY>``, or for
    strong_aug_kind the modality's strong operator. Else a ConfigError at ``where(key)``."""
    config = TrainConfig(**{k: v for k, v in values.items() if k not in RETIRED_TRAIN_KEYS})
    for key in (key for key in values if key in RETIRED_TRAIN_KEYS):
        fixed = (augment.strong_kind(config.modality) if key == "strong_aug_kind"
                 else getattr(augment, key.upper()))
        if form(values[key]) != form(fixed):
            raise ConfigError(f"{where(key)}retired key '{key}' is fixed at {form(fixed)}, "
                              f"got {form(values[key])}")
    return config


def train_config_from_json(values) -> TrainConfig:
    """A :class:`TrainConfig` from a JSON object, as a checkpoint stores it.
    Each value must have its field's JSON type; a bool is not a number."""
    if not isinstance(values, dict):
        raise SchemaError("config must be a JSON object")
    for key, value in values.items():
        if key in RETIRED_TRAIN_KEYS:   # _retire compares its repr, so its type too
            continue
        if key not in _TRAIN_JSON_TYPES:
            raise SchemaError(f"unknown train config key '{key}'")
        types, name = _TRAIN_JSON_TYPES[key]
        if type(value) not in types:
            raise SchemaError(f"config key '{key}': expected {name}, got {value!r}")
    return _retire(values, lambda key: "", repr)


def _build(mapping: dict[str, tuple[int, str]], parsers: dict, what: str) -> dict:
    built = {}
    for key, (line_no, raw) in mapping.items():
        if key not in parsers:
            raise ConfigError(f"line {line_no}: unknown {what} config key '{key}'")
        try:
            built[key] = parsers[key](raw)
        except ConfigError as exc:
            raise ConfigError(f"line {line_no}: key '{key}': {exc}") from None
    return built


def train_config_from_text(text: str, **overrides) -> TrainConfig:
    mapping = parse_key_values(text)   # a retired key's text is compared as written
    built = _build(mapping, _TRAIN_PARSERS | dict.fromkeys(RETIRED_TRAIN_KEYS, str), "train")
    built.update(overrides)
    return _retire(built, lambda key: f"line {mapping[key][0]}: ", str)


def generator_config_from_text(text: str, **overrides) -> GeneratorConfig:
    built = _build(parse_key_values(text), _GENERATOR_PARSERS, "generator")
    built.update(overrides)
    for required in ("emotion_counts", "intent_counts"):
        if required not in built:
            raise ConfigError(f"generator config needs '{required}'")
    return GeneratorConfig(**built)


def _from_file(path: str, from_text, overrides: dict):
    """``from_text`` of the file's text; each of its errors starts with the path."""
    text = read_text(path, ConfigError)
    try:
        return from_text(text, **overrides)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_train_config(path: str, **overrides) -> TrainConfig:
    return _from_file(path, train_config_from_text, overrides)


def load_generator_config(path: str, **overrides) -> GeneratorConfig:
    return _from_file(path, generator_config_from_text, overrides)


__all__ = [
    "GENERATOR_CONFIG_KEYS", "RETIRED_TRAIN_KEYS", "TRAIN_CONFIG_KEYS",
    "generator_config_from_text", "load_generator_config", "load_train_config", "parse_key_values",
    "train_config_from_json", "train_config_from_text",
]
