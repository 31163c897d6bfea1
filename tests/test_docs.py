"""The README's "Config keys" section names every config field, and each
default it writes as a literal, such as `epochs` (30), is the dataclass's."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from semimatch.data import GeneratorConfig
from semimatch.trainer import TrainConfig

README = Path(__file__).resolve().parent.parent / "README.md"
# one or more backticked keys joined by " / ", then a parenthesis:
# `tau` (0.95), `train_frac` / `valid_frac` (0.7 / 0.15), `a` / `b` (0.5 each)
KEYS_AND_DEFAULT = re.compile(r"((?:`\w+`\s*/\s*)*`\w+`)\s*\(([^()]*)\)")


def config_keys_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("### Config keys")
    return text[start:text.index("\n### ", start)]


def literal(text: str):
    """The value a written default stands for, or None if it is prose."""
    if text in ("true", "false"):
        return text == "true"
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text if re.fullmatch(r"[a-z_]+", text) else None


def written_defaults(section: str) -> list[tuple[str, object]]:
    """``(key, value)`` for every literal default the section writes. A
    default is the text before any comma; "v each" applies v to every key
    of a group, and "v1 / v2" gives a group's keys their values in turn."""
    out = []
    for keys, default in KEYS_AND_DEFAULT.findall(section):
        keys = re.findall(r"`(\w+)`", keys)
        default = " ".join(default.split(",")[0].split())
        if default.endswith(" each"):
            values = [default.removesuffix(" each")] * len(keys)
        else:
            values = [v.strip() for v in default.split("/")]
        if len(values) == len(keys):
            out += [(key, literal(value)) for key, value in zip(keys, values)
                    if literal(value) is not None]
    return out


@pytest.mark.parametrize("config", [TrainConfig, GeneratorConfig])
def test_every_field_named(config):
    section = config_keys_section()
    missing = [f.name for f in fields(config) if f"`{f.name}`" not in section]
    assert not missing


def test_written_defaults_match_the_dataclasses():
    defaults = {f.name: f.default for config in (TrainConfig, GeneratorConfig)
                for f in fields(config)}
    written = [(key, value) for key, value in written_defaults(config_keys_section())
               if key in defaults]
    assert len(written) >= 24   # the parser still finds every default written today
    wrong = [(key, value, defaults[key]) for key, value in written if value != defaults[key]]
    assert not wrong
