"""Atomic writes, UTF-8 reads, and the JSON framing and field checks of
every file.

A corpus or prediction file is a header object with ``format`` and ``version``
on line 1, then one JSON object per line (blank lines skipped); a checkpoint
is one JSON document that is its own header. ``VERSIONS`` gives each format's
written version and accepted versions: corpora are written at version 3 and
read at 1, 2 and 3 (``data`` states each version's records), the other
formats at version 1 only. Every file is UTF-8, whatever the locale, and a
line-delimited file is written one line at a time. Read errors name the file,
and the 1-based line for line-delimited files.
"""

import json
import os
import tempfile
from contextlib import contextmanager

from .errors import SchemaError, SemimatchError

CORPUS_FORMAT = "semimatch-corpus"
PREDICTIONS_FORMAT = "semimatch-predictions"
CHECKPOINT_FORMAT = "semimatch-checkpoint"

# format: (the version written, the versions read)
VERSIONS = {CORPUS_FORMAT: (3, (1, 2, 3)),
            PREDICTIONS_FORMAT: (1, (1,)),
            CHECKPOINT_FORMAT: (1, (1,))}


def atomic_write_text(path: str, text):
    """Write ``text``, a string or an iterable of string pieces, as UTF-8 so
    a failure never leaves a partial file at ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def jsonl_lines(format_name: str, header: dict, records):
    """Yield the header line, ``format`` and ``version`` first, then one line
    per record, each ending in ``\\n``."""
    yield json.dumps({"format": format_name, "version": VERSIONS[format_name][0], **header}) + "\n"
    for record in records:
        yield json.dumps(record) + "\n"


@contextmanager
def located(where: str):
    """Re-raise a bad-value error from the block as a :class:`SchemaError`
    prefixed with ``where`` (a path, or a path and a line)."""
    try:
        yield
    except KeyError as exc:
        raise SchemaError(f"{where}: missing field {exc}") from exc
    except (SemimatchError, AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _check_header(where: str, doc, format_name: str) -> dict:
    """``doc`` if it is an object of format ``format_name`` at a version its
    reader accepts; otherwise a :class:`SchemaError` prefixed with ``where``."""
    if not isinstance(doc, dict) or doc.get("format") != format_name:
        raise SchemaError(f"{where}: not a {format_name} file")
    if type(doc.get("version")) is not int or doc["version"] not in VERSIONS[format_name][1]:
        raise SchemaError(f"{where}: unsupported {format_name} version {doc.get('version')!r}")
    return doc


def _decode(where: str, raw: bytes, error: type[SemimatchError] = SchemaError) -> str:
    """``raw`` as UTF-8 text, or an ``error`` prefixed with ``where``. Bytes
    never reach ``json.loads``, which would guess UTF-16 or UTF-32 from them."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8 ({exc})") from exc


def _parse(where: str, text: str):
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:   # too deeply nested, or malformed
        raise SchemaError(f"{where}: invalid JSON ({exc})") from exc


def read_text(path: str, error: type[SemimatchError] = SchemaError) -> str:
    """A whole file as UTF-8 text; otherwise an ``error`` naming the file."""
    with open(path, "rb") as handle:
        return _decode(path, handle.read(), error)


def read_json(path: str, format_name: str) -> dict:
    """Parse a single-document file and check its header."""
    return _check_header(path, _parse(path, read_text(path)), format_name)


def read_jsonl(path: str, format_name: str):
    """Yield ``(line number, object)`` for a line-delimited file, one line
    at a time: the checked header first, then each record object. Only
    ``\\n`` ends a line."""
    with open(path, "rb") as handle:
        first = handle.readline()
        if not first:
            raise SchemaError(f"{path} line 1: empty file")
        where = f"{path} line 1"
        yield 1, _check_header(where, _parse(where, _decode(where, first)), format_name)
        for line_no, raw in enumerate(handle, start=2):
            where = f"{path} line {line_no}"
            line = _decode(where, raw)
            if not line.strip():
                continue
            record = _parse(where, line)
            if not isinstance(record, dict):
                raise SchemaError(f"{where}: record must be an object")
            yield line_no, record


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; a bool or a float is an error
    naming the field ``name``."""
    if type(value) is not int:
        raise SchemaError(f"{name} must be a JSON integer, got {value!r}")
    return value


def json_str(value, name: str) -> str:
    """``value`` if it is a JSON string (a sample id)."""
    if type(value) is not str:
        raise SchemaError(f"{name} must be a JSON string, got {value!r}")
    return value


def name_list(value, name: str) -> list[str]:
    """``value`` if it is a list of strings (class names)."""
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise SchemaError(f"{name} must be a list of strings")
    return value
