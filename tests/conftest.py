import base64
import json

import numpy as np
import pytest
from hypothesis import settings

# Every run draws the same examples: no random seed, no saved failures replayed.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def random_probs(rng, n_rows: int, n_classes: int, alpha: float = 1.0) -> np.ndarray:
    """Random probability vectors; small alpha makes them more peaked."""
    return rng.dirichlet(np.full(n_classes, alpha), size=n_rows)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def frames_b64(raw) -> str:
    """A version-2 ``frames`` value: base64 of ``raw`` bytes, or of float64
    values as little-endian bytes."""
    raw = raw if isinstance(raw, bytes) else np.asarray(raw, "<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def token_width(vocab_size: int) -> int:
    """Bytes per version-3 token, as the file format states it: the smallest
    of 1, 2, 4 and 8 that holds ``vocab_size - 1``."""
    return next(width for width in (1, 2, 4, 8) if vocab_size - 1 < 256 ** width)


def tokens_b64(tokens, width: int = 1) -> str:
    """A version-3 ``tokens`` value: base64 of ``tokens`` as little-endian
    unsigned integers of ``width`` bytes, or of raw bytes."""
    raw = tokens if isinstance(tokens, bytes) else b"".join(
        int(t).to_bytes(width, "little") for t in tokens)
    return base64.b64encode(raw).decode("ascii")


def record_as_version_2(record: dict) -> dict:
    """A version-3 record restated at version 2: a token record's ``tokens``
    becomes a ``payload`` list of JSON integers, in its place."""
    if "tokens" not in record:
        return dict(record)
    raw, width = base64.b64decode(record["tokens"]), token_width(record["vocab_size"])
    payload = [int.from_bytes(raw[at:at + width], "little") for at in range(0, len(raw), width)]
    return {("payload" if key == "tokens" else key): payload if key == "tokens" else value
            for key, value in record.items()}


def as_version_2(text: str) -> str:
    """A version-3 corpus text restated at version 2, record by record."""
    header, *records = map(json.loads, text.splitlines())
    assert header["version"] == 3
    header["version"] = 2
    return "\n".join(map(json.dumps, [header] + list(map(record_as_version_2, records)))) + "\n"


def _frames_as_version_1(record):
    """A version-1 signal payload inside a version-2 file."""
    del record["frames"]
    record["payload"] = [0.5]


# (case, modality, edit of a version-2 record, text of the error on its line)
BAD_VERSION_2_RECORDS = [
    ("frames-number", "signal", lambda r: r.update(frames=1.5),
     "frames must be a base64 JSON string"),
    ("frames-list", "signal", lambda r: r.update(frames=[0.5, 1.5]),
     "frames must be a base64 JSON string"),
    ("frames-null", "signal", lambda r: r.update(frames=None),
     "frames must be a base64 JSON string"),
    ("frames-space", "signal", lambda r: r.update(frames="AAAA AAAAAAA="),
     "Only base64 data is allowed"),
    ("frames-unpadded", "signal", lambda r: r.update(frames="AAAAAAAAAAA"),
     "Incorrect padding"),
    ("frames-newline", "signal", lambda r: r.update(frames="AAAAAAAAAAA=\n"),
     "Excess data after padding"),
    ("frames-non-ascii", "signal", lambda r: r.update(frames="\u00ffAAAAAAAAAAA"),
     "only ASCII characters"),
    ("frames-0-bytes", "signal", lambda r: r.update(frames=""),
     "signal must be a non-empty 1-D frame array"),
    ("frames-12-bytes", "signal", lambda r: r.update(frames=frames_b64(bytes(12))),
     "frames holds 12 bytes, not a multiple of 8"),
    ("frames-nan", "signal", lambda r: r.update(frames=frames_b64([0.5, np.nan])),
     "signal frames must be finite"),
    ("frames-nan-bits", "signal",
     lambda r: r.update(frames=frames_b64((0x7FF0000000000001).to_bytes(8, "little"))),
     "signal frames must be finite"),
    ("frames-inf", "signal", lambda r: r.update(frames=frames_b64([np.inf])),
     "signal frames must be finite"),
    ("frames-minus-inf", "signal", lambda r: r.update(frames=frames_b64([-np.inf])),
     "signal frames must be finite"),
    ("signal-with-payload", "signal", lambda r: r.update(payload=[0.5]),
     "unknown field(s) ['payload'] in a version-2 signal record"),
    ("signal-version-1-payload", "signal", _frames_as_version_1,
     "unknown field(s) ['payload'] in a version-2 signal record"),
    ("signal-unknown-key", "signal", lambda r: r.update(extra=1),
     "unknown field(s) ['extra'] in a version-2 signal record"),
    ("signal-no-frames", "signal", lambda r: r.pop("frames"), "missing field 'frames'"),
    ("tokens-with-frames", "tokens", lambda r: r.update(frames=frames_b64([0.5])),
     "unknown field(s) ['frames'] in a version-2 tokens record"),
]


def _tokens_as_version_2(record):
    """A version-2 token payload inside a version-3 file."""
    del record["tokens"]
    record["payload"] = [1, 2]


# The version-2 cases, which fault alike at version 3, then the faults of
# version-3 token records: (case, modality, edit of a version-3 record, text
# of the error on its line). The written records have vocab_size 30, so each
# token is one byte.
BAD_VERSION_3_RECORDS = [
    (case, modality, edit, needle.replace("version-2", "version-3"))
    for case, modality, edit, needle in BAD_VERSION_2_RECORDS
] + [
    ("tokens-number", "tokens", lambda r: r.update(tokens=7),
     "tokens must be a base64 JSON string"),
    ("tokens-list", "tokens", lambda r: r.update(tokens=[1, 2]),
     "tokens must be a base64 JSON string"),
    ("tokens-null", "tokens", lambda r: r.update(tokens=None),
     "tokens must be a base64 JSON string"),
    ("tokens-space", "tokens", lambda r: r.update(tokens="AQ IDBA=="),
     "Only base64 data is allowed"),
    ("tokens-unpadded", "tokens", lambda r: r.update(tokens="AQI"), "Incorrect padding"),
    ("tokens-newline", "tokens", lambda r: r.update(tokens="AQI=\n"),
     "Excess data after padding"),
    ("tokens-leading-padding", "tokens", lambda r: r.update(tokens="=AQI"),
     "Leading padding not allowed"),
    ("tokens-non-ascii", "tokens", lambda r: r.update(tokens="\u00ffAQI="),
     "only ASCII characters"),
    ("tokens-0-bytes", "tokens", lambda r: r.update(tokens=""),
     "token sequence must be non-empty and 1-D"),
    ("tokens-3-bytes-at-width-2", "tokens",
     lambda r: r.update(vocab_size=257, tokens=tokens_b64(bytes(3))),
     "tokens holds 3 bytes, not a multiple of 2"),
    ("tokens-6-bytes-at-width-4", "tokens",
     lambda r: r.update(vocab_size=65537, tokens=tokens_b64(bytes(6))),
     "tokens holds 6 bytes, not a multiple of 4"),
    ("tokens-12-bytes-at-width-8", "tokens",
     lambda r: r.update(vocab_size=2 ** 32 + 1, tokens=tokens_b64(bytes(12))),
     "tokens holds 12 bytes, not a multiple of 8"),
    ("tokens-at-vocab-size", "tokens", lambda r: r.update(tokens=tokens_b64([0, 30])),
     "token index outside the vocabulary"),
    ("tokens-255", "tokens", lambda r: r.update(tokens=tokens_b64([255, 0])),
     "token index outside the vocabulary"),
    ("tokens-at-vocab-size-at-width-2", "tokens",
     lambda r: r.update(vocab_size=300, tokens=tokens_b64([299, 300], 2)),
     "token index outside the vocabulary"),
    ("tokens-top-bit-at-width-8", "tokens",
     lambda r: r.update(vocab_size=2 ** 40, tokens=tokens_b64([2 ** 63], 8)),
     "token index outside the vocabulary"),
    ("tokens-all-bits-at-width-8", "tokens",
     lambda r: r.update(vocab_size=2 ** 62, tokens=tokens_b64([2 ** 64 - 1], 8)),
     "token index outside the vocabulary"),
    ("tokens-vocab-2**63", "tokens", lambda r: r.update(vocab_size=2 ** 63),
     "vocab_size must be an integer"),
    ("tokens-vocab-2**64-bad-tokens", "tokens",
     lambda r: r.update(vocab_size=2 ** 64, tokens="AQI"), "vocab_size must be an integer"),
    ("tokens-vocab-zero", "tokens", lambda r: r.update(vocab_size=0),
     "vocab_size must be positive"),
    ("tokens-vocab-float", "tokens", lambda r: r.update(vocab_size=30.0),
     "vocab_size must be a JSON integer"),
    ("tokens-vocab-not-the-table's", "tokens", lambda r: r.update(vocab_size=31),
     "vocab_size differs from the embedding table"),
    ("tokens-with-payload", "tokens", lambda r: r.update(payload=[1]),
     "unknown field(s) ['payload'] in a version-3 tokens record"),
    ("tokens-version-2-payload", "tokens", _tokens_as_version_2,
     "unknown field(s) ['payload'] in a version-3 tokens record"),
    ("tokens-unknown-key", "tokens", lambda r: r.update(extra=1),
     "unknown field(s) ['extra'] in a version-3 tokens record"),
    ("tokens-no-tokens", "tokens", lambda r: r.pop("tokens"), "missing field 'tokens'"),
    ("signal-with-tokens", "signal", lambda r: r.update(tokens=tokens_b64([1])),
     "unknown field(s) ['tokens'] in a version-3 signal record"),
]
