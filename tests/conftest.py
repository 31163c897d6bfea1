import base64

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
