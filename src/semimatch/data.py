"""Corpus model, line-delimited serialization, splitting, synthesis, batching.

A corpus holds labelled samples (each carrying both task labels), unlabelled
samples (carrying neither), the class name lists, and the token-side
resources (synonym lexicon, embedding table). The on-disk format is one
JSON object per line: a header with the shared resources first, then one
record per sample. The embedding table is stored as seed + dimensions and
regenerated on load. Version 3, the one written, stores signal frames under
``frames`` as one strict base64 string of little-endian float64 bytes, and
tokens under ``tokens`` as one of little-endian unsigned integers, each the
smallest of 1, 2, 4 or 8 bytes that holds ``vocab_size - 1``. Versions 1 and
2, still read, hold tokens as a JSON integer list under ``payload``; version
1 holds signal frames so too, as JSON numbers.

The synthetic generator builds class-conditional payloads: piecewise
amplitude signatures plus unit noise for signals, class-tilted unigram
token distributions for text. The two label streams are paired through a
partial shuffle, which keeps both per-class margins exact at every
correlation level: correlation 1 leaves the sorted streams aligned
(maximal coupling), correlation 0 permutes one stream uniformly.

The generator and the loader build samples in blocks of ``_BLOCK``: a
block's payloads of each modality are views of one array, which the
``SignalSequence`` / ``TokenSequence`` checks pass over once. The loader
parses a block's records without those checks; when anything fails in the
block, or later in the file, it checks the block's records one by one, as
a lone record is checked, so the error names the first faulty line.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .augment import (GROUP_SIZE, MODALITIES, EmbeddingTable, SignalSequence, SynonymLexicon,
                      TokenSequence, check_sizes)
from .errors import (ConfigError, ContractError, Rule, SchemaError, require, require_finite_fields,
                     require_fits)
from .fileio import (
    CORPUS_FORMAT,
    atomic_write_text,
    json_int,
    json_str,
    jsonl_lines,
    located,
    name_list,
    read_jsonl,
)


@dataclass
class Sample:
    """One instance: signal or token payload, both labels or neither."""

    id: str
    modality: str
    payload: SignalSequence | TokenSequence
    emotion: int | None = None
    intent: int | None = None

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise SchemaError(f"sample {self.id}: unknown modality '{self.modality}'")
        payload_type = SignalSequence if self.modality == "signal" else TokenSequence
        if not isinstance(self.payload, payload_type):
            raise SchemaError(f"sample {self.id}: a {self.modality} sample needs a "
                              f"{payload_type.__name__} payload, got {type(self.payload).__name__}")
        if (self.emotion is None) != (self.intent is None):
            raise SchemaError(
                f"sample {self.id}: labelled samples need both labels, unlabelled neither")

    @property
    def is_labelled(self) -> bool:
        return self.emotion is not None


@dataclass
class Corpus:
    labelled: list[Sample]
    unlabelled: list[Sample]
    emotion_names: list[str]
    intent_names: list[str]
    lexicon: SynonymLexicon | None = None
    embedding: EmbeddingTable | None = None
    source: str | None = field(default=None, compare=False, repr=False)  # file read from

    def __post_init__(self):
        if len(self.emotion_names) < 2 or len(self.intent_names) < 2:
            raise SchemaError("each task needs at least two classes")
        seen = set()
        for sample in self.labelled + self.unlabelled:
            if sample.id in seen:
                raise SchemaError(f"duplicate sample id '{sample.id}'")
            seen.add(sample.id)
        for sample in self.labelled:
            if not 0 <= sample.emotion < len(self.emotion_names):
                raise SchemaError(f"sample {sample.id}: emotion label out of range")
            if not 0 <= sample.intent < len(self.intent_names):
                raise SchemaError(f"sample {sample.id}: intent label out of range")

    @property
    def name(self) -> str:
        """How errors name the corpus: ``corpus <file>`` when read from one."""
        return "corpus" if self.source is None else f"corpus {self.source}"

    @property
    def n_emotion(self) -> int:
        return len(self.emotion_names)

    @property
    def n_intent(self) -> int:
        return len(self.intent_names)


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid/test fractions (summing to 1) plus the shuffle seed."""

    train: float
    valid: float
    test: float = 0.0
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train, self.valid, self.test)
        require("split fractions", Rule.UNIT, *fracs)
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")
        require("the train fraction", Rule.POSITIVE, self.train)
        require("seed", Rule.NON_NEGATIVE, self.seed)


def _largest_remainder(n: int, fractions) -> list[int]:
    """Integer allocation of n by fractions; ties go to the earlier split."""
    targets = [n * f for f in fractions]
    base = [int(np.floor(t)) for t in targets]
    leftovers = n - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: (-(targets[i] - base[i]), i))
    for i in order[:leftovers]:
        base[i] += 1
    return base


def stratified_split(samples, spec: SplitSpec):
    """Partition labelled samples so each (emotion, intent) joint class lands
    within one sample of its fraction-proportional share in every split."""
    samples = list(samples)
    if any(not s.is_labelled for s in samples):
        raise ContractError("stratified_split requires fully labelled samples")
    groups: dict[tuple[int, int], list[Sample]] = {}
    for sample in samples:
        groups.setdefault((sample.emotion, sample.intent), []).append(sample)

    fractions = (spec.train, spec.valid, spec.test)
    n_positive = sum(1 for f in fractions if f > 0)
    rng = np.random.default_rng([int(spec.seed), 11003])
    splits: tuple[list[Sample], ...] = ([], [], [])
    tiny = []   # joint classes with fewer samples than splits, all placed in train
    for key in sorted(groups):
        members = groups[key]
        order = rng.permutation(len(members))
        shuffled = [members[i] for i in order]
        if len(members) < n_positive:
            tiny.append(f"{key}: {len(members)}")
            splits[0].extend(shuffled)
            continue
        counts = _largest_remainder(len(members), fractions)
        at = 0
        for split, count in zip(splits, counts):
            split.extend(shuffled[at:at + count])
            at += count
    if tiny:
        warnings.warn(
            f"joint classes with fewer samples than splits ({n_positive}), "
            f"all placed in train: {', '.join(tiny)}", stacklevel=2)
    return splits


@dataclass
class GeneratorConfig:
    """Recipe for a synthetic two-task corpus.

    ``emotion_counts`` and ``intent_counts`` are the labelled per-class
    counts; their sums must agree. ``correlation`` couples the two label
    assignments (0 independent, 1 maximal), ``separation`` scales class
    evidence relative to unit noise, ``modality_mix`` is the fraction of
    signal samples (the rest are token sequences).
    """

    emotion_counts: tuple[int, ...]
    intent_counts: tuple[int, ...]
    unlabelled_count: int = 0
    min_len: int = 160
    max_len: int = 320
    separation: float = 1.0
    correlation: float = 0.3
    modality_mix: float = 1.0
    sample_rate: int = 16000
    vocab_size: int = 30
    embedding_dim: int = 16
    seed: int = 0
    emotion_names: tuple[str, ...] | None = None
    intent_names: tuple[str, ...] | None = None

    def __post_init__(self):
        require_finite_fields(self)
        self.emotion_counts = tuple(int(c) for c in self.emotion_counts)
        self.intent_counts = tuple(int(c) for c in self.intent_counts)
        if len(self.emotion_counts) < 2 or len(self.intent_counts) < 2:
            raise ConfigError("each task needs at least two classes")
        require("per-class counts", Rule.POSITIVE, *self.emotion_counts, *self.intent_counts)
        total = sum(self.emotion_counts)
        if total != sum(self.intent_counts):
            raise ConfigError("emotion and intent counts must sum to the same total")
        require("unlabelled_count", Rule.NON_NEGATIVE, self.unlabelled_count)
        if not 1 <= self.min_len <= self.max_len:
            raise ConfigError("need 1 <= min_len <= max_len")
        # a payload holds up to max_len float64 frames or int64 tokens, and each
        # task's int64 label array an entry per labelled sample
        require_fits(f"max_len {self.max_len}", "a float64 payload", self.max_len)
        require_fits(f"emotion_counts summing to {total}", "int64 label arrays", total)
        require("correlation", Rule.UNIT, self.correlation)
        require("modality_mix", Rule.UNIT, self.modality_mix)
        require("separation", Rule.NON_NEGATIVE, self.separation)
        require("seed", Rule.NON_NEGATIVE, self.seed)
        for names, counts in (("emotion_names", "emotion_counts"),
                              ("intent_names", "intent_counts")):
            given, n_classes = getattr(self, names), len(getattr(self, counts))
            if given is not None and (not isinstance(given, (list, tuple))
                                      or not all(isinstance(name, str) for name in given)):
                raise ConfigError(f"{names} must be a list or tuple of strings, got {given!r}")
            if given is not None and len(given) != n_classes:
                raise ConfigError(f"{names} must name each of the {n_classes} classes "
                                  f"of {counts}, got {list(given)}")
        for key, least in (("sample_rate", 1), ("vocab_size", 2), ("embedding_dim", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
            if getattr(self, key) >= 2 ** 63:   # a payload size is held in an int64
                raise ConfigError(f"{key} must be below 2**63, got {getattr(self, key)}")
        # the float64 token tables have a row per class, the embedding table
        # (built for token samples) one per token
        classes = max(len(self.emotion_counts), len(self.intent_counts))
        require_fits(f"vocab_size {self.vocab_size}", "float64 token tables",
                     classes, self.vocab_size)
        if self.modality_mix < 1.0:
            require_fits(f"embedding_dim {self.embedding_dim}", "a float64 embedding table",
                         self.vocab_size, self.embedding_dim)


_N_SEGMENTS = 8
_BLOCK = 64   # samples generated or loaded, then checked, together
_SHAPE_FRAMES = 1 << 16   # frames of per-length segment indices and textures kept (1 MB)


def _token_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF by which ``Generator.choice(len(probs), p=probs)`` draws."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_tokens(cdf: np.ndarray, size: int, rng) -> np.ndarray:
    """``size`` tokens from ``_token_cdf(probs)``, as ``rng.choice(len(probs),
    size=size, p=probs)`` draws them: the same tokens, dtype and generator state."""
    return cdf.searchsorted(rng.random(size), side="right")


class _PayloadFactory:
    """Class-conditional payload draws shared by labelled/unlabelled. Each
    (emotion, intent) class's table (its signal levels or its token CDF) is
    built once, on first use; so is each length's segment index and texture,
    until they hold ``_SHAPE_FRAMES`` frames."""

    def __init__(self, config: GeneratorConfig):
        self.config = config
        rng = np.random.default_rng([int(config.seed), 20001])
        n_emo, n_int = len(config.emotion_counts), len(config.intent_counts)
        self.signal_emo = rng.standard_normal((n_emo, _N_SEGMENTS))
        self.signal_int = rng.standard_normal((n_int, _N_SEGMENTS))
        self.token_emo = rng.standard_normal((n_emo, config.vocab_size))
        self.token_int = rng.standard_normal((n_int, config.vocab_size))
        self._tables: dict[tuple, np.ndarray] = {}
        self._shapes: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _length(self, rng):
        return int(rng.integers(self.config.min_len, self.config.max_len + 1))

    def _table(self, modality: str, emotion: int, intent: int) -> np.ndarray:
        key = (modality, emotion, intent)
        if (table := self._tables.get(key)) is None:
            separation = self.config.separation
            with np.errstate(over="ignore", invalid="ignore"):   # checked below
                if modality == "signal":
                    table = separation * (self.signal_emo[emotion] + self.signal_int[intent])
                else:
                    logits = separation * (self.token_emo[emotion] + self.token_int[intent])
                    probs = np.exp(logits - logits.max())
                    probs /= probs.sum()
                    table = _token_cdf(probs)
            if not np.isfinite(table).all():
                raise ConfigError(f"separation {separation!r} is too large: the {modality} "
                                  f"table of class ({emotion}, {intent}) is not finite")
            self._tables[key] = table
        return table

    def signal(self, emotion: int, intent: int, rng) -> np.ndarray:
        n = self._length(rng)
        if (shape := self._shapes.get(n)) is None:
            t = np.arange(n)
            shape = ((t * _N_SEGMENTS) // n, 0.2 * np.sin(2.0 * np.pi * 4.0 * t / n))
            if sum(self._shapes) + n <= _SHAPE_FRAMES:
                self._shapes[n] = shape
        seg, texture = shape
        return self._table("signal", emotion, intent)[seg] + texture + rng.standard_normal(n)

    def tokens(self, emotion: int, intent: int, rng) -> np.ndarray:
        cdf = self._table("tokens", emotion, intent)
        return _draw_tokens(cdf, self._length(rng), rng)


def _samples(parts) -> list[Sample]:
    """Samples from ``(id, modality, values, size, emotion, intent)`` parts.
    The payloads of each modality are views of one array, checked once."""
    payloads = {}
    for modality, seq_type in zip(MODALITIES, (SignalSequence, TokenSequence)):
        if mine := [part for part in parts if part[1] == modality]:
            payloads[modality] = iter(seq_type.from_concatenated(
                np.concatenate([part[2] for part in mine]),
                [len(part[2]) for part in mine], [part[3] for part in mine]))
    return [Sample(id=sample_id, modality=modality, payload=next(payloads[modality]),
                   emotion=emotion, intent=intent)
            for sample_id, modality, _, _, emotion, intent in parts]


def _paired_labels(config: GeneratorConfig, rng) -> list[tuple[int, int]]:
    """Pair the two sorted label streams through a partial shuffle.

    Both per-class margins are exact by construction; the shuffled subset
    size (1 - correlation) of the total tunes the coupling strength.
    """
    emo = np.repeat(np.arange(len(config.emotion_counts)), config.emotion_counts)
    intent = np.repeat(np.arange(len(config.intent_counts)), config.intent_counts)
    n = len(emo)
    n_shuffle = int(round((1.0 - config.correlation) * n))
    if n_shuffle > 1:
        where = rng.choice(n, size=n_shuffle, replace=False)
        intent[where] = intent[where[rng.permutation(n_shuffle)]]
    order = rng.permutation(n)
    return [(int(emo[i]), int(intent[i])) for i in order]


def synthesize_corpus(config: GeneratorConfig) -> Corpus:
    """Deterministically generate a corpus matching the requested counts."""
    factory = _PayloadFactory(config)
    pair_rng = np.random.default_rng([int(config.seed), 20002])
    payload_rng = np.random.default_rng([int(config.seed), 20003])
    pairs = _paired_labels(config, pair_rng)

    lexicon = embedding = None
    if config.modality_mix < 1.0:
        lexicon = SynonymLexicon.from_groups(config.vocab_size)
        embedding = EmbeddingTable.from_seed(config.vocab_size, config.embedding_dim, config.seed)

    samples, block = [], []
    for i in range(len(pairs) + config.unlabelled_count):
        labelled = i < len(pairs)   # an unlabelled sample draws its class first
        emotion, intent = pairs[i if labelled else int(payload_rng.integers(0, len(pairs)))]
        sample_id = f"lab-{i:06d}" if labelled else f"unl-{i - len(pairs):06d}"
        if payload_rng.random() < config.modality_mix:
            part = ("signal", factory.signal(emotion, intent, payload_rng), config.sample_rate)
        else:
            part = ("tokens", factory.tokens(emotion, intent, payload_rng), config.vocab_size)
        block.append((sample_id, *part, *((emotion, intent) if labelled else (None, None))))
        if len(block) == _BLOCK:
            samples += _samples(block)
            block = []
    samples += _samples(block)

    emotion_names = list(config.emotion_names or
                         (f"emotion_{i}" for i in range(len(config.emotion_counts))))
    intent_names = list(config.intent_names or
                        (f"intent_{i}" for i in range(len(config.intent_counts))))
    return Corpus(labelled=samples[:len(pairs)], unlabelled=samples[len(pairs):],
                  emotion_names=emotion_names, intent_names=intent_names,
                  lexicon=lexicon, embedding=embedding)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _token_width(vocab_size: int) -> int:
    """Bytes per version-3 token: the smallest of 1, 2, 4 or 8 that holds ``vocab_size - 1``."""
    return next(width for width in (1, 2, 4, 8) if vocab_size - 1 < 1 << 8 * width)


def _base64(values: np.ndarray) -> str:
    return binascii.b2a_base64(values.tobytes(), newline=False).decode("ascii")


def _sample_record(sample: Sample) -> dict:
    record: dict = {"id": sample.id, "modality": sample.modality}
    if sample.modality == "signal":
        record["frames"] = _base64(sample.payload.frames.astype("<f8"))
        record["sample_rate"] = sample.payload.sample_rate
    else:
        vocab_size = sample.payload.vocab_size
        record["tokens"] = _base64(sample.payload.tokens.astype(f"<u{_token_width(vocab_size)}"))
        record["vocab_size"] = vocab_size
    if sample.is_labelled:
        record["emotion"] = sample.emotion
        record["intent"] = sample.intent
    return record


def _corpus_lines(corpus: Corpus):
    """The line-delimited format's lines, header first. The header is built,
    and checked, before the first line is asked for."""
    header: dict = {
        "emotion_names": corpus.emotion_names,
        "intent_names": corpus.intent_names,
        "lexicon": None,
        "embedding": None,
    }
    if corpus.lexicon is not None:
        header["lexicon"] = {str(k): list(v) for k, v in sorted(corpus.lexicon.mapping.items())}
    if corpus.embedding is not None:
        if corpus.embedding.seed is None:
            raise ConfigError("only seed-built embedding tables can be serialized")
        header["embedding"] = {
            "vocab_size": corpus.embedding.vocab_size,
            "dim": corpus.embedding.dim,
            "seed": corpus.embedding.seed,
            "group_size": corpus.embedding.group_size,
        }
    return jsonl_lines(CORPUS_FORMAT, header,
                       map(_sample_record, corpus.labelled + corpus.unlabelled))


def corpus_to_text(corpus: Corpus) -> str:
    """Serialize to the line-delimited format (header line first)."""
    return "".join(_corpus_lines(corpus))


def save_corpus(corpus: Corpus, path: str):
    atomic_write_text(path, _corpus_lines(corpus))


def corpus_fingerprint(corpus: Corpus) -> str:
    """The sha256 hex digest of a corpus's decoded content: the class names,
    the lexicon, the embedding table's metadata and vectors, and each
    sample's id, modality, labels, size and payload values, as fixed-width
    ``<f8`` / ``<i8`` bytes. File bytes are never hashed, so every format
    version of one corpus gives one fingerprint; a numpy integer hashes as
    the Python int it equals."""
    embedding = corpus.embedding
    sha = hashlib.sha256(json.dumps([
        corpus.emotion_names, corpus.intent_names,
        corpus.lexicon and sorted(corpus.lexicon.mapping.items()),
        embedding and [embedding.vocab_size, embedding.dim, embedding.seed,
                       embedding.group_size]], default=int).encode())
    if embedding is not None:
        sha.update(embedding.vectors.astype("<f8").tobytes())
    for sample in corpus.labelled + corpus.unlabelled:
        payload = sample.payload
        values, size = ((payload.frames.astype("<f8"), payload.sample_rate)
                        if sample.modality == "signal"
                        else (payload.tokens.astype("<i8"), payload.vocab_size))
        sha.update(json.dumps([sample.id, sample.modality, sample.emotion, sample.intent,
                               size, len(values)], default=int).encode())
        sha.update(values.tobytes())
    return sha.hexdigest()


def _lexicon_token(key: str) -> int:
    """A lexicon key: the decimal form of a token index, as the writer gives it."""
    if key != str(token := int(key)):
        raise SchemaError(f"lexicon key {key!r} is not a decimal token index")
    return token


# (version, modality): the keys a record may carry besides the two labels
_RECORD_KEYS = {
    (1, "signal"): {"id", "modality", "payload", "sample_rate"},
    (2, "signal"): {"id", "modality", "frames", "sample_rate"},
    (3, "signal"): {"id", "modality", "frames", "sample_rate"},
    (1, "tokens"): {"id", "modality", "payload", "vocab_size"},
    (2, "tokens"): {"id", "modality", "payload", "vocab_size"},
    (3, "tokens"): {"id", "modality", "tokens", "vocab_size"},
}


def _decoded(name: str, value, dtype: str) -> np.ndarray:
    """The base64 field ``name`` (signal frames from version 2, tokens from
    version 3): strict base64 of little-endian ``dtype`` values, as a
    read-only view of the decoded bytes."""
    if type(value) is not str:
        raise SchemaError(f"{name} must be a base64 JSON string")
    try:
        raw = binascii.a2b_base64(value, strict_mode=True)
    except ValueError as exc:   # binascii.Error, or a non-ASCII string
        raise SchemaError(f"{name}: {exc}") from exc
    if len(raw) % (width := np.dtype(dtype).itemsize):
        raise SchemaError(f"{name} holds {len(raw)} bytes, not a multiple of {width}")
    return np.frombuffer(raw, dtype)


def _record_parts(record: dict, embedding: EmbeddingTable | None, version: int,
                  alone: bool) -> tuple:
    """A record's ``(id, modality, values, size, emotion, intent)``, its fields
    checked in a fixed order. The payload checks run in that order too when
    the record is checked ``alone``; a block runs them once, in ``_samples``."""
    modality = record["modality"]
    has_emo, has_int = "emotion" in record, "intent" in record
    if has_emo != has_int:
        raise SchemaError("record carries exactly one of the two labels")
    if modality not in MODALITIES:
        raise SchemaError(f"unknown modality '{modality}'")
    if unknown := record.keys() - _RECORD_KEYS[version, modality] - {"emotion", "intent"}:
        raise SchemaError(f"unknown field(s) {sorted(unknown)} in a version-{version} "
                          f"{modality} record")
    if modality == "signal":
        if version == 1 and not set(map(type, record["payload"])) <= {int, float}:
            raise SchemaError("signal payload must be a list of JSON numbers")
        values = (_decoded("frames", record["frames"], "<f8") if version >= 2
                  else np.asarray(record["payload"], dtype=float))
        size = json_int(record["sample_rate"], "sample_rate")
        if alone:
            SignalSequence(frames=values, sample_rate=size)
    else:
        if version < 3:
            if not set(map(type, record["payload"])) <= {int}:
                raise SchemaError("token payload must be a list of JSON integers")
            values = np.asarray(record["payload"], dtype=int)
        size = json_int(record["vocab_size"], "vocab_size")
        if version == 3:   # the width of its tokens follows from its vocab_size
            if not 0 < size < 2 ** 63:
                check_sizes("vocab_size", size)   # raises the size rule's own message
            values = _decoded("tokens", record["tokens"], f"<u{_token_width(size)}")
        if alone:
            TokenSequence(tokens=values, vocab_size=size)
        if embedding is not None and size != embedding.vocab_size:
            raise SchemaError("vocab_size differs from the embedding table")
    return (json_str(record["id"], "id"), modality, values, size,
            json_int(record["emotion"], "emotion") if has_emo else None,
            json_int(record["intent"], "intent") if has_int else None)


def load_corpus(path: str) -> Corpus:
    """Parse a corpus file, one block of records at a time; errors name the
    file and the offending 1-based line.

    A fault anywhere in a block, or in the file after it, is reported as the
    first record that fails checked alone, so errors keep their file order."""
    records = read_jsonl(path, CORPUS_FORMAT)
    _, header = next(records)
    version = header["version"]
    lexicon = embedding = None
    with located(f"{path} line 1"):
        if header.get("lexicon"):
            lexicon = SynonymLexicon(mapping={
                _lexicon_token(k): tuple(json_int(t, "lexicon alternative") for t in v)
                for k, v in header["lexicon"].items()})
        if header.get("embedding"):
            meta = header["embedding"]
            embedding = EmbeddingTable.from_seed(
                json_int(meta["vocab_size"], "vocab_size"), json_int(meta["dim"], "dim"),
                seed=json_int(meta["seed"], "seed"),
                group_size=json_int(meta.get("group_size", GROUP_SIZE), "group_size"))
            if lexicon is not None:
                lexicon.validate(embedding.vocab_size)
        emotion_names = name_list(header.get("emotion_names", []), "emotion_names")
        intent_names = name_list(header.get("intent_names", []), "intent_names")

    def parsed(block) -> list[Sample]:
        with located(f"{path} lines {block[0][0]}-{block[-1][0]}"):   # its faulty line: below
            return _samples([_record_parts(record, embedding, version, alone=False)
                             for _, record in block])

    samples, block = [], []   # block: the (line number, record) pairs read, not yet parsed
    try:
        for item in records:
            block.append(item)
            if len(block) == _BLOCK:
                samples += parsed(block)
                block = []
        if block:
            samples += parsed(block)
    except (SchemaError, OSError):   # every fault of parsed() is located
        for line_no, record in block:
            with located(f"{path} line {line_no}"):
                _record_parts(record, embedding, version, alone=True)
        raise
    with located(f"{path}: corpus invariant violated"):
        return Corpus(labelled=[s for s in samples if s.is_labelled],
                      unlabelled=[s for s in samples if not s.is_labelled],
                      emotion_names=emotion_names, intent_names=intent_names,
                      lexicon=lexicon, embedding=embedding, source=path)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def unlabelled_per_step(batch_size: int, unlabelled_ratio: float) -> int:
    """The unlabelled samples each step draws: ``unlabelled_ratio`` times the
    batch size, rounded half to even."""
    require("batch_size", Rule.COUNT, batch_size)
    require("unlabelled_ratio", Rule.NON_NEGATIVE, unlabelled_ratio)
    count = unlabelled_ratio * batch_size
    if not count < 2 ** 60:   # 2**60 int64 indices take 2**63 bytes, past numpy's largest array
        raise ConfigError(f"unlabelled_ratio {unlabelled_ratio} at batch_size {batch_size} "
                          "draws 2**60 or more unlabelled samples per step, more than one "
                          "int64 index array can hold")
    return int(round(count))


def make_batches(labelled, unlabelled, batch_size: int, unlabelled_ratio: float,
                 seed) -> list[tuple[list[Sample], list[Sample]]]:
    """One epoch of (labelled batch, unlabelled batch) steps.

    The labelled pool is shuffled and consumed exactly once (final short
    batch included); each step draws its unlabelled batch uniformly from
    the pool. The labelled and unlabelled draws use independent streams,
    so the labelled schedule does not depend on ``unlabelled_ratio``.
    """
    labelled = list(labelled)
    unlabelled = list(unlabelled)
    if not labelled:
        raise ConfigError("make_batches needs a non-empty labelled pool")
    n_unlab = unlabelled_per_step(batch_size, unlabelled_ratio)
    seed = list(np.atleast_1d(seed))
    require("seed", Rule.INTEGER, *seed)    # before int() could round a 1.7 or fail on a NaN
    require("seed", Rule.NON_NEGATIVE, *seed)
    seed = [int(s) for s in seed]
    rng_lab = np.random.default_rng(seed + [31001])
    rng_unlab = np.random.default_rng(seed + [31002])

    order = rng_lab.permutation(len(labelled))
    steps = []
    for start in range(0, len(labelled), batch_size):
        lab_batch = [labelled[i] for i in order[start:start + batch_size]]
        if n_unlab and unlabelled:
            take = rng_unlab.choice(len(unlabelled), size=n_unlab,
                                    replace=n_unlab > len(unlabelled))
            unlab_batch = [unlabelled[i] for i in take]
        else:
            unlab_batch = []
        steps.append((lab_batch, unlab_batch))
    return steps


__all__ = [
    "Corpus", "GeneratorConfig", "Sample", "SplitSpec", "corpus_fingerprint",
    "corpus_to_text", "load_corpus", "make_batches", "save_corpus", "stratified_split",
    "synthesize_corpus", "unlabelled_per_step",
]
