"""Weak/strong augmentation operators and deterministic featurizers.

Signal sequences (a speech stand-in) get flip / time_mask / pitch_shift as
weak operators and gaussian_noise as the strong one; token sequences (a
transcript stand-in) get swap / delete / synonym as weak operators and
contextual (embedding nearest-neighbour replacement) as the strong one.

Every operator takes an explicit ``numpy.random.Generator`` and is
bit-reproducible given the same generator state. Signal operators preserve
length and sample rate; token operators keep every index inside the
vocabulary. ``augment_signal`` / ``augment_tokens`` apply one operator to a
whole list of sequences in one call and draw the same numbers, in the same
order, as the per-sequence operators called in a loop.

The two replace operators (synonym, contextual) share one body. Each
token takes a pair of doubles ``(u, v)``, all pairs from one
``rng.random((total, 2))`` call; a token with n >= 1 alternatives is
replaced when ``u < p``, by alternative ``floor(v * n)``. A token with no
alternative keeps its value but still takes its pair.

Featurizers map either payload into a fixed-dimension vector: binned
summary statistics for signals (order-sensitive), mean token embedding
plus a length fraction for tokens (order-free). ``FeatureExtractor``
featurizes a whole list of payloads in one call; the per-sample
``featurize_signal`` / ``featurize_tokens`` are its reference versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, is_integer

WEAK_SIGNAL_KINDS = ("flip", "time_mask", "pitch_shift")
STRONG_SIGNAL_KIND = "gaussian_noise"
WEAK_TOKEN_KINDS = ("swap", "delete", "synonym")
STRONG_TOKEN_KIND = "contextual"

MODALITIES = ("signal", "tokens")
DEFAULT_SAMPLE_RATE = 16000
MAX_PITCH_STEPS = 12287   # the largest step s whose factor 2 ** (s / 12) is a finite float


_POSITIVE = (lambda v: v > 0, "be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "be non-negative")
_INTEGER = (is_integer, "be an integer")
# operator and featurizer keyword -> its range rules, (test, what a value must
# do) pairs checked in order; TrainConfig checks its fields through them too
_PARAM_RULES = {
    "max_seconds": [_POSITIVE],
    "max_frames": [_INTEGER, _POSITIVE],
    "max_steps": [_INTEGER, _POSITIVE,
                  (lambda v: v <= MAX_PITCH_STEPS, f"be at most {MAX_PITCH_STEPS}")],
    "scale": [_NON_NEGATIVE],
    "n_swaps": [_INTEGER, _NON_NEGATIVE],
    "p": [(lambda v: 0 <= v <= 1, "lie in [0, 1]")],
    "n_neighbors": [_INTEGER, _POSITIVE],
    "bins": [_INTEGER, _POSITIVE],
    "max_length": [_INTEGER, _POSITIVE],
}


def _check_param(keyword: str, value, name: str | None = None):
    """A ConfigError naming ``name`` (or the keyword) unless ``value`` keeps its rules."""
    for ok, must in _PARAM_RULES[keyword]:
        if not ok(value):
            raise ConfigError(f"{name or keyword} must {must}")


def _check_vocabulary(seqs, table: EmbeddingTable):
    """Every token sequence must index the embedding table's vocabulary."""
    if any(seq.vocab_size != table.vocab_size for seq in seqs):
        raise ContractError("embedding table vocabulary does not match the sequence")


@dataclass
class SignalSequence:
    """Raw amplitude frames at a fixed sample rate."""

    frames: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        self.frames = self._checked(frames, [frames.size], [self.sample_rate])

    @staticmethod
    def _checked(frames, lengths, sample_rates) -> np.ndarray:
        """``frames`` as floats, checked as ``lengths`` sequences at ``sample_rates``."""
        frames = np.asarray(frames, dtype=float)
        if frames.ndim != 1 or min(lengths) < 1 or len(frames) != sum(lengths):
            raise ContractError("signal must be a non-empty 1-D frame array")
        if not np.all(np.isfinite(frames)):
            raise ContractError("signal frames must be finite")
        if min(sample_rates) <= 0:
            raise ContractError("sample_rate must be positive")
        return frames

    @classmethod
    def from_concatenated(cls, frames, lengths, sample_rates) -> list["SignalSequence"]:
        """Sequences cut in order from one frame array, the i-th holding
        ``lengths[i]`` frames at ``sample_rates[i]``. The constructor's
        checks run once, over the whole array."""
        frames = cls._checked(frames, lengths, sample_rates)
        out, end = [], 0
        for length, sample_rate in zip(lengths, sample_rates):
            seq = cls.__new__(cls)
            seq.frames, seq.sample_rate = frames[end:end + length], sample_rate
            out.append(seq)
            end += length
        return out

    def __len__(self):
        return len(self.frames)


@dataclass
class TokenSequence:
    """Vocabulary indices with the vocabulary size they index into."""

    tokens: np.ndarray
    vocab_size: int

    def __post_init__(self):
        tokens = np.asarray(self.tokens, dtype=int)
        self.tokens = self._checked(tokens, [tokens.size], [self.vocab_size])

    @staticmethod
    def _checked(tokens, lengths, vocab_sizes) -> np.ndarray:
        """``tokens`` as ints, checked as ``lengths`` sequences of ``vocab_sizes``."""
        tokens = np.asarray(tokens, dtype=int)
        if tokens.ndim != 1 or min(lengths) < 1 or len(tokens) != sum(lengths):
            raise ContractError("token sequence must be non-empty and 1-D")
        if min(vocab_sizes) <= 0:
            raise ContractError("vocab_size must be positive")
        if tokens.min() < 0 or np.any(tokens >= np.repeat(vocab_sizes, lengths)):
            raise ContractError("token index outside the vocabulary")
        return tokens

    @classmethod
    def from_concatenated(cls, tokens, lengths, vocab_sizes) -> list["TokenSequence"]:
        """Sequences cut in order from one token array, the i-th holding
        ``lengths[i]`` tokens of a ``vocab_sizes[i]`` vocabulary. The
        constructor's checks run once, over the whole array."""
        tokens = cls._checked(tokens, lengths, vocab_sizes)
        out, end = [], 0
        for length, vocab_size in zip(lengths, vocab_sizes):
            seq = cls.__new__(cls)
            seq.tokens, seq.vocab_size = tokens[end:end + length], vocab_size
            out.append(seq)
            end += length
        return out

    def __len__(self):
        return len(self.tokens)


@dataclass
class SynonymLexicon:
    """Interchangeable-token groups, stored as token -> alternatives."""

    mapping: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @classmethod
    def from_groups(cls, vocab_size: int, group_size: int = 3) -> "SynonymLexicon":
        """Group consecutive token ids; members of a group replace each other."""
        if group_size < 1:
            raise ConfigError("group_size must be positive")
        mapping = {}
        for start in range(0, vocab_size, group_size):
            group = list(range(start, min(start + group_size, vocab_size)))
            for tok in group:
                others = tuple(t for t in group if t != tok)
                if others:
                    mapping[tok] = others
        return cls(mapping=mapping)

    def validate(self, vocab_size: int):
        for tok, alts in self.mapping.items():
            if not 0 <= tok < vocab_size or any(not 0 <= a < vocab_size for a in alts):
                raise ContractError("lexicon references tokens outside the vocabulary")


@dataclass
class EmbeddingTable:
    """Fixed seeded-random token embeddings.

    Tokens are organized in consecutive-id groups around a shared centre,
    so nearest-neighbour lookups land on same-group tokens. ``seed`` and
    ``group_size`` are kept so the table can be regenerated when a corpus
    file is reloaded.
    """

    vectors: np.ndarray
    seed: int | None = None
    group_size: int | None = None
    # n -> every token's ``nearest_neighbours`` list, filled on first use
    _neighbours: dict[int, list[list[int]]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise ContractError("embedding table must be a 2-D matrix")
        if not np.all(np.isfinite(self.vectors)):
            raise ContractError("embedding table must be finite")

    @classmethod
    def from_seed(cls, vocab_size: int, dim: int, seed: int,
                  group_size: int = 3, jitter: float = 0.15) -> "EmbeddingTable":
        if vocab_size < 2 or dim < 1 or group_size < 1:
            raise ConfigError(
                "embedding table needs vocab_size >= 2, dim >= 1 and group_size >= 1")
        rng = np.random.default_rng([int(seed), 90001])
        n_groups = -(-vocab_size // group_size)
        centres = rng.standard_normal((n_groups, dim))
        noise = jitter * rng.standard_normal((vocab_size, dim))
        groups = np.arange(vocab_size) // group_size
        return cls(vectors=centres[groups] + noise, seed=int(seed), group_size=group_size)

    @property
    def vocab_size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def neighbour_lists(self, n: int) -> list[list[int]]:
        """``nearest_neighbours(self, t, n)`` of every token ``t``, as lists."""
        if n not in self._neighbours:
            self._neighbours[n] = [nearest_neighbours(self, t, n).tolist()
                                   for t in range(self.vocab_size)]
        return self._neighbours[n]


# ---------------------------------------------------------------------------
# signal operators
# ---------------------------------------------------------------------------

def flip_segment(seq: SignalSequence, rng: np.random.Generator,
                 max_seconds: float = 6.25) -> SignalSequence:
    """Reverse one contiguous segment; position and length drawn uniformly."""
    return _flip_all([seq], rng, max_seconds)[0]


def time_mask(seq: SignalSequence, rng: np.random.Generator,
              max_frames: int = 30000) -> SignalSequence:
    """Zero one contiguous sub-clip of up to max_frames frames."""
    return _time_mask_all([seq], rng, max_frames)[0]


def _segment_all(seqs, rng: np.random.Generator, caps, reverse: bool):
    """Per sequence, in order, draw a segment length in [1, cap] and then its
    start, as a per-sequence loop would (each start's bound depends on the
    length just drawn), and reverse or zero that segment of one
    concatenated frame array."""
    lengths = [len(s) for s in seqs]
    frames, end = np.concatenate([s.frames for s in seqs]), 0
    for n, cap in zip(lengths, caps):
        length = int(rng.integers(1, cap + 1))
        start = end + int(rng.integers(0, n - length + 1))
        segment = frames[start:start + length]
        segment[:] = segment[::-1] if reverse else 0.0
        end += n
    return SignalSequence.from_concatenated(frames, lengths, [s.sample_rate for s in seqs])


def _flip_all(seqs, rng: np.random.Generator, max_seconds: float = 6.25):
    _check_param("max_seconds", max_seconds)
    caps = [max(1, min(len(s), int(round(max_seconds * s.sample_rate)))) for s in seqs]
    return _segment_all(seqs, rng, caps, reverse=True)


def _time_mask_all(seqs, rng: np.random.Generator, max_frames: int = 30000):
    _check_param("max_frames", max_frames)
    return _segment_all(seqs, rng, [min(len(s), max_frames) for s in seqs], reverse=False)


def pitch_shift(seq: SignalSequence, rng: np.random.Generator,
                max_steps: int = 4) -> SignalSequence:
    """Resample by a semitone factor 2**(s/12), s != 0 drawn in [-max, max].

    Linear interpolation; the shifted signal is truncated or zero-padded
    back to the original length.
    """
    return _pitch_shift_all([seq], rng, max_steps)[0]


def _pitch_shift_all(seqs, rng: np.random.Generator, max_steps: int = 4):
    """``pitch_shift`` of every sequence; one draw gives every step, in the
    order a per-sequence loop would draw them."""
    _check_param("max_steps", max_steps)
    choices = np.concatenate([np.arange(-max_steps, 0), np.arange(1, max_steps + 1)])
    lengths = [len(s) for s in seqs]
    frames, end = np.zeros(sum(lengths)), 0
    for seq, n, steps in zip(seqs, lengths, rng.choice(choices, size=len(seqs))):
        positions = np.arange(n) * 2.0 ** (int(steps) / 12.0)
        valid = positions <= n - 1
        frames[end:end + n][valid] = np.interp(positions[valid], np.arange(n), seq.frames)
        end += n
    return SignalSequence.from_concatenated(frames, lengths, [s.sample_rate for s in seqs])


def gaussian_noise(seq: SignalSequence, rng: np.random.Generator,
                   scale: float = 0.05) -> SignalSequence:
    """Add N(0, scale^2) noise to every frame."""
    return _gaussian_noise_all([seq], rng, scale)[0]


def _gaussian_noise_all(seqs, rng: np.random.Generator, scale: float = 0.05):
    """``gaussian_noise`` of every sequence; one draw covers the concatenated
    frames, the same numbers a per-sequence loop would draw."""
    _check_param("scale", scale)
    lengths = [len(s) for s in seqs]
    frames = np.concatenate([s.frames for s in seqs])
    frames += rng.normal(0.0, scale, size=len(frames))
    return SignalSequence.from_concatenated(frames, lengths, [s.sample_rate for s in seqs])


def _each(op):
    """A batched form of a per-sequence operator whose draws depend on
    earlier draws, so they are taken one sequence at a time. The token
    resources (lexicon, table), which such an operator never takes, are
    dropped."""
    return lambda seqs, rng, lexicon=None, table=None, **params: [
        op(seq, rng, **params) for seq in seqs]


_SIGNAL_OPS = {
    "flip": _flip_all,
    "time_mask": _time_mask_all,
    "pitch_shift": _pitch_shift_all,
    "gaussian_noise": _gaussian_noise_all,
}


def _apply(ops: dict, what: str, seqs, kind: str, rng: np.random.Generator, **params):
    """Apply the operator ``ops[kind]`` to every sequence of a list; an
    empty list gives an empty list, without a draw."""
    if kind not in ops:
        raise ConfigError(f"unknown {what} augmentation '{kind}'")
    seqs = list(seqs)
    return ops[kind](seqs, rng, **params) if seqs else []


def augment_signal(seqs, kind: str, rng: np.random.Generator,
                   **params) -> list[SignalSequence]:
    """Apply one signal operator, by name, to every sequence of a list."""
    return _apply(_SIGNAL_OPS, "signal", seqs, kind, rng, **params)


# ---------------------------------------------------------------------------
# token operators
# ---------------------------------------------------------------------------

def swap_adjacent(seq: TokenSequence, rng: np.random.Generator,
                  n_swaps: int = 1) -> TokenSequence:
    """Exchange randomly chosen adjacent pairs n_swaps times."""
    _check_param("n_swaps", n_swaps)
    tokens = seq.tokens.copy()
    if len(tokens) >= 2:
        for _ in range(n_swaps):
            j = int(rng.integers(0, len(tokens) - 1))
            tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
    return TokenSequence(tokens=tokens, vocab_size=seq.vocab_size)


def delete_tokens(seq: TokenSequence, rng: np.random.Generator,
                  p: float = 0.1) -> TokenSequence:
    """Drop each token with probability p; keep one token if all would go."""
    _check_param("p", p)
    keep = rng.random(len(seq)) >= p
    if not keep.any():
        keep[int(rng.integers(0, len(seq)))] = True
    return TokenSequence(tokens=seq.tokens[keep], vocab_size=seq.vocab_size)


def _replace_all(seqs, alternatives, rng: np.random.Generator,
                 p: float) -> list[TokenSequence]:
    """The body both replace operators share. One ``rng.random((total, 2))``
    draw gives each token, in order, a pair ``(u, v)``; a token with n >= 1
    ``alternatives`` is replaced when ``u < p``, by ``alternatives[floor(v * n)]``.
    The pairs are read one token after another, so a call over a list draws
    what per-sequence calls in a loop draw, on any bit generator."""
    _check_param("p", p)
    lengths = [len(s) for s in seqs]
    tokens = np.concatenate([s.tokens for s in seqs])
    u, v = rng.random((len(tokens), 2)).T
    # (counts, table) indexed by token value: table[t, :counts[t]] are t's alternatives
    distinct = np.flatnonzero(np.bincount(tokens)).tolist()
    options = [alternatives(t) or () for t in distinct]
    counts = np.zeros(distinct[-1] + 1, dtype=int)
    counts[distinct] = [len(alts) for alts in options]
    width = counts.max()
    table = np.zeros((len(counts), width), dtype=int)
    table[distinct] = [list(alts) + [0] * (width - len(alts)) for alts in options]
    n = counts[tokens]
    hit = (u < p) & (n > 0)
    out = tokens.copy()
    out[hit] = table[tokens[hit], (v[hit] * n[hit]).astype(int)]
    return TokenSequence.from_concatenated(out, lengths, [s.vocab_size for s in seqs])


def _synonym_all(seqs, rng: np.random.Generator, lexicon: SynonymLexicon | None = None,
                 table=None, p: float = 0.15) -> list[TokenSequence]:
    """``synonym_replace`` of every sequence."""
    if lexicon is None:
        raise ConfigError("synonym replacement needs a lexicon")
    return _replace_all(seqs, lexicon.mapping.get, rng, p)


def _contextual_all(seqs, rng: np.random.Generator, lexicon=None,
                    table: EmbeddingTable | None = None, n_neighbors: int = 5,
                    p: float = 0.15) -> list[TokenSequence]:
    """``contextual_replace`` of every sequence."""
    if table is None:
        raise ConfigError("contextual replacement needs an embedding table")
    _check_param("n_neighbors", n_neighbors)
    _check_vocabulary(seqs, table)
    return _replace_all(seqs, table.neighbour_lists(n_neighbors).__getitem__, rng, p)


def synonym_replace(seq: TokenSequence, lexicon: SynonymLexicon,
                    rng: np.random.Generator, p: float = 0.15) -> TokenSequence:
    """Replace tokens with a uniformly drawn lexicon alternative, prob p each."""
    return _synonym_all([seq], rng, lexicon=lexicon, p=p)[0]


def nearest_neighbours(table: EmbeddingTable, token: int, n: int) -> np.ndarray:
    """Top-n other tokens by cosine similarity; ties to the lower index."""
    vecs = table.vectors
    norms = np.linalg.norm(vecs, axis=1)
    sims = vecs @ vecs[token] / (norms * norms[token] + 1e-12)
    sims[token] = -np.inf
    order = np.argsort(-sims, kind="stable")
    return order[:min(n, table.vocab_size - 1)]


def contextual_replace(seq: TokenSequence, table: EmbeddingTable,
                       rng: np.random.Generator, n_neighbors: int = 5,
                       p: float = 0.15) -> TokenSequence:
    """Replace tokens with one of their top-n embedding neighbours, prob p each."""
    return _contextual_all([seq], rng, table=table, n_neighbors=n_neighbors, p=p)[0]


_TOKEN_OPS = {
    "swap": _each(swap_adjacent),
    "delete": _each(delete_tokens),
    "synonym": _synonym_all,
    "contextual": _contextual_all,
}


def augment_tokens(seqs, kind: str, rng: np.random.Generator,
                   lexicon: SynonymLexicon | None = None,
                   table: EmbeddingTable | None = None, **params) -> list[TokenSequence]:
    """Apply one token operator, by name, to every sequence of a list."""
    return _apply(_TOKEN_OPS, "token", seqs, kind, rng, lexicon=lexicon, table=table,
                  **params)


# ---------------------------------------------------------------------------
# featurizers
# ---------------------------------------------------------------------------

def featurize_signal(seq: SignalSequence, bins: int) -> np.ndarray:
    """Per-bin mean/std/min/max over `bins` equal spans -> 4*bins features."""
    _check_param("bins", bins)
    out = np.zeros(4 * bins)
    for i, span in enumerate(np.array_split(seq.frames, bins)):
        if len(span):
            out[4 * i:4 * i + 4] = (span.mean(), span.std(), span.min(), span.max())
    return out


def featurize_signal_batch(seqs, bins: int) -> np.ndarray:
    """``featurize_signal`` of every sequence, stacked -> (N, 4*bins).

    The ``array_split`` spans come from the lengths alone. Min and max of
    every non-empty span come from one ``reduceat`` over the concatenated
    frames (exact in any order). Mean and std are summed in the order
    numpy's ``mean``/``std`` use: spans of equal length are gathered into
    one block, and each row's sum gives its mean and, through the centred
    squares, its std, so the bits equal reducing one span at a time.
    Empty spans (a sequence shorter than ``bins``) stay zero.
    """
    _check_param("bins", bins)
    lengths = np.array([len(s) for s in seqs])
    q, rem = np.divmod(lengths, bins)
    sizes = q[:, None] + (np.arange(bins) < rem[:, None])
    starts = (np.cumsum(lengths) - lengths)[:, None] + np.cumsum(sizes, axis=1) - sizes
    frames = np.concatenate([s.frames for s in seqs])
    out = np.zeros((len(seqs), bins, 4))
    filled = sizes > 0
    out[filled, 2] = np.minimum.reduceat(frames, starts[filled])
    out[filled, 3] = np.maximum.reduceat(frames, starts[filled])
    for size in np.unique(sizes[filled]):
        at = sizes == size
        block = frames[starts[at][:, None] + np.arange(size)]
        mean = block.sum(axis=1, keepdims=True) / size
        centred = block - mean
        out[at, 0] = mean[:, 0]
        out[at, 1] = np.sqrt((centred * centred).sum(axis=1) / size)
    return out.reshape(len(seqs), 4 * bins)


def featurize_tokens(seq: TokenSequence, table: EmbeddingTable,
                     max_length: int = 64) -> np.ndarray:
    """Mean token embedding plus the length fraction len/max_length."""
    _check_param("max_length", max_length)
    _check_vocabulary([seq], table)
    mean_vec = table.vectors[seq.tokens].mean(axis=0)
    return np.concatenate([mean_vec, [len(seq) / max_length]])


def featurize_tokens_batch(seqs, table: EmbeddingTable, max_length: int = 64) -> np.ndarray:
    """``featurize_tokens`` of every sequence, stacked -> (N, dim + 1).

    Each row's mean is its tokens' embedding sum divided by their count,
    which is how numpy's ``mean`` computes it, so the bits are equal.
    """
    _check_param("max_length", max_length)
    _check_vocabulary(seqs, table)
    out = np.empty((len(seqs), table.dim + 1))
    for row, seq in zip(out, seqs):
        row[:-1] = table.vectors[seq.tokens].sum(axis=0) / len(seq)
    out[:, -1] = np.array([len(seq) for seq in seqs]) / max_length
    return out


@dataclass
class FeatureExtractor:
    """Modality-aware featurizer with a fixed output dimension."""

    modality: str
    bins: int = 4
    max_token_len: int = 64
    table: EmbeddingTable | None = None

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ConfigError(f"unknown modality '{self.modality}'")
        if self.modality == "tokens" and self.table is None:
            raise ConfigError("token featurization needs an embedding table")

    @property
    def dim(self) -> int:
        if self.modality == "signal":
            return 4 * self.bins
        return self.table.dim + 1

    def __call__(self, payloads) -> np.ndarray:
        """Features of a list of payloads, one row each -> (N, dim)."""
        if not payloads:
            raise ContractError("featurizing needs a non-empty payload list")
        if self.modality == "signal":
            return featurize_signal_batch(payloads, self.bins)
        return featurize_tokens_batch(payloads, self.table, self.max_token_len)


def weak_kinds(modality: str) -> tuple[str, ...]:
    return WEAK_SIGNAL_KINDS if modality == "signal" else WEAK_TOKEN_KINDS


def strong_kind(modality: str) -> str:
    return STRONG_SIGNAL_KIND if modality == "signal" else STRONG_TOKEN_KIND


__all__ = [
    "DEFAULT_SAMPLE_RATE", "EmbeddingTable", "FeatureExtractor", "MAX_PITCH_STEPS", "MODALITIES",
    "STRONG_SIGNAL_KIND", "STRONG_TOKEN_KIND", "SignalSequence",
    "SynonymLexicon", "TokenSequence", "WEAK_SIGNAL_KINDS", "WEAK_TOKEN_KINDS",
    "augment_signal", "augment_tokens", "contextual_replace", "delete_tokens",
    "featurize_signal", "featurize_signal_batch", "featurize_tokens",
    "featurize_tokens_batch", "flip_segment",
    "gaussian_noise", "nearest_neighbours", "pitch_shift", "strong_kind",
    "swap_adjacent", "synonym_replace", "time_mask", "weak_kinds",
]
