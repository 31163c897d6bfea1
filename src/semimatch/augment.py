"""Weak/strong augmentation operators and deterministic featurizers.

Signal sequences (a speech stand-in) get flip / time_mask / pitch_shift as
weak operators and gaussian_noise as the strong one; token sequences (a
transcript stand-in) get swap / delete / synonym as weak operators and
contextual (embedding nearest-neighbour replacement) as the strong one.

Every operator takes an explicit ``numpy.random.Generator`` and is
bit-reproducible given the same generator state. Signal operators preserve
length and sample rate; token operators keep every index inside the
vocabulary.

Featurizers map either payload into a fixed-dimension vector: binned
summary statistics for signals (order-sensitive), mean token embedding
plus a length fraction for tokens (order-free). ``FeatureExtractor``
featurizes a whole list of payloads in one call; the per-sample
``featurize_signal`` / ``featurize_tokens`` are its reference versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError

WEAK_SIGNAL_KINDS = ("flip", "time_mask", "pitch_shift")
STRONG_SIGNAL_KIND = "gaussian_noise"
WEAK_TOKEN_KINDS = ("swap", "delete", "synonym")
STRONG_TOKEN_KIND = "contextual"

DEFAULT_SAMPLE_RATE = 16000


@dataclass
class SignalSequence:
    """Raw amplitude frames at a fixed sample rate."""

    frames: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=float)
        if self.frames.ndim != 1 or len(self.frames) == 0:
            raise ContractError("signal must be a non-empty 1-D frame array")
        if not np.all(np.isfinite(self.frames)):
            raise ContractError("signal frames must be finite")
        if self.sample_rate <= 0:
            raise ContractError("sample_rate must be positive")

    def __len__(self):
        return len(self.frames)


@dataclass
class TokenSequence:
    """Vocabulary indices with the vocabulary size they index into."""

    tokens: np.ndarray
    vocab_size: int

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=int)
        if self.tokens.ndim != 1 or len(self.tokens) == 0:
            raise ContractError("token sequence must be non-empty and 1-D")
        if self.vocab_size <= 0:
            raise ContractError("vocab_size must be positive")
        if np.any(self.tokens < 0) or np.any(self.tokens >= self.vocab_size):
            raise ContractError("token index outside the vocabulary")

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
            if tok >= vocab_size or any(a >= vocab_size or a < 0 for a in alts):
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

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise ContractError("embedding table must be a 2-D matrix")
        if not np.all(np.isfinite(self.vectors)):
            raise ContractError("embedding table must be finite")

    @classmethod
    def from_seed(cls, vocab_size: int, dim: int, seed: int,
                  group_size: int = 3, jitter: float = 0.15) -> "EmbeddingTable":
        if vocab_size < 2 or dim < 1:
            raise ConfigError("embedding table needs vocab_size >= 2 and dim >= 1")
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


# ---------------------------------------------------------------------------
# signal operators
# ---------------------------------------------------------------------------

def flip_segment(seq: SignalSequence, rng: np.random.Generator,
                 max_seconds: float = 6.25) -> SignalSequence:
    """Reverse one contiguous segment; position and length drawn uniformly."""
    if max_seconds <= 0:
        raise ConfigError("max_seconds must be positive")
    n = len(seq)
    cap = max(1, min(n, int(round(max_seconds * seq.sample_rate))))
    length = int(rng.integers(1, cap + 1))
    start = int(rng.integers(0, n - length + 1))
    frames = seq.frames.copy()
    frames[start:start + length] = frames[start:start + length][::-1]
    return SignalSequence(frames=frames, sample_rate=seq.sample_rate)


def time_mask(seq: SignalSequence, rng: np.random.Generator,
              max_frames: int = 30000) -> SignalSequence:
    """Zero one contiguous sub-clip of up to max_frames frames."""
    if max_frames < 1:
        raise ConfigError("max_frames must be positive")
    n = len(seq)
    cap = min(n, max_frames)
    length = int(rng.integers(1, cap + 1))
    start = int(rng.integers(0, n - length + 1))
    frames = seq.frames.copy()
    frames[start:start + length] = 0.0
    return SignalSequence(frames=frames, sample_rate=seq.sample_rate)


def pitch_shift(seq: SignalSequence, rng: np.random.Generator,
                max_steps: int = 4) -> SignalSequence:
    """Resample by a semitone factor 2**(s/12), s != 0 drawn in [-max, max].

    Linear interpolation; the shifted signal is truncated or zero-padded
    back to the original length.
    """
    if max_steps < 1:
        raise ConfigError("max_steps must be positive")
    choices = np.concatenate([np.arange(-max_steps, 0), np.arange(1, max_steps + 1)])
    steps = int(rng.choice(choices))
    factor = 2.0 ** (steps / 12.0)
    n = len(seq)
    positions = np.arange(n) * factor
    frames = np.zeros(n)
    valid = positions <= n - 1
    frames[valid] = np.interp(positions[valid], np.arange(n), seq.frames)
    return SignalSequence(frames=frames, sample_rate=seq.sample_rate)


def gaussian_noise(seq: SignalSequence, rng: np.random.Generator,
                   scale: float = 0.05) -> SignalSequence:
    """Add N(0, scale^2) noise to every frame."""
    if scale < 0:
        raise ConfigError("scale must be non-negative")
    frames = seq.frames + rng.normal(0.0, scale, size=len(seq))
    return SignalSequence(frames=frames, sample_rate=seq.sample_rate)


_SIGNAL_OPS = {
    "flip": flip_segment,
    "time_mask": time_mask,
    "pitch_shift": pitch_shift,
    "gaussian_noise": gaussian_noise,
}


def augment_signal(seq: SignalSequence, kind: str, rng: np.random.Generator,
                   **params) -> SignalSequence:
    """Dispatch one signal operator by name."""
    try:
        op = _SIGNAL_OPS[kind]
    except KeyError:
        raise ConfigError(f"unknown signal augmentation '{kind}'") from None
    return op(seq, rng, **params)


# ---------------------------------------------------------------------------
# token operators
# ---------------------------------------------------------------------------

def swap_adjacent(seq: TokenSequence, rng: np.random.Generator,
                  n_swaps: int = 1) -> TokenSequence:
    """Exchange randomly chosen adjacent pairs n_swaps times."""
    if n_swaps < 0:
        raise ConfigError("n_swaps must be non-negative")
    tokens = seq.tokens.copy()
    if len(tokens) >= 2:
        for _ in range(n_swaps):
            j = int(rng.integers(0, len(tokens) - 1))
            tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
    return TokenSequence(tokens=tokens, vocab_size=seq.vocab_size)


def delete_tokens(seq: TokenSequence, rng: np.random.Generator,
                  p: float = 0.1) -> TokenSequence:
    """Drop each token with probability p; keep one token if all would go."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError("deletion probability must lie in [0, 1]")
    keep = rng.random(len(seq)) >= p
    if not keep.any():
        keep[int(rng.integers(0, len(seq)))] = True
    return TokenSequence(tokens=seq.tokens[keep], vocab_size=seq.vocab_size)


def synonym_replace(seq: TokenSequence, lexicon: SynonymLexicon,
                    rng: np.random.Generator, p: float = 0.15) -> TokenSequence:
    """Replace tokens with a uniformly drawn lexicon alternative, prob p each."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError("replacement probability must lie in [0, 1]")
    tokens = seq.tokens.copy()
    for j in range(len(tokens)):
        if rng.random() < p:
            alts = lexicon.mapping.get(int(tokens[j]))
            if alts:
                tokens[j] = alts[int(rng.integers(0, len(alts)))]
    return TokenSequence(tokens=tokens, vocab_size=seq.vocab_size)


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
    if not 0.0 <= p <= 1.0:
        raise ConfigError("replacement probability must lie in [0, 1]")
    if n_neighbors < 1:
        raise ConfigError("n_neighbors must be positive")
    if table.vocab_size != seq.vocab_size:
        raise ContractError("embedding table vocabulary does not match the sequence")
    tokens = seq.tokens.copy()
    cache: dict[int, np.ndarray] = {}
    for j in range(len(tokens)):
        if rng.random() < p:
            tok = int(tokens[j])
            if tok not in cache:
                cache[tok] = nearest_neighbours(table, tok, n_neighbors)
            neigh = cache[tok]
            tokens[j] = int(neigh[int(rng.integers(0, len(neigh)))])
    return TokenSequence(tokens=tokens, vocab_size=seq.vocab_size)


def augment_tokens(seq: TokenSequence, kind: str, rng: np.random.Generator,
                   lexicon: SynonymLexicon | None = None,
                   table: EmbeddingTable | None = None, **params) -> TokenSequence:
    """Dispatch one token operator by name."""
    if kind == "swap":
        return swap_adjacent(seq, rng, **params)
    if kind == "delete":
        return delete_tokens(seq, rng, **params)
    if kind == "synonym":
        if lexicon is None:
            raise ConfigError("synonym replacement needs a lexicon")
        return synonym_replace(seq, lexicon, rng, **params)
    if kind == "contextual":
        if table is None:
            raise ConfigError("contextual replacement needs an embedding table")
        return contextual_replace(seq, table, rng, **params)
    raise ConfigError(f"unknown token augmentation '{kind}'")


# ---------------------------------------------------------------------------
# featurizers
# ---------------------------------------------------------------------------

def featurize_signal(seq: SignalSequence, bins: int) -> np.ndarray:
    """Per-bin mean/std/min/max over `bins` equal spans -> 4*bins features."""
    if bins < 1:
        raise ConfigError("bins must be positive")
    out = np.zeros(4 * bins)
    for i, span in enumerate(np.array_split(seq.frames, bins)):
        if len(span):
            out[4 * i:4 * i + 4] = (span.mean(), span.std(), span.min(), span.max())
    return out


def featurize_signal_batch(seqs, bins: int) -> np.ndarray:
    """``featurize_signal`` of every sequence, stacked -> (N, 4*bins).

    The ``array_split`` spans come from the lengths alone; spans of equal
    length are gathered into one block and reduced along its rows, which
    gives the same bits as reducing one span at a time. Empty spans (a
    sequence shorter than ``bins``) stay zero.
    """
    if bins < 1:
        raise ConfigError("bins must be positive")
    lengths = np.array([len(s) for s in seqs])
    q, rem = np.divmod(lengths, bins)
    sizes = q[:, None] + (np.arange(bins) < rem[:, None])
    starts = (np.cumsum(lengths) - lengths)[:, None] + np.cumsum(sizes, axis=1) - sizes
    frames = np.concatenate([s.frames for s in seqs])
    out = np.zeros((len(seqs), bins, 4))
    for size in np.unique(sizes[sizes > 0]):
        at = sizes == size
        block = frames[starts[at][:, None] + np.arange(size)]
        out[at] = np.stack([block.mean(axis=1), block.std(axis=1),
                            block.min(axis=1), block.max(axis=1)], axis=1)
    return out.reshape(len(seqs), 4 * bins)


def featurize_tokens(seq: TokenSequence, table: EmbeddingTable,
                     max_length: int = 64) -> np.ndarray:
    """Mean token embedding plus the length fraction len/max_length."""
    if max_length < 1:
        raise ConfigError("max_length must be positive")
    if table.vocab_size != seq.vocab_size:
        raise ContractError("embedding table vocabulary does not match the sequence")
    mean_vec = table.vectors[seq.tokens].mean(axis=0)
    return np.concatenate([mean_vec, [len(seq) / max_length]])


@dataclass
class FeatureExtractor:
    """Modality-aware featurizer with a fixed output dimension."""

    modality: str
    bins: int = 4
    max_token_len: int = 64
    table: EmbeddingTable | None = None

    def __post_init__(self):
        if self.modality not in ("signal", "tokens"):
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
        return np.stack([featurize_tokens(p, self.table, self.max_token_len)
                         for p in payloads])


def weak_kinds(modality: str) -> tuple[str, ...]:
    return WEAK_SIGNAL_KINDS if modality == "signal" else WEAK_TOKEN_KINDS


def strong_kind(modality: str) -> str:
    return STRONG_SIGNAL_KIND if modality == "signal" else STRONG_TOKEN_KIND


__all__ = [
    "DEFAULT_SAMPLE_RATE", "EmbeddingTable", "FeatureExtractor",
    "STRONG_SIGNAL_KIND", "STRONG_TOKEN_KIND", "SignalSequence",
    "SynonymLexicon", "TokenSequence", "WEAK_SIGNAL_KINDS", "WEAK_TOKEN_KINDS",
    "augment_signal", "augment_tokens", "contextual_replace", "delete_tokens",
    "featurize_signal", "featurize_signal_batch", "featurize_tokens", "flip_segment",
    "gaussian_noise", "nearest_neighbours", "pitch_shift", "strong_kind",
    "swap_adjacent", "synonym_replace", "time_mask", "weak_kinds",
]
