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

The two replace operators (synonym, contextual) share one batched body
with three paths. On a PCG64 generator it decodes a whole list's
interleaved scalar draws from the raw words in one pass and leaves the
generator where the scalar draws would: in numpy when every token of the
call has two or more alternatives, so that every hit is a bounded draw,
and by a Python walk over the hits otherwise. The kept per-token loop runs
for any other bit generator, when a bounded draw would reject, or when a
one-time self-check finds that this numpy draws differently.

Featurizers map either payload into a fixed-dimension vector: binned
summary statistics for signals (order-sensitive), mean token embedding
plus a length fraction for tokens (order-free). ``FeatureExtractor``
featurizes a whole list of payloads in one call; the per-sample
``featurize_signal`` / ``featurize_tokens`` are its reference versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

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

    @classmethod
    def from_concatenated(cls, frames, lengths, sample_rates) -> list["SignalSequence"]:
        """Sequences cut in order from one frame array, the i-th holding
        ``lengths[i]`` frames at ``sample_rates[i]``. ``__post_init__``'s
        checks run once, over the whole array."""
        frames = np.asarray(frames, dtype=float)
        if frames.ndim != 1 or min(lengths) < 1 or len(frames) != sum(lengths):
            raise ContractError("signal must be a non-empty 1-D frame array")
        if not np.all(np.isfinite(frames)):
            raise ContractError("signal frames must be finite")
        if min(sample_rates) <= 0:
            raise ContractError("sample_rate must be positive")
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
        self.tokens = np.asarray(self.tokens, dtype=int)
        if self.tokens.ndim != 1 or len(self.tokens) == 0:
            raise ContractError("token sequence must be non-empty and 1-D")
        if self.vocab_size <= 0:
            raise ContractError("vocab_size must be positive")
        if np.any(self.tokens < 0) or np.any(self.tokens >= self.vocab_size):
            raise ContractError("token index outside the vocabulary")

    @classmethod
    def from_concatenated(cls, tokens, lengths, vocab_sizes) -> list["TokenSequence"]:
        """Sequences cut in order from one token array, the i-th holding
        ``lengths[i]`` tokens of a ``vocab_sizes[i]`` vocabulary.
        ``__post_init__``'s checks run once, over the whole array."""
        tokens = np.asarray(tokens, dtype=int)
        if tokens.ndim != 1 or min(lengths) < 1 or len(tokens) != sum(lengths):
            raise ContractError("token sequence must be non-empty and 1-D")
        if min(vocab_sizes) <= 0:
            raise ContractError("vocab_size must be positive")
        if tokens.min() < 0 or np.any(tokens >= np.repeat(vocab_sizes, lengths)):
            raise ContractError("token index outside the vocabulary")
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
    if max_seconds <= 0:
        raise ConfigError("max_seconds must be positive")
    caps = [max(1, min(len(s), int(round(max_seconds * s.sample_rate)))) for s in seqs]
    return _segment_all(seqs, rng, caps, reverse=True)


def _time_mask_all(seqs, rng: np.random.Generator, max_frames: int = 30000):
    if max_frames < 1:
        raise ConfigError("max_frames must be positive")
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
    if max_steps < 1:
        raise ConfigError("max_steps must be positive")
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
    if scale < 0:
        raise ConfigError("scale must be non-negative")
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


def augment_signal(seqs, kind: str, rng: np.random.Generator,
                   **params) -> list[SignalSequence]:
    """Apply one signal operator, by name, to every sequence of a list."""
    try:
        op = _SIGNAL_OPS[kind]
    except KeyError:
        raise ConfigError(f"unknown signal augmentation '{kind}'") from None
    return op(seqs, rng, **params) if seqs else []


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


def _replace_each_token(seqs, alternatives, rng: np.random.Generator,
                        p: float) -> list[TokenSequence]:
    """The replace operators' reference walk, one scalar draw at a time:
    each token takes ``rng.random() < p``, and each hit whose
    ``alternatives(token)`` is non-empty becomes one of them, picked by
    ``rng.integers(0, len(alts))``."""
    out = []
    for seq in seqs:
        tokens = seq.tokens.tolist()
        for j, tok in enumerate(tokens):
            if rng.random() < p:
                alts = alternatives(tok)
                if alts:
                    tokens[j] = alts[int(rng.integers(0, len(alts)))]
        out.append(TokenSequence(tokens=tokens, vocab_size=seq.vocab_size))
    return out


_LOW32 = 2**32 - 1


def _replace_decoded(seqs, alternatives, bitgen: np.random.PCG64, p: float):
    """``_replace_each_token`` over a PCG64 bit generator, decoded from the
    raw 64-bit words the scalar draws would read; None, with the generator
    untouched, when a bounded draw would reject and so read more words.

    A double is ``(word >> 11) * 2**-53``. A bounded draw over n > 1 items
    is Lemire's ``(r32 * n) >> 32``, where r32 is the half-word PCG64 keeps
    buffered (``has_uint32`` / ``uinteger``) if there is one, and otherwise
    the low half of a fresh word whose high half is then buffered; n = 1
    draws nothing. When every token has two or more alternatives,
    ``_decode_bounded`` reads the hits from their runs in numpy; otherwise
    ``_decode_walk`` walks them in Python.
    """
    lengths = [len(s) for s in seqs]
    tokens = np.concatenate([s.tokens for s in seqs])
    total = len(tokens)
    saved = bitgen.state
    # enough: bounded draws alternate fresh and buffered halves, so at most
    # half the tokens, rounded up, read a second word
    raw = bitgen.random_raw(3 * total // 2 + 1)
    bitgen.state = saved
    hit = (raw >> 11) * 2.0**-53 < p
    options = _bounded_options(tokens, alternatives)
    if options is None:
        decoded = _decode_walk(raw, hit, tokens, alternatives,
                               saved["has_uint32"], saved["uinteger"])
    else:
        decoded = _decode_bounded(raw, hit, tokens, *options,
                                  saved["has_uint32"], saved["uinteger"])
    if decoded is None:
        return None
    at, values, words, has_half, half = decoded
    bitgen.advance(words)
    state = bitgen.state                     # advance() clears the half-word buffer
    state["has_uint32"], state["uinteger"] = has_half, half
    bitgen.state = state
    out = tokens.copy()
    out[at] = values
    return TokenSequence.from_concatenated(out, lengths, [s.vocab_size for s in seqs])


def _bounded_options(tokens, alternatives):
    """``(counts, table)`` indexed by token value, where ``table[t, :counts[t]]``
    are ``alternatives(t)``, if every token of ``tokens`` has two or more
    alternatives; otherwise None."""
    distinct = np.flatnonzero(np.bincount(tokens)).tolist()
    options = [alternatives(t) or () for t in distinct]
    sizes = [len(alts) for alts in options]
    if min(sizes) < 2:
        return None
    width = max(sizes)
    counts = np.zeros(distinct[-1] + 1, dtype=np.uint64)
    table = np.zeros((len(counts), width), dtype=int)
    counts[distinct] = sizes
    table[distinct] = [list(alts) + [0] * (width - len(alts)) for alts in options]
    return counts, table


def _decode_walk(raw, hit, tokens, alternatives, has_half: int, half: int):
    """The hits of any mix of alternative counts, walked in Python:
    ``(token indices, replacements, words read, has_uint32, uinteger)``,
    or None on a rejection."""
    total = len(tokens)
    at, values = [], []
    word = start = 0   # the next word to read, and the token that reads it
    for hit_word in np.flatnonzero(hit).tolist():
        if hit_word < word:     # a word a bounded draw took
            continue
        t = start + hit_word - word
        if t >= total:
            break
        word, start = hit_word + 1, t + 1
        alts = alternatives(int(tokens[t]))
        if not alts:
            continue
        n, pick = len(alts), 0
        if n > 1:
            if has_half:
                r32, has_half = half, 0
            else:
                fresh = int(raw[word])
                r32, half, has_half = fresh & _LOW32, fresh >> 32, 1
                word += 1
            scaled = r32 * n
            if scaled & _LOW32 < (2**32 - n) % n:
                return None
            pick = scaled >> 32
        at.append(t)
        values.append(alts[pick])
    return at, values, word + total - start, has_half, half


def _decode_bounded(raw, hit, tokens, counts, table, has_half: int, half: int):
    """``_decode_walk`` when every hit is a bounded draw, in numpy.

    Take a run of consecutive hit words entered with buffer bit b. A word
    after a miss is always a token's own word, so each run starts with one;
    then at offset o the run holds, by ``(o - b) % 3``: 0, a hit drawing
    the low half of the next (fresh) word; 1, that fresh word; 2, a hit
    drawing the buffered high half. A run of length L leaves b as it was
    if ``L % 3 == 0``, flips it if 1, and sets it if 2, so one scan gives
    every run's entry bit.
    """
    padded = np.zeros(len(hit) + 2, dtype=bool)
    padded[1:-1] = hit
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    starts, run_lengths = edges[0::2], edges[1::2] - edges[0::2]
    remainder = run_lengths % 3
    flips = np.cumsum(remainder == 1)
    last_set = np.maximum.accumulate(np.where(remainder == 2, np.arange(len(starts)), -1))
    # b after a run: 1 plus the flips since the last run that set it, if any
    exit_bit = np.where(last_set >= 0, 1 + flips - flips[last_set], has_half + flips) & 1
    entry_bit = np.concatenate(([has_half], exit_bit))[:-1]
    words = np.flatnonzero(hit)
    phase = (words - np.repeat(starts + entry_bit, run_lengths)) % 3
    fresh = phase == 0
    at = words - (np.cumsum(fresh) - fresh)   # a draw's token: its word less earlier fresh words
    draw = phase != 1
    words, fresh, at = words[draw], fresh[draw], at[draw]
    kept = np.searchsorted(at, len(tokens))
    words, fresh, at = words[:kept], fresh[:kept], at[:kept]
    # the word whose half each draw takes: its own fresh word, or the last one before it
    source = np.maximum.accumulate(np.where(fresh, words + 1, -1))
    word = raw[source]
    r32 = np.where(fresh, word & _LOW32, np.where(source >= 0, word >> 32, half))
    n = counts[tokens[at]]
    scaled = r32 * n
    if np.any(scaled & _LOW32 < (2**32 - n) % n):
        return None
    if kept:
        has_half = int(fresh[-1])
        if source[-1] >= 0:
            half = int(word[-1] >> 32)   # stale after a buffered draw, as numpy leaves it
    return at, table[tokens[at], scaled >> 32], len(tokens) + int(fresh.sum()), has_half, half


@cache
def _decode_agrees() -> bool:
    """Whether ``_replace_decoded`` reproduces this numpy's scalar draws,
    checked once per process on two fixed cases, each starting from a
    buffered half-word and taking fresh words after it: one with 0 to 5
    alternatives per token (walked), one with 2 to 5 (decoded in numpy)."""
    seqs = [TokenSequence(tokens=np.arange(200) % 6, vocab_size=6)]
    mixed = ((), (0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 2, 3, 4))
    bounded = ((1, 2), (2, 3, 0), (0, 1, 2, 3), (4, 0, 1, 2, 5), (5, 3), (0, 4, 1))
    for alternatives in (mixed.__getitem__, bounded.__getitem__):
        fast, slow = np.random.default_rng(7), np.random.default_rng(7)
        fast.integers(0, 3)     # leaves the high half of a word buffered
        slow.integers(0, 3)
        decoded = _replace_decoded(seqs, alternatives, fast.bit_generator, 0.5)
        expected = _replace_each_token(seqs, alternatives, slow, 0.5)
        if (decoded is None or fast.bit_generator.state != slow.bit_generator.state
                or decoded[0].tokens.tolist() != expected[0].tokens.tolist()):
            return False
    return True


def _replace_all(seqs, alternatives, rng: np.random.Generator,
                 p: float) -> list[TokenSequence]:
    """The body both replace operators share: ``_replace_each_token``'s
    output and final generator state, decoded in one pass per call when the
    bit generator is exactly PCG64 and the decode agrees with this numpy's
    scalar draws; otherwise, and when a bounded draw would reject, the loop."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError("replacement probability must lie in [0, 1]")
    if seqs and type(rng.bit_generator) is np.random.PCG64 and _decode_agrees():
        out = _replace_decoded(seqs, alternatives, rng.bit_generator, p)
        if out is not None:
            return out
    return _replace_each_token(seqs, alternatives, rng, p)


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
    if n_neighbors < 1:
        raise ConfigError("n_neighbors must be positive")
    if any(seq.vocab_size != table.vocab_size for seq in seqs):
        raise ContractError("embedding table vocabulary does not match the sequence")
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
    try:
        op = _TOKEN_OPS[kind]
    except KeyError:
        raise ConfigError(f"unknown token augmentation '{kind}'") from None
    return op(list(seqs), rng, lexicon=lexicon, table=table, **params)


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

    The ``array_split`` spans come from the lengths alone. Min and max of
    every non-empty span come from one ``reduceat`` over the concatenated
    frames (exact in any order). Mean and std are summed in the order
    numpy's ``mean``/``std`` use: spans of equal length are gathered into
    one block, and each row's sum gives its mean and, through the centred
    squares, its std, so the bits equal reducing one span at a time.
    Empty spans (a sequence shorter than ``bins``) stay zero.
    """
    if bins < 1:
        raise ConfigError("bins must be positive")
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
    if max_length < 1:
        raise ConfigError("max_length must be positive")
    if table.vocab_size != seq.vocab_size:
        raise ContractError("embedding table vocabulary does not match the sequence")
    mean_vec = table.vectors[seq.tokens].mean(axis=0)
    return np.concatenate([mean_vec, [len(seq) / max_length]])


def featurize_tokens_batch(seqs, table: EmbeddingTable, max_length: int = 64) -> np.ndarray:
    """``featurize_tokens`` of every sequence, stacked -> (N, dim + 1).

    Each row's mean is its tokens' embedding sum divided by their count,
    which is how numpy's ``mean`` computes it, so the bits are equal.
    """
    if max_length < 1:
        raise ConfigError("max_length must be positive")
    if any(seq.vocab_size != table.vocab_size for seq in seqs):
        raise ContractError("embedding table vocabulary does not match the sequence")
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
        return featurize_tokens_batch(payloads, self.table, self.max_token_len)


def weak_kinds(modality: str) -> tuple[str, ...]:
    return WEAK_SIGNAL_KINDS if modality == "signal" else WEAK_TOKEN_KINDS


def strong_kind(modality: str) -> str:
    return STRONG_SIGNAL_KIND if modality == "signal" else STRONG_TOKEN_KIND


__all__ = [
    "DEFAULT_SAMPLE_RATE", "EmbeddingTable", "FeatureExtractor",
    "STRONG_SIGNAL_KIND", "STRONG_TOKEN_KIND", "SignalSequence",
    "SynonymLexicon", "TokenSequence", "WEAK_SIGNAL_KINDS", "WEAK_TOKEN_KINDS",
    "augment_signal", "augment_tokens", "contextual_replace", "delete_tokens",
    "featurize_signal", "featurize_signal_batch", "featurize_tokens",
    "featurize_tokens_batch", "flip_segment",
    "gaussian_noise", "nearest_neighbours", "pitch_shift", "strong_kind",
    "swap_adjacent", "synonym_replace", "time_mask", "weak_kinds",
]
