"""Weak/strong augmentation operators and deterministic featurizers.

Signal sequences (a speech stand-in) get flip / time_mask / pitch_shift as
weak operators and gaussian_noise as the strong one; token sequences (a
transcript stand-in) get swap / delete / synonym as weak operators and
contextual (embedding nearest-neighbour replacement) as the strong one.

Every operator takes an explicit ``numpy.random.Generator`` and is
bit-reproducible given the same generator state. Signal operators preserve
length and sample rate; token operators keep every index inside the
vocabulary. Each operator's body works on a ``Ragged`` batch: the sequences'
frames or tokens concatenated into one array, their lengths, and each one's
sample rate or vocabulary size. A body checks its output once, over the whole
array, and draws the same numbers, in the same order, as the per-sequence
operator called in a loop. ``augment_signal`` / ``augment_tokens`` apply one
operator by name to a batch (giving a batch) or to a list (giving a list);
the per-sequence operators are one-element calls.

The two replace operators (synonym, contextual) share one body. Each
token takes a pair of doubles ``(u, v)``, all pairs from one
``rng.random((total, 2))`` call; a token with n >= 1 alternatives is
replaced when ``u < p``, by alternative ``floor(v * n)``. A token with no
alternative keeps its value but still takes its pair.

Featurizers map either payload into a fixed-dimension vector: binned
summary statistics for signals (order-sensitive), mean token embedding
plus a length fraction for tokens (order-free). ``FeatureExtractor``
featurizes a whole batch or list of payloads in one call; the per-sample
``featurize_signal`` / ``featurize_tokens`` are its reference versions. The
token sums run by position over rows sorted by length, which adds each
row's embeddings in the order numpy's per-row sum adds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, Rule, is_integer, require

WEAK_SIGNAL_KINDS = ("flip", "time_mask", "pitch_shift")
STRONG_SIGNAL_KIND = "gaussian_noise"
WEAK_TOKEN_KINDS = ("swap", "delete", "synonym")
STRONG_TOKEN_KIND = "contextual"

MODALITIES = ("signal", "tokens")
DEFAULT_SAMPLE_RATE = 16000
MAX_PITCH_STEPS = 12287   # the largest step s whose factor 2 ** (s / 12) is a finite float


# operator and featurizer keyword -> its range rules (errors.Rule), checked in
# order; TrainConfig checks its fields through them too
_PARAM_RULES = {
    "max_seconds": [Rule.POSITIVE],
    "max_frames": [Rule.INTEGER, Rule.POSITIVE],
    "max_steps": [Rule.INTEGER, Rule.POSITIVE,
                  (lambda v: v <= MAX_PITCH_STEPS, f"be at most {MAX_PITCH_STEPS}")],
    "scale": [Rule.NON_NEGATIVE],
    "n_swaps": [Rule.INTEGER, Rule.NON_NEGATIVE],
    "p": [Rule.UNIT],
    "n_neighbors": [Rule.INTEGER, Rule.POSITIVE],
    "bins": [Rule.INTEGER, Rule.POSITIVE],
    "max_length": [Rule.INTEGER, Rule.POSITIVE],
}


def _check_param(keyword: str, value, name: str | None = None):
    """A ConfigError naming ``name`` (or the keyword) unless ``value`` keeps its rules."""
    for rule in _PARAM_RULES[keyword]:
        require(name or keyword, rule, value)


def _check_vocabulary(vocab_sizes, table: EmbeddingTable):
    """Token sequences of these vocabulary sizes must index the embedding table."""
    if np.any(np.asarray(vocab_sizes) != table.vocab_size):
        raise ContractError("embedding table vocabulary does not match the sequence")


def check_sizes(name: str, sizes):
    """Every sequence's size (its sample rate or vocabulary size) must be a
    positive integer that an int64 holds. ``sizes``, one item or a batch's,
    is checked as one numpy array, so both keep one rule: its dtype must be
    an integer one (a float, even a whole one or NaN, a bool, or an integer
    past the int64 range gives another dtype)."""
    sizes = np.asarray(sizes)
    if sizes.dtype.kind not in "iu" or sizes.max() > np.iinfo(np.int64).max:
        raise ContractError(f"{name} must be an integer")
    if sizes.min() <= 0:
        raise ContractError(f"{name} must be positive")


def _size_array(sizes) -> np.ndarray:
    """``sizes`` as one array. numpy promotes a mix of ``np.uint64`` and other
    integers to float64, so integer sizes that did so are taken as Python ints."""
    array = np.asarray(sizes)
    if array.dtype.kind == "f" and all(map(is_integer, sizes)):
        array = np.asarray([int(s) for s in sizes])
    return array


class _Sequence:
    """What both payload types share: ``_FIELDS`` names the payload array and
    the per-sequence size, and ``_checked`` checks a concatenation of them."""

    def __post_init__(self):
        payload, size = self._FIELDS
        values = np.asarray(getattr(self, payload))
        setattr(self, payload, self._checked(values, [values.size], [getattr(self, size)]))

    @classmethod
    def from_concatenated(cls, values, lengths, sizes) -> list:
        """Sequences cut in order from one array, the i-th holding ``lengths[i]``
        values at size ``sizes[i]`` (its sample rate or vocabulary size). The
        constructor's checks run once, over the whole array."""
        return list(Ragged.checked(cls, values, lengths, sizes))

    def __len__(self):
        return len(getattr(self, self._FIELDS[0]))


@dataclass
class SignalSequence(_Sequence):
    """Raw amplitude frames at a fixed sample rate."""

    frames: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE
    _FIELDS = ("frames", "sample_rate")

    @staticmethod
    def _checked(frames, lengths, sample_rates) -> np.ndarray:
        """``frames`` as floats, checked as ``lengths`` sequences at ``sample_rates``."""
        frames = np.asarray(frames, dtype=float)
        if frames.ndim != 1 or min(lengths) < 1 or len(frames) != sum(lengths):
            raise ContractError("signal must be a non-empty 1-D frame array")
        if not np.all(np.isfinite(frames)):
            raise ContractError("signal frames must be finite")
        check_sizes("sample_rate", sample_rates)
        return frames


@dataclass
class TokenSequence(_Sequence):
    """Vocabulary indices with the vocabulary size they index into."""

    tokens: np.ndarray
    vocab_size: int
    _FIELDS = ("tokens", "vocab_size")

    @staticmethod
    def _checked(tokens, lengths, vocab_sizes) -> np.ndarray:
        """``tokens`` as ints, checked as ``lengths`` sequences of ``vocab_sizes``."""
        tokens = np.asarray(tokens, dtype=int)
        if tokens.ndim != 1 or min(lengths) < 1 or len(tokens) != sum(lengths):
            raise ContractError("token sequence must be non-empty and 1-D")
        check_sizes("vocab_size", vocab_sizes)
        if tokens.min() < 0 or np.any(tokens >= np.repeat(vocab_sizes, lengths)):
            raise ContractError("token index outside the vocabulary")
        return tokens


@dataclass(frozen=True, eq=False)
class Ragged:
    """Sequences of one type (``SignalSequence`` or ``TokenSequence``) as one
    batch: ``values`` holds their frames or tokens back to back, ``lengths``
    how many each has, and ``sizes`` each one's sample rate or vocabulary
    size. Iterating it gives the sequences, as views of ``values``."""

    seq_type: type
    values: np.ndarray
    lengths: np.ndarray
    sizes: np.ndarray

    @classmethod
    def of(cls, seqs, seq_type: type) -> "Ragged":
        """``seqs`` if it is a batch of ``seq_type``; else its sequences, concatenated once."""
        if not isinstance(seqs, Ragged):
            seqs = list(seqs)
            if not seqs:
                raise ContractError("a batch needs at least one sequence")
            payload, size = seq_type._FIELDS
            arrays = [getattr(s, payload) for s in seqs]
            seqs = cls(seq_type, np.concatenate(arrays), np.array([len(a) for a in arrays]),
                       _size_array([getattr(s, size) for s in seqs]))
        if seqs.seq_type is not seq_type:
            raise ContractError(f"expected {seq_type.__name__} payloads, "
                                f"got a batch of {seqs.seq_type.__name__}")
        return seqs

    @classmethod
    def checked(cls, seq_type: type, values, lengths, sizes) -> "Ragged":
        """A batch checked once, over the whole array, as ``seq_type`` checks each part."""
        lengths, sizes = np.asarray(lengths), _size_array(sizes)
        if not len(lengths):
            raise ContractError("a batch needs at least one sequence")
        return cls(seq_type, seq_type._checked(values, lengths, sizes), lengths, sizes)

    def with_values(self, values, lengths=None) -> "Ragged":
        """These sequences with new ``values`` (and ``lengths``), checked."""
        return Ragged.checked(self.seq_type, values,
                              self.lengths if lengths is None else lengths, self.sizes)

    @property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.lengths) - self.lengths

    def __len__(self):
        return len(self.lengths)

    def __iter__(self):
        payload, size = self.seq_type._FIELDS
        for start, length, value in zip(self.starts.tolist(), self.lengths.tolist(),
                                        self.sizes.tolist()):
            seq = self.seq_type.__new__(self.seq_type)
            setattr(seq, payload, self.values[start:start + length])
            setattr(seq, size, value)
            yield seq


@dataclass
class SynonymLexicon:
    """Interchangeable-token groups, stored as token -> alternatives."""

    mapping: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @classmethod
    def from_groups(cls, vocab_size: int, group_size: int = 3) -> "SynonymLexicon":
        """Group consecutive token ids; members of a group replace each other."""
        require("group_size", Rule.COUNT, group_size)
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
    return augment_signal([seq], "flip", rng, max_seconds=max_seconds)[0]


def time_mask(seq: SignalSequence, rng: np.random.Generator,
              max_frames: int = 30000) -> SignalSequence:
    """Zero one contiguous sub-clip of up to max_frames frames."""
    return augment_signal([seq], "time_mask", rng, max_frames=max_frames)[0]


def _segment_all(batch: Ragged, rng: np.random.Generator, caps, reverse: bool) -> Ragged:
    """Per sequence, in order, draw a segment length in [1, cap] and then its
    start, as a per-sequence loop would (each start's bound depends on the
    length just drawn), and reverse or zero that segment of a copy of the
    batch's frames."""
    frames = batch.values.copy()
    for start, n, cap in zip(batch.starts.tolist(), batch.lengths.tolist(), caps):
        length = int(rng.integers(1, cap + 1))
        start += int(rng.integers(0, n - length + 1))
        segment = frames[start:start + length]
        segment[:] = segment[::-1] if reverse else 0.0
    return batch.with_values(frames)


def _flip_all(batch: Ragged, rng: np.random.Generator, max_seconds: float = 6.25) -> Ragged:
    _check_param("max_seconds", max_seconds)
    caps = [max(1, min(n, int(round(max_seconds * rate))))
            for n, rate in zip(batch.lengths.tolist(), batch.sizes.tolist())]
    return _segment_all(batch, rng, caps, reverse=True)


def _time_mask_all(batch: Ragged, rng: np.random.Generator, max_frames: int = 30000) -> Ragged:
    _check_param("max_frames", max_frames)
    return _segment_all(batch, rng, [min(n, max_frames) for n in batch.lengths.tolist()],
                        reverse=False)


def pitch_shift(seq: SignalSequence, rng: np.random.Generator,
                max_steps: int = 4) -> SignalSequence:
    """Resample by a semitone factor 2**(s/12), s != 0 drawn in [-max, max].

    Linear interpolation; the shifted signal is truncated or zero-padded
    back to the original length.
    """
    return augment_signal([seq], "pitch_shift", rng, max_steps=max_steps)[0]


def _pitch_shift_all(batch: Ragged, rng: np.random.Generator, max_steps: int = 4) -> Ragged:
    """``pitch_shift`` of every sequence; one draw gives every step, in the
    order a per-sequence loop would draw them."""
    _check_param("max_steps", max_steps)
    choices = np.concatenate([np.arange(-max_steps, 0), np.arange(1, max_steps + 1)])
    frames = np.zeros(len(batch.values))
    for start, n, steps in zip(batch.starts.tolist(), batch.lengths.tolist(),
                               rng.choice(choices, size=len(batch))):
        positions = np.arange(n) * 2.0 ** (int(steps) / 12.0)
        valid = positions <= n - 1
        frames[start:start + n][valid] = np.interp(positions[valid], np.arange(n),
                                                   batch.values[start:start + n])
    return batch.with_values(frames)


def gaussian_noise(seq: SignalSequence, rng: np.random.Generator,
                   scale: float = 0.05) -> SignalSequence:
    """Add N(0, scale^2) noise to every frame."""
    return augment_signal([seq], "gaussian_noise", rng, scale=scale)[0]


def _gaussian_noise_all(batch: Ragged, rng: np.random.Generator, scale: float = 0.05) -> Ragged:
    """``gaussian_noise`` of every sequence; one draw covers the concatenated
    frames, the same numbers a per-sequence loop would draw."""
    _check_param("scale", scale)
    return batch.with_values(batch.values + rng.normal(0.0, scale, size=len(batch.values)))


_SIGNAL_OPS = {
    "flip": _flip_all,
    "time_mask": _time_mask_all,
    "pitch_shift": _pitch_shift_all,
    "gaussian_noise": _gaussian_noise_all,
}


def _apply(ops: dict, what: str, seq_type: type, seqs, kind: str, rng: np.random.Generator,
           **params):
    """Apply the operator ``ops[kind]`` to every sequence of a batch (giving
    a batch) or of a list (giving a list) of ``seq_type``; an empty list
    gives an empty list, without a draw."""
    if kind not in ops:
        raise ConfigError(f"unknown {what} augmentation '{kind}'")
    if isinstance(seqs, Ragged):
        return ops[kind](Ragged.of(seqs, seq_type), rng, **params)
    seqs = list(seqs)
    return list(ops[kind](Ragged.of(seqs, seq_type), rng, **params)) if seqs else []


def augment_signal(seqs, kind: str, rng: np.random.Generator,
                   **params) -> list[SignalSequence] | Ragged:
    """Apply one signal operator, by name, to every sequence of a list or batch."""
    return _apply(_SIGNAL_OPS, "signal", SignalSequence, seqs, kind, rng, **params)


# ---------------------------------------------------------------------------
# token operators
# ---------------------------------------------------------------------------

def swap_adjacent(seq: TokenSequence, rng: np.random.Generator,
                  n_swaps: int = 1) -> TokenSequence:
    """Exchange randomly chosen adjacent pairs n_swaps times."""
    return augment_tokens([seq], "swap", rng, n_swaps=n_swaps)[0]


def _swap_all(batch: Ragged, rng: np.random.Generator, lexicon=None, table=None,
              n_swaps: int = 1) -> Ragged:
    """``swap_adjacent`` of every sequence, drawing each swap in loop order."""
    _check_param("n_swaps", n_swaps)
    tokens = batch.values.copy()
    for start, n in zip(batch.starts.tolist(), batch.lengths.tolist()):
        for _ in range(n_swaps if n >= 2 else 0):
            j = start + int(rng.integers(0, n - 1))
            tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
    return batch.with_values(tokens)


def delete_tokens(seq: TokenSequence, rng: np.random.Generator,
                  p: float = 0.1) -> TokenSequence:
    """Drop each token with probability p; keep one token if all would go."""
    return augment_tokens([seq], "delete", rng, p=p)[0]


def _delete_all(batch: Ragged, rng: np.random.Generator, lexicon=None, table=None,
                p: float = 0.1) -> Ragged:
    """``delete_tokens`` of every sequence, drawing in loop order."""
    _check_param("p", p)
    keep = np.empty(len(batch.values), dtype=bool)
    starts = batch.starts
    for start, n in zip(starts.tolist(), batch.lengths.tolist()):
        span = keep[start:start + n]
        span[:] = rng.random(n) >= p
        if not span.any():
            span[int(rng.integers(0, n))] = True
    return batch.with_values(batch.values[keep], np.add.reduceat(keep, starts, dtype=int))


def _replace_all(batch: Ragged, alternatives, rng: np.random.Generator, p: float) -> Ragged:
    """The body both replace operators share. One ``rng.random((total, 2))``
    draw gives each token, in order, a pair ``(u, v)``; a token with n >= 1
    ``alternatives`` is replaced when ``u < p``, by ``alternatives[floor(v * n)]``.
    The pairs are read one token after another, so a call over a list draws
    what per-sequence calls in a loop draw, on any bit generator."""
    _check_param("p", p)
    tokens = batch.values
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
    hit = np.flatnonzero((u < p) & (n > 0))
    out = tokens.copy()
    out[hit] = table[tokens[hit], (v[hit] * n[hit]).astype(int)]
    return batch.with_values(out)


def _synonym_all(batch: Ragged, rng: np.random.Generator,
                 lexicon: SynonymLexicon | None = None, table=None, p: float = 0.15) -> Ragged:
    """``synonym_replace`` of every sequence."""
    if lexicon is None:
        raise ConfigError("synonym replacement needs a lexicon")
    return _replace_all(batch, lexicon.mapping.get, rng, p)


def _contextual_all(batch: Ragged, rng: np.random.Generator, lexicon=None,
                    table: EmbeddingTable | None = None, n_neighbors: int = 5,
                    p: float = 0.15) -> Ragged:
    """``contextual_replace`` of every sequence."""
    if table is None:
        raise ConfigError("contextual replacement needs an embedding table")
    _check_param("n_neighbors", n_neighbors)
    _check_vocabulary(batch.sizes, table)
    return _replace_all(batch, table.neighbour_lists(n_neighbors).__getitem__, rng, p)


def synonym_replace(seq: TokenSequence, lexicon: SynonymLexicon,
                    rng: np.random.Generator, p: float = 0.15) -> TokenSequence:
    """Replace tokens with a uniformly drawn lexicon alternative, prob p each."""
    return augment_tokens([seq], "synonym", rng, lexicon=lexicon, p=p)[0]


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
    return augment_tokens([seq], "contextual", rng, table=table, n_neighbors=n_neighbors,
                          p=p)[0]


_TOKEN_OPS = {
    "swap": _swap_all,
    "delete": _delete_all,
    "synonym": _synonym_all,
    "contextual": _contextual_all,
}


def augment_tokens(seqs, kind: str, rng: np.random.Generator,
                   lexicon: SynonymLexicon | None = None,
                   table: EmbeddingTable | None = None,
                   **params) -> list[TokenSequence] | Ragged:
    """Apply one token operator, by name, to every sequence of a list or batch."""
    return _apply(_TOKEN_OPS, "token", TokenSequence, seqs, kind, rng, lexicon=lexicon,
                  table=table, **params)


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
    batch = Ragged.of(seqs, SignalSequence)
    frames, lengths = batch.values, batch.lengths
    q, rem = np.divmod(lengths, bins)
    sizes = q[:, None] + (np.arange(bins) < rem[:, None])
    starts = batch.starts[:, None] + np.cumsum(sizes, axis=1) - sizes
    out = np.zeros((len(batch), bins, 4))
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
    return out.reshape(len(batch), 4 * bins)


def featurize_tokens(seq: TokenSequence, table: EmbeddingTable,
                     max_length: int = 64) -> np.ndarray:
    """Mean token embedding plus the length fraction len/max_length."""
    _check_param("max_length", max_length)
    _check_vocabulary([seq.vocab_size], table)
    mean_vec = table.vectors[seq.tokens].mean(axis=0)
    return np.concatenate([mean_vec, [len(seq) / max_length]])


def featurize_tokens_batch(seqs, table: EmbeddingTable, max_length: int = 64) -> np.ndarray:
    """``featurize_tokens`` of every sequence, stacked -> (N, dim + 1).

    Each row's mean is its tokens' embedding sum divided by their count,
    which is how numpy's ``mean`` computes it. numpy sums an ``(L, dim)``
    block row after row from +0.0, so the sums run by position: with the
    rows sorted by length (descending, stable), position j adds its
    embeddings into the first c_j rows, the c_j rows longer than j. The
    bits equal the per-row sums. A width-1 table keeps a loop over rows,
    because numpy sums an ``(L, 1)`` column pairwise.
    """
    _check_param("max_length", max_length)
    batch = Ragged.of(seqs, TokenSequence)
    tokens, lengths = batch.values, batch.lengths
    _check_vocabulary(batch.sizes, table)
    out = np.empty((len(batch), table.dim + 1))
    out[:, -1] = lengths / max_length
    if table.dim == 1:
        for row, start, n in zip(out, batch.starts.tolist(), lengths.tolist()):
            row[:-1] = table.vectors[tokens[start:start + n]].sum(axis=0) / n
        return out
    order = np.argsort(-lengths, kind="stable")
    padded = np.zeros((len(batch), lengths.max()), dtype=int)
    padded[np.arange(padded.shape[1]) < lengths[:, None]] = tokens
    by_position = np.ascontiguousarray(padded[order].T)
    sorted_lengths = lengths[order]
    longer = np.searchsorted(-sorted_lengths, -np.arange(padded.shape[1]), side="left")
    sums, gathered = np.zeros((2, len(batch), table.dim))
    for position, n in zip(by_position, longer.tolist()):
        np.add(sums[:n], table.vectors.take(position[:n], axis=0, out=gathered[:n]), out=sums[:n])
    out[order, :-1] = sums / sorted_lengths[:, None]
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
        """Features of a ``Ragged`` batch or a list of payloads, one row each -> (N, dim)."""
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
    "Ragged", "STRONG_SIGNAL_KIND", "STRONG_TOKEN_KIND", "SignalSequence",
    "SynonymLexicon", "TokenSequence", "WEAK_SIGNAL_KINDS", "WEAK_TOKEN_KINDS",
    "augment_signal", "augment_tokens", "contextual_replace", "delete_tokens",
    "featurize_signal", "featurize_signal_batch", "featurize_tokens",
    "featurize_tokens_batch", "flip_segment",
    "gaussian_noise", "nearest_neighbours", "pitch_shift", "strong_kind",
    "swap_adjacent", "synonym_replace", "time_mask", "weak_kinds",
]
