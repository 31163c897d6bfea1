"""Augmentation operators, their invariants, and the featurizers."""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimatch.augment import (
    EmbeddingTable,
    FeatureExtractor,
    MAX_PITCH_STEPS,
    STRONG_SIGNAL_KIND,
    Ragged,
    STRONG_TOKEN_KIND,
    SignalSequence,
    SynonymLexicon,
    TokenSequence,
    WEAK_SIGNAL_KINDS,
    WEAK_TOKEN_KINDS,
    augment_signal,
    augment_tokens,
    contextual_replace,
    delete_tokens,
    featurize_signal,
    featurize_signal_batch,
    featurize_tokens,
    featurize_tokens_batch,
    flip_segment,
    gaussian_noise,
    nearest_neighbours,
    pitch_shift,
    swap_adjacent,
    synonym_replace,
    time_mask,
)
from semimatch.errors import ConfigError, ContractError
from semimatch.trainer import _AUG_PARAMS, TrainConfig


def signal(frames, sr=16000):
    return SignalSequence(frames=np.asarray(frames, dtype=float), sample_rate=sr)


def random_signal(rng, max_len=400):
    n = int(rng.integers(4, max_len))
    return signal(rng.standard_normal(n))


def random_tokens(rng, vocab=20, max_len=40):
    n = int(rng.integers(1, max_len))
    return TokenSequence(tokens=rng.integers(0, vocab, n), vocab_size=vocab)


class TestSignalOperators:
    def test_flip_whole_sequence(self):
        # a max duration covering the sequence plus a forced full-length draw
        seq = signal([1.0, 2.0, 3.0, 4.0], sr=1)

        class FullDraw:
            def integers(self, low, high):
                return high - 1 if low == 1 else 0

        out = augment_signal([seq], "flip", FullDraw(), max_seconds=10)[0]
        assert out.frames.tolist() == [4.0, 3.0, 2.0, 1.0]

    def test_flip_preserves_multiset(self, rng):
        for _ in range(300):
            seq = random_signal(rng)
            out = augment_signal([seq], "flip", rng)[0]
            assert len(out) == len(seq)
            np.testing.assert_allclose(np.sort(out.frames), np.sort(seq.frames))

    def test_time_mask_zeroes_one_contiguous_span(self, rng):
        for _ in range(300):
            n = int(rng.integers(4, 200))
            seq = signal(rng.uniform(0.5, 2.0, n))  # everywhere nonzero
            out = augment_signal([seq], "time_mask", rng, max_frames=50)[0]
            zeros = np.flatnonzero(out.frames == 0.0)
            assert 1 <= len(zeros) <= 50
            assert zeros[-1] - zeros[0] + 1 == len(zeros)  # contiguous
            untouched = np.setdiff1d(np.arange(n), zeros)
            np.testing.assert_array_equal(out.frames[untouched], seq.frames[untouched])

    def test_gaussian_noise_scale_zero_is_identity(self, rng):
        seq = random_signal(rng)
        out = augment_signal([seq], "gaussian_noise", rng, scale=0.0)[0]
        np.testing.assert_array_equal(out.frames, seq.frames)

    def test_pitch_shift_finite_and_length_preserving(self, rng):
        for _ in range(300):
            seq = random_signal(rng)
            out = augment_signal([seq], "pitch_shift", rng)[0]
            assert len(out) == len(seq)
            assert np.all(np.isfinite(out.frames))

    def test_pitch_steps_bounded_by_a_finite_factor(self, rng):
        with pytest.raises(OverflowError):
            2.0 ** ((MAX_PITCH_STEPS + 1) / 12.0)
        seq = random_signal(rng)
        with np.errstate(over="ignore"):   # positions past the first overflow to inf
            out = pitch_shift(seq, rng, max_steps=MAX_PITCH_STEPS)
        assert len(out) == len(seq) and np.all(np.isfinite(out.frames))
        with pytest.raises(ConfigError, match=f"max_steps must be at most {MAX_PITCH_STEPS}"):
            pitch_shift(seq, rng, max_steps=MAX_PITCH_STEPS + 1)

    def test_pitch_shift_down_stretches(self):
        # factor 2**(-12/12) = 0.5: output samples the input at half speed
        t = np.linspace(0, 4 * np.pi, 64)
        seq = signal(np.sin(t))

        class FixedStep:
            def choice(self, choices, size):
                return [-12] * size

        out = augment_signal([seq], "pitch_shift", FixedStep())[0]
        np.testing.assert_allclose(out.frames[::2][:32], seq.frames[:32], atol=1e-12)

    def test_length_and_rate_preserved(self, rng):
        for _ in range(200):
            seq = random_signal(rng)
            kind = rng.choice(WEAK_SIGNAL_KINDS + (STRONG_SIGNAL_KIND,))
            out = augment_signal([seq], str(kind), rng)[0]
            assert len(out) == len(seq)
            assert out.sample_rate == seq.sample_rate

    def test_seed_reproducible(self):
        seq = signal(np.sin(np.arange(100)))
        for kind in WEAK_SIGNAL_KINDS + (STRONG_SIGNAL_KIND,):
            a = augment_signal([seq], kind, np.random.default_rng(9))[0]
            b = augment_signal([seq], kind, np.random.default_rng(9))[0]
            np.testing.assert_array_equal(a.frames, b.frames)

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ConfigError):
            augment_signal([random_signal(rng)], "reverb", rng)


class TestTokenOperators:
    def test_single_swap_on_pair(self):
        seq = TokenSequence(tokens=np.array([3, 7]), vocab_size=10)
        out = augment_tokens([seq], "swap", np.random.default_rng(0), n_swaps=1)[0]
        assert out.tokens.tolist() == [7, 3]

    def test_swap_preserves_multiset(self, rng):
        for _ in range(300):
            seq = random_tokens(rng)
            out = augment_tokens([seq], "swap", rng, n_swaps=int(rng.integers(0, 5)))[0]
            assert sorted(out.tokens.tolist()) == sorted(seq.tokens.tolist())

    def test_swap_is_invisible_to_the_token_featurizer(self, rng):
        """Token features are a mean embedding and a length fraction, which
        ignore order, so a ``swap`` weak branch feeds the model what no weak
        augmentation would, up to the rounding of the reordered sums."""
        table = EmbeddingTable.from_seed(vocab_size=20, dim=5, seed=3)
        seqs = [random_tokens(rng) for _ in range(200)]
        swapped = augment_tokens(seqs, "swap", rng, n_swaps=3)
        assert sum(not np.array_equal(a.tokens, b.tokens) for a, b in zip(seqs, swapped)) > 100
        np.testing.assert_allclose(featurize_tokens_batch(swapped, table),
                                   featurize_tokens_batch(seqs, table), rtol=1e-12,
                                   atol=1e-12 * np.abs(table.vectors).max())

    def test_delete_probability_zero_is_identity(self, rng):
        seq = random_tokens(rng)
        out = augment_tokens([seq], "delete", rng, p=0.0)[0]
        np.testing.assert_array_equal(out.tokens, seq.tokens)

    def test_delete_yields_subsequence_and_never_empties(self, rng):
        for _ in range(300):
            seq = random_tokens(rng)
            out = augment_tokens([seq], "delete", rng, p=float(rng.uniform(0, 1)))[0]
            assert 1 <= len(out) <= len(seq)
            # subsequence check: consume the original left to right
            it = iter(seq.tokens.tolist())
            assert all(any(tok == orig for orig in it) for tok in out.tokens.tolist())

    def test_synonym_stays_in_lexicon_groups(self, rng):
        lexicon = SynonymLexicon.from_groups(vocab_size=12, group_size=3)
        for _ in range(200):
            seq = random_tokens(rng, vocab=12)
            out = augment_tokens([seq], "synonym", rng, lexicon=lexicon, p=1.0)[0]
            assert len(out) == len(seq)
            for before, after in zip(seq.tokens, out.tokens):
                assert after == before or int(after) in lexicon.mapping[int(before)]

    def test_contextual_with_one_neighbour_hits_nearest(self, rng):
        vectors = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0]])
        table = EmbeddingTable(vectors=vectors)
        # brute-force nearest by cosine for each token
        def nearest(tok):
            sims = []
            for other in range(3):
                if other == tok:
                    continue
                a, b = vectors[tok], vectors[other]
                sims.append((np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -other))
            best = max(sims)
            return -best[1]
        seq = TokenSequence(tokens=np.array([0, 1, 2, 0, 1, 2]), vocab_size=3)
        out = augment_tokens([seq], "contextual", rng, table=table, n_neighbors=1, p=1.0)[0]
        for before, after in zip(seq.tokens, out.tokens):
            assert int(after) == nearest(int(before))

    def test_contextual_outputs_valid_tokens(self, rng):
        table = EmbeddingTable.from_seed(vocab_size=15, dim=6, seed=2)
        for _ in range(200):
            seq = random_tokens(rng, vocab=15)
            out = augment_tokens([seq], "contextual", rng, table=table,
                                 p=float(rng.uniform(0, 1)))[0]
            assert np.all(out.tokens >= 0) and np.all(out.tokens < 15)
            assert len(out) == len(seq)

    def test_seed_reproducible(self, rng):
        lexicon = SynonymLexicon.from_groups(vocab_size=15, group_size=3)
        table = EmbeddingTable.from_seed(vocab_size=15, dim=6, seed=2)
        seq = random_tokens(rng, vocab=15)
        for kind in WEAK_TOKEN_KINDS + (STRONG_TOKEN_KIND,):
            a = augment_tokens([seq], kind, np.random.default_rng(4),
                               lexicon=lexicon, table=table)[0]
            b = augment_tokens([seq], kind, np.random.default_rng(4),
                               lexicon=lexicon, table=table)[0]
            np.testing.assert_array_equal(a.tokens, b.tokens)

    def test_missing_resources_rejected(self, rng):
        seq = random_tokens(rng)
        with pytest.raises(ConfigError):
            augment_tokens([seq], "synonym", rng)
        with pytest.raises(ConfigError):
            augment_tokens([seq], "contextual", rng)


def loop_flip(seq, rng, max_seconds=6.25):
    """Reference: ``flip`` as a per-sequence loop over a copy of each sequence."""
    n = len(seq)
    length = int(rng.integers(1, max(1, min(n, int(round(max_seconds * seq.sample_rate)))) + 1))
    start = int(rng.integers(0, n - length + 1))
    frames = seq.frames.copy()
    frames[start:start + length] = frames[start:start + length][::-1]
    return signal(frames, seq.sample_rate)


def loop_time_mask(seq, rng, max_frames=30000):
    """Reference: ``time_mask`` as a per-sequence loop over a copy of each sequence."""
    n = len(seq)
    length = int(rng.integers(1, min(n, max_frames) + 1))
    start = int(rng.integers(0, n - length + 1))
    frames = seq.frames.copy()
    frames[start:start + length] = 0.0
    return signal(frames, seq.sample_rate)


def loop_pitch_shift(seq, rng, max_steps=4):
    """Reference: ``pitch_shift`` as a per-sequence loop, one scalar draw each."""
    choices = np.concatenate([np.arange(-max_steps, 0), np.arange(1, max_steps + 1)])
    factor = 2.0 ** (int(rng.choice(choices)) / 12.0)
    n = len(seq)
    positions = np.arange(n) * factor
    frames = np.zeros(n)
    valid = positions <= n - 1
    frames[valid] = np.interp(positions[valid], np.arange(n), seq.frames)
    return signal(frames, seq.sample_rate)


def loop_gaussian_noise(seq, rng, scale=0.05):
    """Reference: ``gaussian_noise`` as a per-sequence loop, one draw each."""
    return signal(seq.frames + rng.normal(0.0, scale, size=len(seq)), seq.sample_rate)


LEXICON = SynonymLexicon.from_groups(vocab_size=30, group_size=3)
TABLE = EmbeddingTable.from_seed(vocab_size=30, dim=6, seed=2)


def synonym_loop(seq, rng):
    return synonym_replace(seq, LEXICON, rng)


def contextual_loop(seq, rng):
    return contextual_replace(seq, TABLE, rng)


# kind -> per-sequence operator the batched dispatcher must reproduce
SIGNAL_REFERENCES = [
    ("flip", flip_segment), ("flip", loop_flip),
    ("time_mask", time_mask), ("time_mask", loop_time_mask),
    ("pitch_shift", pitch_shift), ("pitch_shift", loop_pitch_shift),
    ("gaussian_noise", gaussian_noise), ("gaussian_noise", loop_gaussian_noise),
]
TOKEN_REFERENCES = [
    ("swap", swap_adjacent), ("delete", delete_tokens),
    ("synonym", synonym_loop), ("contextual", contextual_loop),
]


class TestBatchedDispatch:
    """One dispatcher call over a list gives, element by element, what the
    per-sequence operator gives in a loop, and leaves the generator in the
    same state; an empty list draws nothing."""

    @pytest.mark.parametrize("kind, op", SIGNAL_REFERENCES)
    @settings(max_examples=50, deadline=None)
    @given(lengths=st.lists(st.integers(1, 400), max_size=20), seed=st.integers(0, 2**32 - 1))
    @example(lengths=[], seed=0)
    def test_signal_batch_equals_loop(self, kind, op, lengths, seed):
        seqs = [signal(np.random.default_rng([seed, n]).standard_normal(n)) for n in lengths]
        rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
        out = augment_signal(seqs, kind, rng)
        expected = [op(seq, rng2) for seq in seqs]
        assert len(out) == len(expected)
        for a, b in zip(out, expected):
            np.testing.assert_array_equal(a.frames, b.frames)
            assert a.sample_rate == b.sample_rate
        assert rng.bit_generator.state == rng2.bit_generator.state

    @pytest.mark.parametrize("kind, op, params", [
        ("flip", loop_flip, {"max_seconds": 0.001}),
        ("time_mask", loop_time_mask, {"max_frames": 7})])
    @settings(max_examples=50, deadline=None)
    @given(lengths=st.lists(st.integers(1, 40), max_size=20), seed=st.integers(0, 2**32 - 1))
    def test_capped_segment_batch_equals_loop(self, kind, op, params, lengths, seed):
        """Segment caps below the length, and per sequence (flip's cap
        follows each sample rate), draw the loop's numbers too."""
        seqs = [signal(np.random.default_rng([seed, n]).standard_normal(n),
                       sr=(8000, 16000)[n % 2]) for n in lengths]
        rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
        out = augment_signal(seqs, kind, rng, **params)
        for a, seq in zip(out, seqs, strict=True):
            np.testing.assert_array_equal(a.frames, op(seq, rng2, **params).frames)
        assert rng.bit_generator.state == rng2.bit_generator.state

    @pytest.mark.parametrize("kind, op", TOKEN_REFERENCES)
    @settings(max_examples=50, deadline=None)
    @given(lengths=st.lists(st.integers(1, 400), max_size=20), seed=st.integers(0, 2**32 - 1))
    @example(lengths=[], seed=0)
    def test_token_batch_equals_loop(self, kind, op, lengths, seed):
        seqs = [TokenSequence(np.random.default_rng([seed, n]).integers(0, 30, n), 30)
                for n in lengths]
        rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
        out = augment_tokens(seqs, kind, rng, lexicon=LEXICON, table=TABLE)
        expected = [op(seq, rng2) for seq in seqs]
        assert len(out) == len(expected)
        for a, b in zip(out, expected):
            np.testing.assert_array_equal(a.tokens, b.tokens)
            assert a.vocab_size == b.vocab_size
        assert rng.bit_generator.state == rng2.bit_generator.state


def loop_swap(seq, rng, n_swaps=1):
    """Reference: ``swap`` as a per-sequence loop over a copy of each sequence."""
    tokens = seq.tokens.copy()
    if len(tokens) >= 2:
        for _ in range(n_swaps):
            j = int(rng.integers(0, len(tokens) - 1))
            tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
    return TokenSequence(tokens, seq.vocab_size)


def loop_delete(seq, rng, p=0.1):
    """Reference: ``delete`` as a per-sequence loop, keeping one token if all would go."""
    keep = rng.random(len(seq)) >= p
    if not keep.any():
        keep[int(rng.integers(0, len(seq)))] = True
    return TokenSequence(seq.tokens[keep], seq.vocab_size)


# (kind, parameters, per-sequence reference loop, public per-sequence operator)
RAGGED_CASES = [
    ("flip", {}, loop_flip, flip_segment),
    ("flip", {"max_seconds": 0.001}, loop_flip, flip_segment),
    ("time_mask", {}, loop_time_mask, time_mask),
    ("time_mask", {"max_frames": 7}, loop_time_mask, time_mask),
    ("pitch_shift", {"max_steps": 6}, loop_pitch_shift, pitch_shift),
    ("gaussian_noise", {"scale": 0.3}, loop_gaussian_noise, gaussian_noise),
    ("swap", {"n_swaps": 3}, loop_swap, swap_adjacent),
    ("delete", {"p": 0.1}, loop_delete, delete_tokens),
    ("delete", {"p": 0.95}, loop_delete, delete_tokens),
    ("synonym", {"p": 0.4}, lambda seq, rng, p: loop_replace(seq, LEXICON.mapping.get, rng, p),
     partial(synonym_replace, lexicon=LEXICON)),
    ("contextual", {"p": 0.4},
     lambda seq, rng, p: loop_replace(seq, TABLE.neighbour_lists(5).__getitem__, rng, p),
     partial(contextual_replace, table=TABLE)),
]


def ragged_inputs(kind, lengths, seed):
    """Sequences of varied sample rates (signal) or vocabulary sizes (tokens)
    and the dispatcher of their modality."""
    draws = [np.random.default_rng([seed, n]) for n in lengths]
    if kind in WEAK_SIGNAL_KINDS or kind == STRONG_SIGNAL_KIND:
        return ([signal(rng.standard_normal(n), sr=(8000, 16000)[n % 2])
                 for rng, n in zip(draws, lengths)], augment_signal)
    # contextual needs the table's vocabulary; the others take any size
    vocab = (30, 30) if kind == "contextual" else (30, 31)
    seqs = [TokenSequence(rng.integers(0, 30, n), vocab[n % 2]) for rng, n in zip(draws, lengths)]
    return seqs, partial(augment_tokens, lexicon=LEXICON, table=TABLE)


def count_checks(monkeypatch, seq_type) -> list:
    """A list that grows by one on each ``seq_type._checked`` call."""
    checked, calls = seq_type._checked, []
    monkeypatch.setattr(seq_type, "_checked",
                        staticmethod(lambda *args: calls.append(1) or checked(*args)))
    return calls


class TestRaggedBodies:
    """Each operator's body, given a ``Ragged`` batch, returns a batch equal to
    the per-sequence reference loop and to the public per-sequence operator in
    a loop, leaves each generator in the same state and its input unchanged,
    and checks its output once, over the whole array."""

    @pytest.mark.parametrize("case", range(len(RAGGED_CASES)),
                             ids=[f"{c[0]}-{'-'.join(map(str, c[1].values()))}"
                                  for c in RAGGED_CASES])
    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 120), min_size=1, max_size=20),
           seed=st.integers(0, 2**32 - 1))
    @example(lengths=[1], seed=0)
    @example(lengths=[1, 2, 1, 2], seed=1)
    def test_body_equals_loops(self, case, lengths, seed):
        kind, params, reference, operator = RAGGED_CASES[case]
        seqs, augment = ragged_inputs(kind, lengths, seed)
        payload, _ = type(seqs[0])._FIELDS
        batch = Ragged.of(seqs, type(seqs[0]))
        before = batch.values.copy()
        rng, loop_rng, op_rng = (np.random.default_rng(seed) for _ in range(3))
        out = augment(batch, kind, rng, **params)
        expected = [reference(seq, loop_rng, **params) for seq in seqs]
        public = [operator(seq, rng=op_rng, **params) for seq in seqs]
        assert isinstance(out, Ragged) and out.seq_type is type(seqs[0])
        np.testing.assert_array_equal(out.values,
                                      np.concatenate([getattr(e, payload) for e in expected]))
        assert out.lengths.tolist() == [len(e) for e in expected]
        assert out.sizes.tolist() == batch.sizes.tolist()
        for got, ref in zip(out, public, strict=True):
            for name in type(ref)._FIELDS:
                np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
        assert rng.bit_generator.state == loop_rng.bit_generator.state
        assert rng.bit_generator.state == op_rng.bit_generator.state
        np.testing.assert_array_equal(batch.values, before)

    @pytest.mark.parametrize("kind", [*WEAK_SIGNAL_KINDS, STRONG_SIGNAL_KIND,
                                      *WEAK_TOKEN_KINDS, STRONG_TOKEN_KIND])
    def test_output_checked_once_per_batch(self, kind, monkeypatch):
        seqs, augment = ragged_inputs(kind, [5, 9, 1, 30], 3)
        calls = count_checks(monkeypatch, type(seqs[0]))
        augment(Ragged.of(seqs, type(seqs[0])), kind, np.random.default_rng(0))
        assert len(calls) == 1

    def test_empty_list_draws_nothing_and_empty_batch_rejected(self):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        assert augment_signal([], "flip", rng) == []
        assert augment_tokens([], "contextual", rng, table=TABLE) == []
        assert rng.bit_generator.state == state
        with pytest.raises(ContractError, match="at least one sequence"):
            Ragged.of([], SignalSequence)

    def test_out_of_vocabulary_output_raises_once(self, monkeypatch):
        """A lexicon that names tokens outside the vocabulary fails the whole
        batch's one output check."""
        outside = SynonymLexicon(mapping={t: (t + 30,) for t in range(30)})
        seqs = [TokenSequence(np.arange(n) % 30, 30) for n in (4, 7, 2)]
        calls = count_checks(monkeypatch, TokenSequence)
        with pytest.raises(ContractError, match="token index outside the vocabulary"):
            augment_tokens(Ragged.of(seqs, TokenSequence), "synonym", np.random.default_rng(0),
                           lexicon=outside, p=1.0)
        assert len(calls) == 1

    def test_non_finite_output_raises_once(self, monkeypatch):
        seqs = [signal(np.zeros(n)) for n in (50, 80, 3)]
        calls = count_checks(monkeypatch, SignalSequence)
        with pytest.raises(ContractError, match="signal frames must be finite"):
            augment_signal(Ragged.of(seqs, SignalSequence), "gaussian_noise",
                           np.random.default_rng(0), scale=1e308)
        assert len(calls) == 1

    def test_vocabulary_mismatch_rejected_before_any_draw(self):
        batch = Ragged.of([TokenSequence([1, 2], 30), TokenSequence([3], 31)], TokenSequence)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ContractError, match="vocabulary does not match"):
            augment_tokens(batch, "contextual", rng, table=TABLE)
        with pytest.raises(ContractError, match="vocabulary does not match"):
            featurize_tokens_batch(batch, TABLE)
        assert rng.bit_generator.state == state

    def test_batch_of_the_other_payload_type_rejected(self):
        """A token batch is not augmented or featurized as signals, nor the
        reverse; a list of the other type still fails on its missing field."""
        tokens = Ragged.of([TokenSequence([1, 2], 30)], TokenSequence)
        signals = Ragged.of([signal([0.5, 1.5])], SignalSequence)
        with pytest.raises(ContractError, match="expected SignalSequence payloads"):
            augment_signal(tokens, "flip", np.random.default_rng(0))
        with pytest.raises(ContractError, match="expected TokenSequence payloads"):
            augment_tokens(signals, "swap", np.random.default_rng(0))
        with pytest.raises(ContractError, match="expected SignalSequence payloads"):
            FeatureExtractor("signal")(tokens)
        with pytest.raises(ContractError, match="expected TokenSequence payloads"):
            featurize_tokens_batch(signals, TABLE)
        with pytest.raises(AttributeError):
            augment_signal(list(tokens), "flip", np.random.default_rng(0))

    def test_iterating_gives_views_of_the_sequences(self):
        seqs = [TokenSequence([1, 2, 3], 30), TokenSequence([4], 31)]
        batch = Ragged.of(seqs, type(seqs[0]))
        out = list(batch)
        assert [s.tokens.tolist() for s in out] == [[1, 2, 3], [4]]
        assert [s.vocab_size for s in out] == [30, 31]
        assert all(type(s) is TokenSequence and s.tokens.base is batch.values for s in out)


def signed_zero_table(rng, vocab: int, width: int, exponent: int) -> EmbeddingTable:
    """A table of mixed magnitudes with ``-0.0`` and ``+0.0`` entries, and one
    row of each zero."""
    vectors = rng.standard_normal((vocab, width)) * 10.0 ** rng.integers(
        -exponent, exponent + 1, (vocab, 1))
    vectors[rng.random((vocab, width)) < 0.15] = -0.0
    vectors[rng.random((vocab, width)) < 0.15] = 0.0
    vectors[0], vectors[1] = -0.0, 0.0
    return EmbeddingTable(vectors=vectors)


class TestTokenFeaturizerByPosition:
    """The by-position token sums give, byte for byte, what ``featurize_tokens``
    gives row by row, on any width (width 1 takes the row loop), with signed
    zeros, and on a list or a batch."""

    @settings(max_examples=200, deadline=None)
    @given(width=st.integers(1, 40), lengths=st.lists(st.integers(1, 69), min_size=1, max_size=59),
           seed=st.integers(0, 2**32 - 1), exponent=st.integers(0, 8))
    @example(width=1, lengths=[3, 1, 69, 2], seed=0, exponent=4)
    @example(width=2, lengths=[1], seed=1, exponent=0)
    @example(width=5, lengths=[7] * 59, seed=2, exponent=8)
    @example(width=40, lengths=list(range(69, 10, -1)), seed=3, exponent=2)
    def test_equals_per_row_featurizer(self, width, lengths, seed, exponent):
        rng = np.random.default_rng(seed)
        vocab = int(rng.integers(2, 12))
        table = signed_zero_table(rng, vocab, width, exponent)
        seqs = [TokenSequence(rng.integers(0, vocab, n), vocab) for n in lengths]
        expected = np.stack([featurize_tokens(s, table, 40) for s in seqs]).tobytes()
        assert featurize_tokens_batch(seqs, table, 40).tobytes() == expected
        assert featurize_tokens_batch(Ragged.of(seqs, TokenSequence), table, 40).tobytes() == \
            expected


class TestSplitInvariance:
    """One dispatcher call over a list gives what consecutive calls over any
    split of that list give, empty parts included, and leaves the generator
    in the same state: the property that lets training augment an epoch's
    branch in one call instead of one call per step."""

    @pytest.mark.parametrize("kind", [*WEAK_SIGNAL_KINDS, STRONG_SIGNAL_KIND,
                                      *WEAK_TOKEN_KINDS, STRONG_TOKEN_KIND])
    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 300), max_size=16),
           cuts=st.lists(st.integers(0, 16), max_size=5), seed=st.integers(0, 2**32 - 1))
    def test_one_call_equals_consecutive_calls(self, kind, lengths, cuts, seed):
        if kind in WEAK_SIGNAL_KINDS or kind == STRONG_SIGNAL_KIND:
            seqs = [signal(np.random.default_rng([seed, n]).standard_normal(n),
                           sr=(8000, 16000)[n % 2]) for n in lengths]
            augment, fields = augment_signal, ("frames", "sample_rate")
        else:
            seqs = [TokenSequence(np.random.default_rng([seed, n]).integers(0, 30, n), 30)
                    for n in lengths]
            augment = partial(augment_tokens, lexicon=LEXICON, table=TABLE)
            fields = ("tokens", "vocab_size")
        rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
        whole = augment(seqs, kind, rng)
        bounds = [0, *sorted(min(c, len(seqs)) for c in cuts), len(seqs)]
        parts = [out for a, b in zip(bounds, bounds[1:])
                 for out in augment(seqs[a:b], kind, rng2)]
        assert len(whole) == len(parts) == len(seqs)
        for a, b in zip(whole, parts):
            for name in fields:
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert rng.bit_generator.state == rng2.bit_generator.state


# Lexicon whose tokens have 0 to 4 alternatives: no change at 0, a
# replacement whatever v is at 1, a pick by v over n = 2, 3 and 4.
RAGGED = SynonymLexicon(mapping={
    t: tuple((t + k) % 30 for k in range(1, t % 5 + 1)) for t in range(30) if t % 5})
# (kind, resource keywords, the alternatives the kind's operator replaces from)
REPLACE_CASES = [
    ("synonym", {"lexicon": LEXICON}, LEXICON.mapping.get),
    ("synonym", {"lexicon": RAGGED}, RAGGED.mapping.get),
    ("contextual", {"table": TABLE}, TABLE.neighbour_lists(5).__getitem__),
]


def loop_replace(seq, alternatives, rng, p):
    """Reference: the replace rule as a per-token loop, one pair of draws each."""
    tokens = seq.tokens.tolist()
    for j, tok in enumerate(tokens):
        u, v = rng.random(2)
        alts = alternatives(tok)
        if alts and u < p:
            tokens[j] = alts[int(v * len(alts))]
    return TokenSequence(tokens=tokens, vocab_size=seq.vocab_size)


class TestReplaceRule:
    """The replace operators' one body equals ``loop_replace`` over each
    sequence in turn, on any bit generator: the same tokens, vocabulary
    sizes and final generator state."""

    @pytest.mark.parametrize("bit_generator",
                             [np.random.PCG64, np.random.MT19937, np.random.Philox])
    @pytest.mark.parametrize("case", range(len(REPLACE_CASES)))
    @settings(max_examples=30, deadline=None)
    @given(lengths=st.lists(st.integers(1, 400), max_size=20), seed=st.integers(0, 2**32 - 1),
           p=st.floats(0.0, 1.0))
    @example(lengths=[], seed=0, p=0.5)
    @example(lengths=[1, 1, 2], seed=3, p=1.0)
    @example(lengths=[40, 7], seed=4, p=0.0)
    @example(lengths=[2, 2], seed=2, p=1.0)   # tokens 15 and 25: no RAGGED alternative
    def test_body_equals_loop(self, bit_generator, case, lengths, seed, p):
        kind, resources, alternatives = REPLACE_CASES[case]
        seqs = [TokenSequence(np.random.default_rng([seed, n]).integers(0, 30, n), 30)
                for n in lengths]
        rng, slow = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        out = augment_tokens(seqs, kind, rng, p=p, **resources)
        expected = [loop_replace(seq, alternatives, slow, p) for seq in seqs]
        assert [s.tokens.tolist() for s in out] == [s.tokens.tolist() for s in expected]
        assert [s.vocab_size for s in out] == [s.vocab_size for s in expected]
        np.testing.assert_equal(rng.bit_generator.state, slow.bit_generator.state)

    @pytest.mark.parametrize("case", range(len(REPLACE_CASES)))
    def test_one_call_is_one_draw(self, case):
        """A list call advances the generator as one ``random((total, 2))``
        does, and at ``p = 1`` every token with alternatives takes one."""
        kind, resources, alternatives = REPLACE_CASES[case]
        seqs = [TokenSequence(np.arange(n) % 30, 30) for n in (30, 7, 12)]
        rng, reference = np.random.default_rng(9), np.random.default_rng(9)
        out = augment_tokens(seqs, kind, rng, p=1.0, **resources)
        reference.random((sum(len(s.tokens) for s in seqs), 2))
        np.testing.assert_equal(rng.bit_generator.state, reference.bit_generator.state)
        for seq, new in zip(seqs, out):
            for tok, rep in zip(seq.tokens.tolist(), new.tokens.tolist()):
                assert rep in (alternatives(tok) or [tok])

    def test_largest_draw_picks_the_last_alternative(self):
        """``floor(v * n)`` stays below n for the largest double below 1."""
        v = np.nextafter(1.0, 0.0)
        assert [int(np.floor(v * n)) for n in range(1, 1001)] == list(range(1000))


class TestFromConcatenated:
    """The batch constructor cuts one array into sequences and checks it as
    the per-sequence constructor would check each part."""

    def test_cuts_in_order(self):
        seqs = TokenSequence.from_concatenated(np.arange(6), [2, 1, 3], [6, 3, 8])
        assert [s.tokens.tolist() for s in seqs] == [[0, 1], [2], [3, 4, 5]]
        assert [s.vocab_size for s in seqs] == [6, 3, 8]
        assert all(type(s) is TokenSequence and s.tokens.dtype == int for s in seqs)

    @pytest.mark.parametrize("tokens, lengths, vocab_sizes, bad_part", [
        ([0, -1, 2], [3], [5], 0),
        ([0, 1, 5], [3], [5], 0),
        ([0, 1, 4, 2], [2, 2], [5, 4], 1),
        ([0, 1, 2], [1, 2], [5, 0], 1),
        ([0, 1, 2], [3, 0], [5, 5], 1),
    ], ids=["negative", "out-of-vocabulary", "outside-own-vocabulary", "vocab-zero",
            "empty"])
    def test_rejects_as_the_constructor_does(self, tokens, lengths, vocab_sizes, bad_part):
        ends = np.cumsum(lengths)
        parts = [(tokens[end - n:end], v) for end, n, v in zip(ends, lengths, vocab_sizes)]
        with pytest.raises(ContractError) as per_sequence:
            TokenSequence(np.array(parts[bad_part][0], dtype=int), parts[bad_part][1])
        with pytest.raises(ContractError) as batched:
            TokenSequence.from_concatenated(tokens, lengths, vocab_sizes)
        assert str(batched.value) == str(per_sequence.value)

    def test_rejects_a_two_dimensional_array(self):
        with pytest.raises(ContractError, match="non-empty and 1-D"):
            TokenSequence.from_concatenated(np.zeros((2, 2), dtype=int), [2, 2], [3, 3])


class TestSignalFromConcatenated:
    """The signal batch constructor cuts one frame array into sequences and
    checks it as the per-sequence constructor would check each part."""

    def test_cuts_in_order(self):
        seqs = SignalSequence.from_concatenated(np.arange(6), [2, 1, 3], [16000, 8000, 22050])
        assert [s.frames.tolist() for s in seqs] == [[0.0, 1.0], [2.0], [3.0, 4.0, 5.0]]
        assert [s.sample_rate for s in seqs] == [16000, 8000, 22050]
        assert all(type(s) is SignalSequence and s.frames.dtype == float for s in seqs)

    @pytest.mark.parametrize("frames, lengths, sample_rates, bad_part", [
        ([0.0, 1.0, 2.0], [3, 0], [16000, 16000], 1),
        ([0.0, np.nan, 2.0], [1, 2], [16000, 16000], 1),
        ([np.inf, 1.0, 2.0], [3], [16000], 0),
        ([0.0, 1.0, 2.0], [1, 2], [16000, 0], 1),
        ([0.0, 1.0, 2.0], [2, 1], [-8000, 16000], 0),
    ], ids=["empty", "nan", "inf", "rate-zero", "rate-negative"])
    def test_rejects_as_the_constructor_does(self, frames, lengths, sample_rates, bad_part):
        ends = np.cumsum(lengths)
        parts = [(frames[end - n:end], r) for end, n, r in zip(ends, lengths, sample_rates)]
        with pytest.raises(ContractError) as per_sequence:
            SignalSequence(np.array(parts[bad_part][0], dtype=float), parts[bad_part][1])
        with pytest.raises(ContractError) as batched:
            SignalSequence.from_concatenated(frames, lengths, sample_rates)
        assert str(batched.value) == str(per_sequence.value)

    def test_rejects_a_two_dimensional_array(self):
        with pytest.raises(ContractError, match="non-empty 1-D frame array"):
            SignalSequence.from_concatenated(np.zeros((2, 2)), [2, 2], [16000, 16000])


class TestBatchSizesAndEmptyBatches:
    """A batch keeps an integer size dtype whatever integer types its sizes
    mix, and an empty batch is a contract error."""

    def test_uint64_and_int_sizes_in_one_batch(self):
        seqs = SignalSequence.from_concatenated(np.ones(6), [5, 1], [np.uint64(5), 16000])
        assert [s.sample_rate for s in seqs] == [5, 16000]
        tokens = TokenSequence.from_concatenated([1, 2], [1, 1], [np.uint64(30), np.int64(3)])
        assert [t.vocab_size for t in tokens] == [30, 3]

    def test_uint64_and_int_sizes_through_an_operator(self):
        seqs = [SignalSequence(np.ones(3), sample_rate=np.uint64(5)),
                SignalSequence(np.ones(3), sample_rate=16000)]
        out = augment_signal(seqs, "flip", np.random.default_rng(0))
        assert [s.sample_rate for s in out] == [5, 16000]

    @pytest.mark.parametrize("seq_type", [SignalSequence, TokenSequence])
    def test_empty_batch_rejected(self, seq_type):
        with pytest.raises(ContractError, match="^a batch needs at least one sequence$"):
            seq_type.from_concatenated([], [], [])


class TestPayloadSizes:
    """A sample rate or vocabulary size is a positive integer of any integer
    type: NaN, a fraction, a whole float and a bool are not integers."""

    @pytest.mark.parametrize("make, message", [
        (lambda: SignalSequence(np.ones(3), sample_rate=float("nan")),
         "sample_rate must be an integer"),
        (lambda: SignalSequence(np.ones(3), sample_rate=16000.5), "sample_rate must be an integer"),
        (lambda: SignalSequence(np.ones(3), sample_rate=16000.0), "sample_rate must be an integer"),
        (lambda: SignalSequence(np.ones(3), sample_rate=True), "sample_rate must be an integer"),
        (lambda: SignalSequence(np.ones(3), sample_rate=0), "sample_rate must be positive"),
        (lambda: TokenSequence([1], vocab_size=float("nan")), "vocab_size must be an integer"),
        (lambda: TokenSequence([1], vocab_size=30.5), "vocab_size must be an integer"),
        (lambda: TokenSequence([1], vocab_size=-30), "vocab_size must be positive"),
        (lambda: SignalSequence.from_concatenated([0.0, 1.0], [1, 1], [16000, float("nan")]),
         "sample_rate must be an integer"),
        (lambda: TokenSequence.from_concatenated([1, 2], [1, 1], [30, 30.5]),
         "vocab_size must be an integer"),
        (lambda: SignalSequence(np.ones(5), sample_rate=10 ** 30), "sample_rate must be an integer"),
        (lambda: SignalSequence(np.ones(5), sample_rate=2 ** 63), "sample_rate must be an integer"),
        (lambda: TokenSequence([1], vocab_size=10 ** 30), "vocab_size must be an integer"),
        (lambda: TokenSequence([1], vocab_size=np.uint64(2 ** 63)), "vocab_size must be an integer"),
    ], ids=["rate-nan", "rate-fraction", "rate-whole-float", "rate-bool", "rate-zero",
            "vocab-nan", "vocab-fraction", "vocab-negative", "batch-rate-nan",
            "batch-vocab-fraction", "rate-past-int64", "rate-2**63", "vocab-past-int64",
            "vocab-uint64-2**63"])
    def test_bad_size_rejected(self, make, message):
        with pytest.raises(ContractError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("size", [2 ** 63 - 1, 2 ** 63, 10 ** 30])
    def test_one_rule_for_one_sequence_and_a_batch(self, size):
        """A size a lone sequence takes, a batch of it and of another takes too,
        and an augmentation of the sequence keeps it."""
        def outcome(make):
            try:
                return make()
            except ContractError as exc:
                return str(exc)
        alone = outcome(lambda: SignalSequence(np.ones(5), sample_rate=size))
        batch = outcome(lambda: SignalSequence.from_concatenated(np.ones(6), [5, 1],
                                                                 [size, 16000]))
        assert isinstance(alone, str) == isinstance(batch, str)
        if isinstance(alone, str):
            assert alone == batch == "sample_rate must be an integer"
        else:
            flipped = flip_segment(alone, np.random.default_rng(0))
            assert flipped.sample_rate == size

    def test_numpy_integer_sizes_accepted(self):
        assert SignalSequence(np.ones(3), sample_rate=np.int32(8000)).sample_rate == 8000
        assert TokenSequence([1], vocab_size=np.uint16(30)).vocab_size == 30


class TestRoleAssignment:
    def test_strong_and_weak_kinds(self):
        assert STRONG_SIGNAL_KIND == "gaussian_noise"
        assert STRONG_TOKEN_KIND == "contextual"
        assert set(WEAK_SIGNAL_KINDS) == {"flip", "time_mask", "pitch_shift"}
        assert set(WEAK_TOKEN_KINDS) == {"swap", "delete", "synonym"}


class TestFeaturizers:
    def test_constant_signal(self):
        seq = signal(np.full(30, 2.5))
        feats = featurize_signal(seq, bins=3)
        np.testing.assert_allclose(feats.reshape(3, 4),
                                   [[2.5, 0.0, 2.5, 2.5]] * 3)

    def test_single_bin_extremes(self):
        feats = featurize_signal(signal([0.0, 1.0]), bins=1)
        np.testing.assert_allclose(feats, [0.5, 0.5, 0.0, 1.0])

    def test_signal_deterministic(self, rng):
        seq = random_signal(rng)
        np.testing.assert_array_equal(featurize_signal(seq, 4), featurize_signal(seq, 4))

    def test_single_token_is_its_row(self):
        table = EmbeddingTable.from_seed(vocab_size=8, dim=5, seed=1)
        seq = TokenSequence(tokens=np.array([3]), vocab_size=8)
        feats = featurize_tokens(seq, table, max_length=10)
        np.testing.assert_array_equal(feats[:-1], table.vectors[3])
        assert feats[-1] == 1 / 10

    def test_token_order_free(self, rng):
        table = EmbeddingTable.from_seed(vocab_size=8, dim=5, seed=1)
        toks = rng.integers(0, 8, 12)
        a = featurize_tokens(TokenSequence(toks, 8), table)
        b = featurize_tokens(TokenSequence(toks[::-1].copy(), 8), table)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_two_token_mean(self):
        vectors = np.array([[1.0, 3.0], [5.0, 7.0], [0.0, 0.0]])
        table = EmbeddingTable(vectors=vectors)
        feats = featurize_tokens(TokenSequence(np.array([0, 1]), 3), table, max_length=4)
        np.testing.assert_allclose(feats, [3.0, 5.0, 0.5])

    def test_extractor_dims(self):
        table = EmbeddingTable.from_seed(vocab_size=8, dim=5, seed=1)
        assert FeatureExtractor("signal", bins=6).dim == 24
        assert FeatureExtractor("tokens", table=table).dim == 6

    def test_extractor_rejects_bad_modality(self):
        with pytest.raises(ConfigError):
            FeatureExtractor("video")


class TestBatchedFeaturizer:
    """The batched featurizers give the same bits as the per-sample ones."""

    @settings(max_examples=150, deadline=None)
    @given(bins=st.integers(1, 13),
           lengths=st.lists(st.integers(1, 400), min_size=1, max_size=24),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-6, 1.0, 3.0, 1e6]))
    @example(bins=13, lengths=[1, 5, 12, 13, 14, 400], seed=0, scale=1.0)
    @example(bins=8, lengths=[1], seed=1, scale=1.0)
    @example(bins=1, lengths=[1, 1, 2], seed=2, scale=1.0)
    def test_signal_batch_equals_stacked(self, bins, lengths, seed, scale):
        rng = np.random.default_rng(seed)
        seqs = [signal(scale * rng.standard_normal(n)) for n in lengths]
        expected = np.stack([featurize_signal(s, bins) for s in seqs])
        np.testing.assert_array_equal(featurize_signal_batch(seqs, bins), expected)
        np.testing.assert_array_equal(FeatureExtractor("signal", bins=bins)(seqs), expected)

    def test_short_sequence_spans_stay_zero(self):
        feats = featurize_signal_batch([signal([2.0, 4.0]), signal(np.arange(6.0))], bins=4)
        assert feats.shape == (2, 16)
        np.testing.assert_array_equal(feats[0], [2, 0, 2, 2, 4, 0, 4, 4] + [0] * 8)

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_token_path_equals_stacked(self, lengths, seed):
        rng = np.random.default_rng(seed)
        table = EmbeddingTable.from_seed(vocab_size=20, dim=5, seed=3)
        seqs = [TokenSequence(rng.integers(0, 20, n), 20) for n in lengths]
        extractor = FeatureExtractor("tokens", max_token_len=16, table=table)
        expected = np.stack([featurize_tokens(s, table, 16) for s in seqs])
        np.testing.assert_array_equal(extractor(seqs), expected)

    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(1, 400), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 24),
           exponent=st.integers(0, 8))
    def test_token_batch_equals_stacked_on_any_table(self, lengths, seed, dim, exponent):
        rng = np.random.default_rng(seed)
        table = EmbeddingTable(vectors=rng.standard_normal((20, dim))
                               * 10.0 ** rng.integers(-exponent, exponent + 1, (20, 1)))
        seqs = [TokenSequence(rng.integers(0, 20, n), 20) for n in lengths]
        expected = np.stack([featurize_tokens(s, table, 50) for s in seqs])
        assert featurize_tokens_batch(seqs, table, 50).tobytes() == expected.tobytes()

    def test_token_batch_checks_like_the_reference(self):
        table = EmbeddingTable.from_seed(vocab_size=8, dim=5, seed=1)
        with pytest.raises(ConfigError, match="max_length"):
            featurize_tokens_batch([TokenSequence(np.arange(3), 8)], table, 0)
        with pytest.raises(ContractError, match="vocabulary does not match"):
            featurize_tokens_batch([TokenSequence(np.arange(3), 8),
                                    TokenSequence(np.arange(3), 9)], table)

    def test_empty_list_rejected(self):
        table = EmbeddingTable.from_seed(vocab_size=8, dim=5, seed=1)
        for extractor in (FeatureExtractor("signal"), FeatureExtractor("tokens", table=table)):
            with pytest.raises(ContractError):
                extractor([])


class TestNearestNeighbours:
    def test_excludes_self_and_orders_by_similarity(self):
        vectors = np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0], [-1.0, 0.0]])
        table = EmbeddingTable(vectors=vectors)
        neigh = nearest_neighbours(table, 0, n=3)
        assert neigh.tolist() == [1, 2, 3]
        assert 0 not in neigh

    def test_vocab_mismatch_rejected(self, rng):
        table = EmbeddingTable.from_seed(vocab_size=9, dim=4, seed=0)
        seq = random_tokens(rng, vocab=7)
        with pytest.raises(ContractError):
            augment_tokens([seq], "contextual", rng, table=table)


def _range_cases():
    """``(keyword, TrainConfig key, call)`` for every config field that an
    operator or featurizer checks; ``call(**{keyword: value})`` runs one
    function that takes the keyword on a small payload."""
    seq = signal(np.sin(np.arange(60.0)))
    tokens = TokenSequence(np.arange(12) % 9, 9)
    table = EmbeddingTable.from_seed(vocab_size=9, dim=3, seed=1)
    lexicon = SynonymLexicon.from_groups(9)

    def operator(kind):
        if kind in WEAK_SIGNAL_KINDS + (STRONG_SIGNAL_KIND,):
            return partial(augment_signal, [seq], kind, np.random.default_rng(0))
        return partial(augment_tokens, [tokens], kind, np.random.default_rng(0),
                       lexicon=lexicon, table=table)
    cases = [(keyword, key, kind, operator(kind))
             for kind, params in _AUG_PARAMS.items() for keyword, key in params.items()] + [
        ("bins", "signal_bins", "featurize_signal", partial(featurize_signal, seq)),
        ("bins", "signal_bins", "featurize_signal_batch",
         partial(featurize_signal_batch, [seq])),
        ("max_length", "token_max_len", "featurize_tokens",
         partial(featurize_tokens, tokens, table)),
        ("max_length", "token_max_len", "featurize_tokens_batch",
         partial(featurize_tokens_batch, [tokens], table))]
    return [pytest.param(keyword, key, call, id=f"{key}-{function}")
            for keyword, key, function, call in cases]


def _outcome(call, name: str) -> str:
    """``accepted``, or the ConfigError's message, which must name ``name``."""
    try:
        call()
    except ConfigError as err:
        assert str(err).startswith(f"{name} must "), str(err)
        return str(err).removeprefix(name)
    return "accepted"


class TestConfigAgreesWithFunctions:
    """TrainConfig and the function a field feeds accept the same values and
    reject the same ones, each naming its own key or keyword."""

    @pytest.mark.parametrize("keyword, key, call", _range_cases())
    def test_boundary_values(self, keyword, key, call):
        values = [-1, 0, 0.5, 1, 2.0] + {"p": [1.0000001],
                                    "max_steps": [MAX_PITCH_STEPS + 1]}.get(keyword, [])
        for value in values:
            config = _outcome(lambda: TrainConfig(**{key: value}), key)
            function = _outcome(lambda: call(**{keyword: value}), keyword)
            assert config == function, (value, config, function)
