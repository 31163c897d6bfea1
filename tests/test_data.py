"""Corpus schema, serialization round-trips, stratified splitting, the
synthetic generator, and batch iteration."""

import base64
import json
import os
import tempfile

import numpy as np
import pytest
from conftest import BAD_VERSION_2_RECORDS
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimatch.augment import SignalSequence, TokenSequence
from semimatch.data import (
    Corpus,
    GeneratorConfig,
    Sample,
    SplitSpec,
    corpus_to_text,
    load_corpus,
    make_batches,
    save_corpus,
    stratified_split,
    synthesize_corpus,
)
from semimatch.errors import ConfigError, ContractError, SchemaError

TABLE_EMOTION_COUNTS = (402, 406, 399, 498, 1096, 403, 406)
TABLE_INTENT_COUNTS = (343, 377, 348, 314, 912, 536, 421, 359)


def labelled_sample(i, emotion=0, intent=0):
    return Sample(id=f"s{i}", modality="signal",
                  payload=SignalSequence(np.ones(4)), emotion=emotion, intent=intent)


def small_config(**kwargs):
    defaults = dict(emotion_counts=(6, 6, 6), intent_counts=(9, 9),
                    unlabelled_count=5, min_len=8, max_len=16, seed=3)
    defaults.update(kwargs)
    return GeneratorConfig(**defaults)


class TestSampleAndCorpus:
    def test_single_label_rejected(self):
        with pytest.raises(SchemaError):
            Sample(id="x", modality="signal", payload=SignalSequence(np.ones(3)),
                   emotion=1, intent=None)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SchemaError):
            Corpus(labelled=[labelled_sample(1), labelled_sample(1)], unlabelled=[],
                   emotion_names=["a", "b"], intent_names=["c", "d"])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(SchemaError):
            Corpus(labelled=[labelled_sample(1, emotion=5)], unlabelled=[],
                   emotion_names=["a", "b"], intent_names=["c", "d"])


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        corpus = synthesize_corpus(small_config(modality_mix=0.5))
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, str(path))
        loaded = load_corpus(str(path))

        assert loaded.emotion_names == corpus.emotion_names
        assert loaded.intent_names == corpus.intent_names
        assert loaded.lexicon.mapping == corpus.lexicon.mapping
        np.testing.assert_array_equal(loaded.embedding.vectors, corpus.embedding.vectors)
        for got, exp in zip(loaded.labelled + loaded.unlabelled,
                            corpus.labelled + corpus.unlabelled):
            assert got.id == exp.id
            assert got.modality == exp.modality
            assert got.emotion == exp.emotion and got.intent == exp.intent
            if got.modality == "signal":
                np.testing.assert_array_equal(got.payload.frames, exp.payload.frames)
                assert got.payload.sample_rate == exp.payload.sample_rate
            else:
                np.testing.assert_array_equal(got.payload.tokens, exp.payload.tokens)
                assert got.payload.vocab_size == exp.payload.vocab_size

    def test_sizes_preserved(self, tmp_path):
        corpus = synthesize_corpus(small_config())
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, str(path))
        loaded = load_corpus(str(path))
        assert len(loaded.labelled) == 18 and len(loaded.unlabelled) == 5

    def test_malformed_line_names_line_number(self, tmp_path):
        corpus = synthesize_corpus(small_config(unlabelled_count=2))
        text = corpus_to_text(corpus).splitlines()
        text[4] = "{not json"
        path = tmp_path / "broken.jsonl"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(SchemaError, match="line 5"):
            load_corpus(str(path))

    def test_one_label_record_rejected(self, tmp_path):
        corpus = synthesize_corpus(small_config(unlabelled_count=0))
        lines = corpus_to_text(corpus).splitlines()
        record = lines[1].replace('"intent"', '"ignored"')
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([lines[0], record]) + "\n")
        with pytest.raises(SchemaError, match="line 2"):
            load_corpus(str(path))

    def test_out_of_range_label_rejected(self, tmp_path):
        corpus = synthesize_corpus(small_config(unlabelled_count=0))
        lines = corpus_to_text(corpus).splitlines()
        record = lines[1].replace('"emotion": 0', '"emotion": 99') \
                         .replace('"emotion": 1', '"emotion": 99') \
                         .replace('"emotion": 2', '"emotion": 99')
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([lines[0], record]) + "\n")
        with pytest.raises(SchemaError):
            load_corpus(str(path))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        path.write_text('{"id": "a", "modality": "signal", "payload": [1.0]}\n')
        with pytest.raises(SchemaError, match="line 1"):
            load_corpus(str(path))


class TestStrictFieldTypes:
    """Labels, sample rates, vocabulary sizes and tokens must be JSON ints
    and class names lists of strings; anything else is a SchemaError naming
    the line, never a silent coercion."""

    def _load(self, tmp_path, header=None, record=None, **generator):
        corpus = synthesize_corpus(small_config(unlabelled_count=0, **generator))
        lines = corpus_to_text(corpus).splitlines()[:2]
        parsed = [json.loads(line) for line in lines]
        parsed[0].update(header or {})
        parsed[1].update(record or {})
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(json.dumps(obj) for obj in parsed) + "\n")
        return load_corpus(str(path))

    @pytest.mark.parametrize("key", ["emotion", "intent"])
    @pytest.mark.parametrize("value", [1.7, 1.0, True, "1"])
    def test_label_must_be_json_int(self, tmp_path, key, value):
        with pytest.raises(SchemaError, match=f"line 2: {key} must be a JSON integer"):
            self._load(tmp_path, record={key: value})

    @pytest.mark.parametrize("key", ["emotion_names", "intent_names"])
    @pytest.mark.parametrize("value", ["ab", ["a", 1], {"a": 0, "b": 1}])
    def test_names_must_be_list_of_strings(self, tmp_path, key, value):
        with pytest.raises(SchemaError, match=f"line 1: {key} must be a list of strings"):
            self._load(tmp_path, header={key: value})

    @pytest.mark.parametrize("modality_mix, key", [(1.0, "sample_rate"), (0.0, "vocab_size")])
    @pytest.mark.parametrize("value", [16000.7, 30.5, 30.0, True, "30"])
    def test_size_field_must_be_json_int(self, tmp_path, modality_mix, key, value):
        with pytest.raises(SchemaError, match=f"line 2: {key} must be a JSON integer"):
            self._load(tmp_path, record={key: value}, modality_mix=modality_mix)

    @pytest.mark.parametrize("token", [1.7, 1.0, True, "1", None])
    def test_tokens_must_be_json_ints(self, tmp_path, token):
        corpus = synthesize_corpus(small_config(unlabelled_count=0, modality_mix=0.0))
        payload = [int(t) for t in corpus.labelled[0].payload.tokens]
        payload[len(payload) // 2] = token
        with pytest.raises(SchemaError, match="line 2: token payload must be a list of JSON"):
            self._load(tmp_path, record={"payload": payload}, modality_mix=0.0)

    @pytest.mark.parametrize("section, key, value, message", [
        ("lexicon", "0", [1.7, 2], "lexicon alternative must be a JSON integer"),
        ("lexicon", "0", [True, 2], "lexicon alternative must be a JSON integer"),
        ("lexicon", "0", [99, 2], "outside the vocabulary"),
        ("lexicon", "0", [-1, 2], "outside the vocabulary"),
        ("lexicon", "-1", [1, 2], "outside the vocabulary"),
        ("lexicon", "01", [1, 2], "not a decimal token index"),
        ("embedding", "dim", 16.9, "dim must be a JSON integer"),
        ("embedding", "seed", 1.5, "seed must be a JSON integer"),
        ("embedding", "vocab_size", 30.0, "vocab_size must be a JSON integer"),
        ("embedding", "group_size", 0, "group_size >= 1"),
    ])
    def test_header_fields_strict(self, tmp_path, section, key, value, message):
        corpus = synthesize_corpus(small_config(unlabelled_count=0, modality_mix=0.0))
        header = json.loads(corpus_to_text(corpus).splitlines()[0])
        header[section][key] = value
        with pytest.raises(SchemaError, match=f"line 1: .*{message}"):
            self._load(tmp_path, header={section: header[section]}, modality_mix=0.0)


def as_version_1(text: str) -> str:
    """A version-2 corpus text restated at version 1: each signal record's
    ``frames`` becomes a ``payload`` list of JSON numbers, in its place."""
    def restate(key, value):
        if key != "frames":
            return key, value
        return "payload", np.frombuffer(base64.b64decode(value), "<f8").tolist()

    header, *records = map(json.loads, text.splitlines())
    header["version"] = 1
    records = [dict(restate(*item) for item in record.items()) for record in records]
    return "\n".join(map(json.dumps, [header] + records)) + "\n"


def assert_same_corpus(got: Corpus, expected: Corpus):
    """Names, resources, and every sample's id, labels and payload bits."""
    assert got.emotion_names == expected.emotion_names
    assert got.intent_names == expected.intent_names
    assert (got.lexicon is None) == (expected.lexicon is None)
    if got.lexicon is not None:
        assert got.lexicon.mapping == expected.lexicon.mapping
        assert got.embedding.vectors.tobytes() == expected.embedding.vectors.tobytes()
    assert len(got.labelled) == len(expected.labelled)
    assert len(got.unlabelled) == len(expected.unlabelled)
    for a, b in zip(got.labelled + got.unlabelled, expected.labelled + expected.unlabelled):
        assert (a.id, a.modality, a.emotion, a.intent) == (b.id, b.modality, b.emotion, b.intent)
        if a.modality == "signal":
            assert a.payload.sample_rate == b.payload.sample_rate
            frames = a.payload.frames
            assert frames.dtype == np.float64 and frames.dtype.isnative
            assert frames.flags.writeable
            assert frames.tobytes() == b.payload.frames.tobytes()
        else:
            assert a.payload.vocab_size == b.payload.vocab_size
            assert a.payload.tokens.tolist() == b.payload.tokens.tolist()


def write_and_load(text: str, directory: str) -> Corpus:
    path = os.path.join(directory, "corpus.jsonl")
    with open(path, "w") as handle:
        handle.write(text)
    return load_corpus(path)


FINFO = np.finfo(np.float64)
EDGE_FRAMES = [-0.0, 0.0, FINFO.smallest_subnormal, -FINFO.smallest_subnormal,
               FINFO.smallest_normal * 0.5, 1e308, -1e308, FINFO.max, -FINFO.max]


class TestFormatVersions:
    """Corpora are written at version 2 (signal frames as base64 float64
    bytes) and read at versions 1 and 2 with the same meaning."""

    @settings(max_examples=60, deadline=None)
    @given(signals=st.lists(st.tuples(
               st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=1, max_size=30),
               st.integers(1, 10**6),
               st.one_of(st.none(), st.tuples(st.integers(0, 1), st.integers(0, 2)))),
               min_size=1, max_size=6),
           tokens=st.lists(st.integers(0, 9), min_size=1, max_size=12))
    @example(signals=[([-0.0], 16000, None)], tokens=[0])
    @example(signals=[([x], 8000, (1, 2)) for x in EDGE_FRAMES], tokens=[3])
    @example(signals=[(EDGE_FRAMES, 1, (0, 0))], tokens=[9, 9])
    def test_versions_1_and_2_load_identically(self, signals, tokens):
        samples = [Sample(id=f"s{i}", modality="signal",
                          payload=SignalSequence(np.array(frames), sample_rate),
                          emotion=None if labels is None else labels[0],
                          intent=None if labels is None else labels[1])
                   for i, (frames, sample_rate, labels) in enumerate(signals)]
        samples.append(Sample(id="t", modality="tokens",
                              payload=TokenSequence(np.array(tokens), vocab_size=10)))
        corpus = Corpus(labelled=[s for s in samples if s.is_labelled],
                        unlabelled=[s for s in samples if not s.is_labelled],
                        emotion_names=["a", "b"], intent_names=["x", "y", "z"])
        text = corpus_to_text(corpus)
        assert json.loads(text.splitlines()[0])["version"] == 2
        with tempfile.TemporaryDirectory() as directory:
            version_2 = write_and_load(text, directory)
            version_1 = write_and_load(as_version_1(text), directory)
        assert_same_corpus(version_2, corpus)
        assert_same_corpus(version_1, corpus)
        assert_same_corpus(version_2, version_1)

    def test_signal_record_keys(self):
        corpus = synthesize_corpus(small_config(unlabelled_count=1, modality_mix=0.5))
        records = [json.loads(line) for line in corpus_to_text(corpus).splitlines()[1:]]
        keys = {r["modality"]: list(r) for r in records if "emotion" in r}
        assert keys == {
            "signal": ["id", "modality", "frames", "sample_rate", "emotion", "intent"],
            "tokens": ["id", "modality", "payload", "vocab_size", "emotion", "intent"]}

    @pytest.mark.parametrize("modality, edit, needle",
                             [case[1:] for case in BAD_VERSION_2_RECORDS],
                             ids=[case[0] for case in BAD_VERSION_2_RECORDS])
    def test_bad_version_2_record_names_file_and_line(self, tmp_path, modality, edit, needle):
        corpus = synthesize_corpus(small_config(
            unlabelled_count=0, modality_mix=1.0 if modality == "signal" else 0.0))
        lines = corpus_to_text(corpus).splitlines()
        record = json.loads(lines[1])
        edit(record)
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join([lines[0], json.dumps(record)] + lines[2:]) + "\n")
        with pytest.raises(SchemaError) as info:
            load_corpus(str(path))
        assert str(info.value).startswith(f"{path} line 2: ")
        assert needle in str(info.value)

    def test_version_2_field_in_a_version_1_file_rejected(self, tmp_path):
        """The key set is per version: ``frames`` in a version-1 file is an
        unknown field."""
        corpus = synthesize_corpus(small_config(unlabelled_count=0))
        lines = corpus_to_text(corpus).splitlines()
        path = tmp_path / "corpus.jsonl"
        path.write_text(lines[0].replace('"version": 2', '"version": 1') + "\n"
                        + "\n".join(lines[1:]) + "\n")
        with pytest.raises(SchemaError, match=r"line 2: unknown field\(s\) \['frames'\] "
                                              r"in a version-1 signal record"):
            load_corpus(str(path))


# Written by the version-1 writer, from synthesize_corpus(FIXTURE_CONFIG).
FIXTURE_V1 = os.path.join(os.path.dirname(__file__), "data", "corpus_v1.jsonl")
FIXTURE_CONFIG = GeneratorConfig(emotion_counts=(2, 2, 2), intent_counts=(3, 3),
                                 unlabelled_count=4, min_len=1, max_len=24,
                                 modality_mix=0.5, vocab_size=12, embedding_dim=4, seed=5)


class TestVersion1Fixture:
    def test_loads_as_generated(self):
        with open(FIXTURE_V1) as handle:
            assert json.loads(handle.readline())["version"] == 1
        loaded = load_corpus(FIXTURE_V1)
        assert {s.modality for s in loaded.labelled} == {"signal", "tokens"}
        assert loaded.unlabelled
        assert_same_corpus(loaded, synthesize_corpus(FIXTURE_CONFIG))

    def test_resave_gives_version_2_with_same_content(self, tmp_path):
        first = load_corpus(FIXTURE_V1)
        path = tmp_path / "corpus.jsonl"
        save_corpus(first, str(path))
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["version"] == 2
        assert all("frames" in json.loads(line) for line in lines[1:] if '"signal"' in line)
        assert_same_corpus(load_corpus(str(path)), first)

    @pytest.mark.parametrize("frame", ["1.5", True, None, [1.5]])
    def test_non_number_frame_rejected(self, tmp_path, frame):
        """A version-1 frame must be a JSON number: ``"1.5"`` and ``true``
        are errors, not 1.5 and 1.0."""
        with open(FIXTURE_V1) as handle:
            lines = handle.read().splitlines()
        at = next(i for i, line in enumerate(lines) if '"signal"' in line)
        record = json.loads(lines[at])
        record["payload"][0] = frame
        lines[at] = json.dumps(record)
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=f"line {at + 1}: signal payload must be a list "
                                              "of JSON numbers"):
            load_corpus(str(path))


class TestSplitSpec:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.5, 0.4, 0.2)

    def test_zero_valid_and_test_allowed(self):
        SplitSpec(1.0, 0.0, 0.0)
        SplitSpec(0.84, 0.16, 0.0)


class TestStratifiedSplit:
    def test_table_neutral_class_split(self):
        samples = [labelled_sample(i) for i in range(970)]
        train, valid, test = stratified_split(samples, SplitSpec(0.84, 0.16, 0.0, seed=5))
        assert (len(train), len(valid), len(test)) == (815, 155, 0)

    def test_everything_in_train(self):
        samples = [labelled_sample(i, emotion=i % 2, intent=i % 2) for i in range(40)]
        train, valid, test = stratified_split(samples, SplitSpec(1.0, 0.0, 0.0))
        assert len(train) == 40 and not valid and not test

    def test_exact_partition_and_proportionality(self):
        rng = np.random.default_rng(0)
        samples = []
        for i in range(400):
            samples.append(labelled_sample(i, emotion=int(rng.integers(3)),
                                           intent=int(rng.integers(2))))
        fractions = (0.7, 0.2, 0.1)
        for seed in range(100):
            spec = SplitSpec(*fractions, seed=seed)
            train, valid, test = stratified_split(samples, spec)
            ids = sorted(s.id for s in train + valid + test)
            assert ids == sorted(s.id for s in samples)  # exact partition
            for (emo, intent), members in _group(samples).items():
                n = len(members)
                for split, frac in zip((train, valid, test), fractions):
                    got = sum(1 for s in split
                              if (s.emotion, s.intent) == (emo, intent))
                    assert abs(got - n * frac) <= 1.0

    def test_tiny_class_goes_to_train_with_warning(self):
        samples = [labelled_sample(0, 0, 0), labelled_sample(1, 0, 0),
                   labelled_sample(2, 1, 1)]
        with pytest.warns(UserWarning, match="fewer samples"):
            train, valid, test = stratified_split(samples, SplitSpec(0.5, 0.3, 0.2))
        assert sum(1 for s in train if s.emotion == 1) == 1

    def test_one_warning_names_every_class_placed_in_train(self):
        samples = [labelled_sample(i, 0, 0) for i in range(6)] + [
            labelled_sample(6, 1, 0), labelled_sample(7, 2, 1), labelled_sample(8, 2, 1)]
        with pytest.warns(UserWarning) as caught:
            stratified_split(samples, SplitSpec(0.5, 0.3, 0.2))
        assert [str(w.message) for w in caught] == [
            "joint classes with fewer samples than splits (3), "
            "all placed in train: (1, 0): 1, (2, 1): 2"]

    def test_unlabelled_rejected(self):
        bad = Sample(id="u", modality="signal", payload=SignalSequence(np.ones(3)))
        with pytest.raises(ContractError):
            stratified_split([bad], SplitSpec(0.8, 0.2, 0.0))


def _group(samples):
    groups = {}
    for s in samples:
        groups.setdefault((s.emotion, s.intent), []).append(s)
    return groups


class TestSynthesizeCorpus:
    def test_table_scale_counts_exact(self):
        config = GeneratorConfig(emotion_counts=TABLE_EMOTION_COUNTS,
                                 intent_counts=TABLE_INTENT_COUNTS,
                                 unlabelled_count=0, min_len=8, max_len=12, seed=1)
        corpus = synthesize_corpus(config)
        assert len(corpus.labelled) == 3610
        emo_counts = np.bincount([s.emotion for s in corpus.labelled], minlength=7)
        int_counts = np.bincount([s.intent for s in corpus.labelled], minlength=8)
        assert tuple(emo_counts) == TABLE_EMOTION_COUNTS
        assert tuple(int_counts) == TABLE_INTENT_COUNTS

    def test_margins_exact_at_every_correlation(self):
        for corr in (0.0, 0.25, 0.5, 0.75, 1.0):
            corpus = synthesize_corpus(small_config(correlation=corr))
            emo = np.bincount([s.emotion for s in corpus.labelled], minlength=3)
            intent = np.bincount([s.intent for s in corpus.labelled], minlength=2)
            assert tuple(emo) == (6, 6, 6)
            assert tuple(intent) == (9, 9)

    def test_full_correlation_is_a_function_of_emotion(self):
        config = GeneratorConfig(emotion_counts=(10, 10, 10, 10),
                                 intent_counts=(10, 10, 10, 10),
                                 unlabelled_count=0, min_len=8, max_len=12,
                                 correlation=1.0, seed=2)
        corpus = synthesize_corpus(config)
        mapping = {}
        for s in corpus.labelled:
            mapping.setdefault(s.emotion, set()).add(s.intent)
        assert all(len(v) == 1 for v in mapping.values())

    def test_seed_reproducible(self):
        a = synthesize_corpus(small_config(modality_mix=0.5))
        b = synthesize_corpus(small_config(modality_mix=0.5))
        assert corpus_to_text(a) == corpus_to_text(b)

    def test_unlabelled_carry_no_labels(self):
        corpus = synthesize_corpus(small_config())
        assert all(not s.is_labelled for s in corpus.unlabelled)
        assert len(corpus.unlabelled) == 5

    def test_modality_mix(self):
        corpus = synthesize_corpus(small_config(modality_mix=0.0))
        assert all(s.modality == "tokens" for s in corpus.labelled)
        corpus = synthesize_corpus(small_config(modality_mix=1.0))
        assert all(s.modality == "signal" for s in corpus.labelled)

    def test_mismatched_totals_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(emotion_counts=(5, 5), intent_counts=(4, 4))

    def test_zero_separation_trains_to_chance(self):
        from semimatch.trainer import TrainConfig, train
        from semimatch.augment import FeatureExtractor
        from semimatch.model import forward_batch

        config = GeneratorConfig(emotion_counts=(80,) * 7, intent_counts=(70,) * 8,
                                 unlabelled_count=0, min_len=60, max_len=100,
                                 separation=0.0, correlation=0.0, seed=11)
        corpus = synthesize_corpus(config)
        tc = TrainConfig(method="baseline", epochs=10, learning_rate=3e-3,
                         batch_size=16, seed=11, train_frac=0.5, valid_frac=0.1,
                         test_frac=0.4)
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            result = train(tc, corpus)
        extractor = FeatureExtractor("signal", bins=tc.signal_bins)
        split = SplitSpec(tc.train_frac, tc.valid_frac, tc.test_frac, seed=tc.seed)
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            _, _, test = stratified_split(corpus.labelled, split)
        feats = extractor([s.payload for s in test])
        p_emo, p_int = forward_batch(result.model, feats)
        acc_emo = np.mean(np.argmax(p_emo, 1) == [s.emotion for s in test])
        acc_int = np.mean(np.argmax(p_int, 1) == [s.intent for s in test])
        assert abs(acc_emo - 1 / 7) <= 0.05
        assert abs(acc_int - 1 / 8) <= 0.05


class TestMakeBatches:
    def _pools(self, n_lab=32, n_unlab=20):
        lab = [labelled_sample(i, emotion=0, intent=0) for i in range(n_lab)]
        unlab = [Sample(id=f"u{i}", modality="signal",
                        payload=SignalSequence(np.ones(4))) for i in range(n_unlab)]
        return lab, unlab

    def test_steps_per_epoch(self):
        lab, unlab = self._pools()
        assert len(make_batches(lab, unlab, 8, 1.0, seed=0)) == 4

    def test_mu_zero_gives_empty_unlabelled(self):
        lab, unlab = self._pools()
        steps = make_batches(lab, unlab, 8, 0.0, seed=0)
        assert all(not u for _, u in steps)

    def test_labelled_pool_consumed_exactly_once(self):
        lab, unlab = self._pools(n_lab=30)  # final short batch included
        steps = make_batches(lab, unlab, 8, 1.0, seed=1)
        seen = [s.id for lab_batch, _ in steps for s in lab_batch]
        assert sorted(seen) == sorted(s.id for s in lab)
        assert len(steps) == 4 and len(steps[-1][0]) == 6

    def test_deterministic(self):
        lab, unlab = self._pools()
        a = make_batches(lab, unlab, 8, 1.5, seed=7)
        b = make_batches(lab, unlab, 8, 1.5, seed=7)
        for (la, ua), (lb, ub) in zip(a, b):
            assert [s.id for s in la] == [s.id for s in lb]
            assert [s.id for s in ua] == [s.id for s in ub]

    def test_labelled_schedule_independent_of_mu(self):
        lab, unlab = self._pools()
        a = make_batches(lab, unlab, 8, 0.0, seed=7)
        b = make_batches(lab, unlab, 8, 2.0, seed=7)
        for (la, _), (lb, _) in zip(a, b):
            assert [s.id for s in la] == [s.id for s in lb]

    def test_empty_labelled_rejected(self):
        with pytest.raises(ConfigError):
            make_batches([], [], 8, 1.0, seed=0)

    def test_whole_pool_per_step_draws_without_replacement(self):
        """A step that asks for exactly the pool size takes each sample once."""
        lab, unlab = self._pools(n_unlab=20)
        steps = make_batches(lab, unlab, 4, 5.0, seed=3)
        for _, unlab_batch in steps:
            assert sorted(s.id for s in unlab_batch) == sorted(s.id for s in unlab)

    @pytest.mark.parametrize("ratio, batch_size",
                             [(1e300, 8), (1e18, 8), (2.0 ** 60, 1), (1e308, 10 ** 10)])
    def test_count_beyond_an_index_array_rejected(self, ratio, batch_size):
        lab, unlab = self._pools()
        with pytest.raises(ConfigError, match="2\\*\\*60 or more unlabelled samples"):
            make_batches(lab, unlab, batch_size, ratio, seed=0)
