"""Config parsing and the command-line surface, end to end on tiny corpora."""

import contextlib
import json
import sys
import warnings
from dataclasses import MISSING, fields

import pytest
from conftest import BAD_VERSION_2_RECORDS, BAD_VERSION_3_RECORDS, as_version_2

import semimatch.cli
from semimatch.augment import FeatureExtractor
from semimatch.cli import main
from semimatch.config import (
    GENERATOR_CONFIG_KEYS,
    TRAIN_CONFIG_KEYS,
    generator_config_from_text,
    train_config_from_text,
)
from semimatch.data import GeneratorConfig, SplitSpec, load_corpus, stratified_split
from semimatch.errors import ConfigError
from semimatch.persist import load_checkpoint
from semimatch.trainer import TrainConfig, evaluate

GEN_CFG = """
# three emotion classes, two intent classes
emotion_counts = 12, 12, 12
intent_counts = 18, 18
unlabelled_count = 30
min_len = 40
max_len = 80
separation = 1.0
correlation = 0.0
seed = 9
"""

TRAIN_CFG = """
method = fixmatch
modality = signal
weak_aug_kind = flip
epochs = 2
batch_size = 8
unlabelled_ratio = 1
learning_rate = 3e-3
tau = 0.6
hidden_size = 8
seed = 4
train_frac = 0.6
valid_frac = 0.2
test_frac = 0.2
"""

# the BAD_VERSION_2_RECORDS texts that binascii.a2b_base64 raises itself
A2B_BASE64_ERRORS = ("Only base64 data is allowed", "Incorrect padding",
                     "Excess data after padding", "Leading padding not allowed",
                     "only ASCII characters")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gen.cfg").write_text(GEN_CFG)
    (tmp_path / "train.cfg").write_text(TRAIN_CFG)
    return tmp_path


def make_corpus(workdir):
    assert main(["gen-data", "--config", "gen.cfg", "--out", "corpus.jsonl"]) == 0
    return workdir / "corpus.jsonl"


def edited_corpus(workdir, version, edit):
    """``make_corpus``'s file at ``version`` (2: restated from the version-3
    file written), with ``edit`` applied to the record on line 2."""
    path = make_corpus(workdir)
    text = path.read_text()
    lines = (as_version_2(text) if version == 2 else text).splitlines()
    record = json.loads(lines[1])
    edit(record)
    path.write_text("\n".join([lines[0], json.dumps(record)] + lines[2:]) + "\n")
    return path


def no_training(config, corpus):
    """A ``train`` stand-in for runs that must fail before training."""
    raise AssertionError(f"train() ran for method '{config.method}'")


class TestConfigParsing:
    def test_round_trip_values(self):
        config = train_config_from_text(TRAIN_CFG)
        assert config.method == "fixmatch"
        assert config.epochs == 2
        assert config.learning_rate == 3e-3
        assert config.weak_aug_kind == "flip"
        assert config.strong_aug_kind == "gaussian_noise"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown train config key"):
            train_config_from_text("methodology = fixmatch\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            train_config_from_text("epochs = 2\nepochs = 3\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="epochs"):
            train_config_from_text("epochs = soon\n")

    def test_generator_lists(self):
        config = generator_config_from_text(GEN_CFG)
        assert config.emotion_counts == (12, 12, 12)
        assert config.intent_counts == (18, 18)
        assert config.unlabelled_count == 30

    def test_generator_requires_counts(self):
        with pytest.raises(ConfigError, match="emotion_counts"):
            generator_config_from_text("unlabelled_count = 5\n")

    def test_comments_and_blanks_ignored(self):
        config = train_config_from_text("\n# comment\nepochs = 7\n\n")
        assert config.epochs == 7

    @pytest.mark.parametrize("command, text, message", [
        ("train", "epochs = 2\nepochs 3\n", "line 2: expected 'key = value'"),
        ("train", "# a\n = 3\n", "line 2: empty key"),
        ("train", "epochs = 2\n\nepochs = 3\n", "line 3: duplicate key 'epochs'"),
        ("train", "epochs = 2\nmethodology = fixmatch\n",
         "line 2: unknown train config key 'methodology'"),
        ("train", "epochs = 2\nhidden_size = x\n",
         "line 2: key 'hidden_size': expected an integer, got 'x'"),
        ("train", "epochs = 2\nnoise_scale = -1\n", "noise_scale must be non-negative"),
        ("gen-data", "emotion_counts = 2, 2\nintent_counts = 2, x\n",
         "line 2: key 'intent_counts': expected an integer, got 'x'"),
        ("gen-data", "seed = 1\nsize = 3\n", "line 2: unknown generator config key 'size'"),
        ("gen-data", "unlabelled_count = 5\n", "generator config needs 'emotion_counts'"),
        ("train", "epochs = 2\nseed = -1\n", "seed must be non-negative"),
        ("gen-data", "emotion_counts = 2, 2\nintent_counts = 2, 2\nseed = -1\n",
         "seed must be non-negative"),
        ("gen-data", "emotion_counts = 2, 2\nintent_counts = 2, 2\nemotion_names = a, b, c\n",
         "emotion_names must name each of the 2 classes of emotion_counts, "
         "got ['a', 'b', 'c']"),
        ("gen-data", "emotion_counts = 2, 2\nintent_counts = 2, 2\nemotion_names = a\n",
         "emotion_names must name each of the 2 classes of emotion_counts, got ['a']"),
        ("gen-data", "emotion_counts = 2, 2\nintent_counts = 1, 3\nintent_names = x, y, z\n",
         "intent_names must name each of the 2 classes of intent_counts, "
         "got ['x', 'y', 'z']"),
        ("gen-data", "emotion_counts = 2, 2\nintent_counts = 2, 2\nsample_rate = 0\n",
         "sample_rate must be >= 1, got 0"),
        ("gen-data", "emotion_counts = 2, 2\nintent_counts = 2, 2\nmodality_mix = 0\n"
         "vocab_size = 1\n", "vocab_size must be >= 2, got 1"),
        ("gen-data", "emotion_counts = 2, 2\nintent_counts = 2, 2\nembedding_dim = 0\n",
         "embedding_dim must be >= 1, got 0"),
        ("gen-data", "emotion_counts = 2, 2\nintent_counts = 2, 2\n"
         "sample_rate = 9223372036854775808\n",
         "sample_rate must be below 2**63, got 9223372036854775808"),
        ("gen-data", "emotion_counts = 2, 2\nintent_counts = 2, 2\nmodality_mix = 0\n"
         "vocab_size = 9223372036854775808\n",
         "vocab_size must be below 2**63, got 9223372036854775808"),
        ("gen-data", "emotion_counts = 3, 3\nintent_counts = 3, 3\n"
         "vocab_size = 2305843009213693952\n",
         "vocab_size 2305843009213693952 needs float64 token tables of 2 x "
         "2305843009213693952 entries, more than one numpy array can hold"),
        ("gen-data", "emotion_counts = 3, 3\nintent_counts = 3, 3\nmodality_mix = 0.5\n"
         "embedding_dim = 2305843009213693952\n",
         "embedding_dim 2305843009213693952 needs a float64 embedding table of 30 x "
         "2305843009213693952 entries, more than one numpy array can hold"),
        ("train", "epochs = 2\nweak_aug_on_unlabelled = maybe\n",
         "line 2: key 'weak_aug_on_unlabelled': expected a boolean, got 'maybe'"),
        ("train", "tau = abc\n", "line 1: key 'tau': expected a number, got 'abc'"),
        ("train", "method = fixmatch\nbatch_size = 4\nunlabelled_ratio = 0.1\n",
         "unlabelled_ratio 0.1 at batch_size 4 draws no unlabelled sample per step, "
         "which method 'fixmatch' needs"),
        ("train", "method = fullmatch\nunlabelled_ratio = 0.05\n",
         "unlabelled_ratio 0.05 at batch_size 8 draws no unlabelled sample per step, "
         "which method 'fullmatch' needs"),
    ])
    def test_file_errors_name_file_and_line(self, tmp_path, monkeypatch, capsys,
                                            command, text, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_text(text)
        (tmp_path / "corpus.jsonl").write_text("")
        argv = {"train": ["train", "--corpus", "corpus.jsonl"], "gen-data": ["gen-data"]}[command]
        assert main(argv + ["--config", "bad.cfg", "--out", "run"]) == 1
        assert capsys.readouterr().err == f"error: bad.cfg: {message}\n"
        assert not (tmp_path / "run").exists()


NON_DEFAULT_TRAIN = TrainConfig(
    method="fullmatch", modality="tokens", weak_aug_kind="swap", weak_aug_on_unlabelled=False,
    epochs=3, batch_size=5, unlabelled_ratio=2.5, learning_rate=1.25e-3, lr_decay=0.875,
    tau=0.8, sigma=0.9, unsup_weight=0.25, negative_weight=0.125, entropy_weight=0.375,
    intent_weight=0.75, hidden_size=12, seed=11, train_frac=0.5, valid_frac=0.25,
    test_frac=0.25, signal_bins=6, token_max_len=40, flip_max_seconds=1.5,
    time_mask_max_frames=900, pitch_max_steps=2, noise_scale=0.3, swap_count=2,
    delete_prob=0.05, synonym_prob=0.3, contextual_prob=0.2, contextual_neighbors=3)

NON_DEFAULT_GENERATOR = GeneratorConfig(
    emotion_counts=(5, 6, 7), intent_counts=(9, 9), unlabelled_count=4, min_len=20,
    max_len=30, separation=2.5, correlation=0.6, modality_mix=0.5, sample_rate=8000,
    vocab_size=24, embedding_dim=8, seed=3, emotion_names=("calm", "joy", "rage"),
    intent_names=("ask", "tell"))

# each featurizer and augmentation field with a value just outside the range
# its function enforces
AUG_OUT_OF_RANGE = [
    ("signal_bins", "0"), ("token_max_len", "0"), ("flip_max_seconds", "0"), ("time_mask_max_frames", "0"), ("pitch_max_steps", "0"),
    ("noise_scale", "-1"), ("swap_count", "-1"), ("delete_prob", "7"),
    ("synonym_prob", "-0.5"), ("contextual_prob", "1.5"), ("contextual_neighbors", "0"),
]

FLOAT_TRAIN_FIELDS = [f.name for f in fields(TrainConfig) if f.type == "float"]
FLOAT_GENERATOR_FIELDS = [f.name for f in fields(GeneratorConfig) if f.type == "float"]


def config_text(config) -> str:
    """Every field of a config dataclass as one ``key = value`` line."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        lines.append(f"{f.name} = {text}\n")
    return "".join(lines)


class TestConfigFields:
    @pytest.mark.parametrize("config, parse", [
        (NON_DEFAULT_TRAIN, train_config_from_text),
        (NON_DEFAULT_GENERATOR, generator_config_from_text),
    ])
    def test_every_field_round_trips(self, config, parse):
        for f in fields(config):
            if f.default is not MISSING:
                assert getattr(config, f.name) != f.default, f.name
        assert parse(config_text(config)) == config

    def test_keys_follow_field_order(self):
        assert TRAIN_CONFIG_KEYS == tuple(f.name for f in fields(TrainConfig))
        assert GENERATOR_CONFIG_KEYS == tuple(f.name for f in fields(GeneratorConfig))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", FLOAT_TRAIN_FIELDS + FLOAT_GENERATOR_FIELDS)
    def test_non_finite_number_rejected(self, key, value, tmp_path, monkeypatch, capsys):
        if key in FLOAT_TRAIN_FIELDS:
            text, parse = f"{key} = {value}\n", train_config_from_text
            argv = ["train", "--config", "key.cfg", "--corpus", "corpus.jsonl", "--out", "run"]
        else:
            text = f"emotion_counts = 2, 2\nintent_counts = 2, 2\n{key} = {value}\n"
            parse = generator_config_from_text
            argv = ["gen-data", "--config", "key.cfg", "--out", "run"]
        with pytest.raises(ConfigError, match=key):
            parse(text)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "key.cfg").write_text(text)
        (tmp_path / "corpus.jsonl").write_text("")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("modality", ["signal", "tokens"])
    @pytest.mark.parametrize("key, value", AUG_OUT_OF_RANGE)
    def test_augmentation_out_of_range_rejected(self, workdir, capsys, modality, key, value):
        """Rejected before the corpus is read, naming the file and the key,
        whether or not the modality's featurizer and operators use the field."""
        (workdir / "gen.cfg").write_text(GEN_CFG + "modality_mix = 0.5\n")
        make_corpus(workdir)
        text = TRAIN_CFG.replace("weak_aug_kind = flip\n", "").replace(
            "modality = signal", f"modality = {modality}")
        (workdir / "aug.cfg").write_text(text + f"{key} = {value}\n")
        assert main(["train", "--config", "aug.cfg", "--corpus", "corpus.jsonl",
                     "--out", "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: aug.cfg: {key} must") and err.count("\n") == 1
        assert not (workdir / "run").exists()

    # finite values that loaded and then failed in training: an OverflowError
    # and a ValueError ("array is too big") in the unlabelled draw, an
    # OverflowError in the pitch factor, and a 14.9 GiB step table; training
    # is stubbed out so that no run allocates
    @pytest.mark.parametrize("key, value", [
        ("unlabelled_ratio", "1e300"), ("unlabelled_ratio", "1e18"),
        ("pitch_max_steps", "20000"), ("pitch_max_steps", "2000000000")])
    def test_unrunnable_finite_value_rejected(self, workdir, capsys, monkeypatch, key, value):
        monkeypatch.setattr(semimatch.cli, "train", no_training)
        (workdir / "corpus.jsonl").write_text("")
        text = TRAIN_CFG.replace("unlabelled_ratio = 1\n", "") + f"{key} = {value}\n"
        (workdir / "big.cfg").write_text(text)
        assert main(["train", "--config", "big.cfg", "--corpus", "corpus.jsonl",
                     "--out", "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: big.cfg: {key} ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (workdir / "run").exists()

    @pytest.mark.parametrize("command", ["train", "gen-data"])
    def test_non_utf8_config_names_file(self, workdir, capsys, command):
        make_corpus(workdir)
        text = TRAIN_CFG if command == "train" else GEN_CFG
        (workdir / "bad.cfg").write_bytes(b"# caf\xe9\n" + text.encode())
        argv = {"train": ["train", "--corpus", "corpus.jsonl"], "gen-data": ["gen-data"]}[command]
        assert main(argv + ["--config", "bad.cfg", "--out", "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad.cfg: not UTF-8") and err.count("\n") == 1
        assert not (workdir / "run").exists()


class TestGenData:
    def test_writes_corpus(self, workdir):
        path = make_corpus(workdir)
        assert path.exists()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == "semimatch-corpus"

    def test_reruns_byte_identical(self, workdir):
        make_corpus(workdir)
        first = (workdir / "corpus.jsonl").read_bytes()
        assert main(["gen-data", "--config", "gen.cfg", "--out", "corpus.jsonl"]) == 0
        assert (workdir / "corpus.jsonl").read_bytes() == first

    def test_seed_override_changes_output(self, workdir):
        make_corpus(workdir)
        assert main(["gen-data", "--config", "gen.cfg", "--out", "other.jsonl",
                     "--seed", "77"]) == 0
        assert (workdir / "other.jsonl").read_bytes() != (workdir / "corpus.jsonl").read_bytes()

    @pytest.mark.parametrize("command", ["gen-data", "train", "sweep"])
    def test_negative_seed_option_named_before_any_file_is_read(self, workdir, capsys,
                                                                 command):
        """The error names ``--seed``, not the config file, which is never
        read: the corpus the train and sweep commands name does not exist."""
        argv = [command, "--config", "gen.cfg" if command == "gen-data" else "train.cfg",
                "--out", "out", "--seed", "-1"]
        if command != "gen-data":
            argv += ["--corpus", "missing.jsonl"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"
        assert not (workdir / "out").exists()

    def test_missing_config_fails_with_name(self, workdir, capsys):
        assert main(["gen-data", "--config", "nope.cfg", "--out", "x.jsonl"]) == 1
        assert "nope.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("mix, modality", [("0.0", "tokens"), ("1.0", "signal")])
    def test_separation_too_large_for_a_class_table(self, workdir, capsys, mix, modality):
        """One error line, no traceback, no numpy warning and no corpus file."""
        (workdir / "huge.cfg").write_text(GEN_CFG.replace("separation = 1.0", "separation = 1e308")
                                          + f"modality_mix = {mix}\n")
        assert main(["gen-data", "--config", "huge.cfg", "--out", "huge.jsonl"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: separation 1e+308 is too large: the {modality} table of "
                              "class (") and err.endswith(") is not finite\n")
        assert err.count("\n") == 1 and not (workdir / "huge.jsonl").exists()


class TestTrain:
    def test_outputs_written(self, workdir):
        make_corpus(workdir)
        assert main(["train", "--config", "train.cfg", "--corpus", "corpus.jsonl",
                     "--out", "run"]) == 0
        assert (workdir / "run/checkpoint.json").exists()
        csv_text = (workdir / "run/epochs.csv").read_text()
        assert csv_text.startswith("epoch,lr,")
        assert "np.float64" not in csv_text  # cells must be plain decimal literals
        summary = json.loads((workdir / "run/summary.json").read_text())
        assert summary["method"] == "fixmatch"
        assert 0.0 <= summary["val"]["jrbm"] <= 1.0

    @pytest.mark.parametrize("message, line", [
        ("", "error: out of memory\n"),
        ("Unable to allocate 58.0 EiB for an array with shape (8000000000000000000,) "
         "and data type int64",
         "error: Unable to allocate 58.0 EiB for an array with shape "
         "(8000000000000000000,) and data type int64\n")])
    def test_memory_error_is_one_line(self, workdir, capsys, monkeypatch, message, line):
        def out_of_memory(config, corpus):
            raise MemoryError(message)
        monkeypatch.setattr(semimatch.cli, "train", out_of_memory)
        make_corpus(workdir)
        capsys.readouterr()
        assert main(["train", "--config", "train.cfg", "--corpus", "corpus.jsonl",
                     "--out", "run"]) == 1
        assert capsys.readouterr().err == line
        assert not (workdir / "run").exists()

    def test_epoch_csv_bit_identical_across_runs(self, workdir):
        make_corpus(workdir)
        main(["train", "--config", "train.cfg", "--corpus", "corpus.jsonl", "--out", "a"])
        main(["train", "--config", "train.cfg", "--corpus", "corpus.jsonl", "--out", "b"])
        assert (workdir / "a/epochs.csv").read_bytes() == (workdir / "b/epochs.csv").read_bytes()

    def test_split_warning_is_one_stderr_line(self, workdir, capsys, monkeypatch):
        # many joint classes of one or two samples, all of them placed in train
        (workdir / "gen.cfg").write_text(
            "emotion_counts = 4, 4, 4, 4\nintent_counts = 4, 4, 4, 4\nseed = 9\n"
            "min_len = 40\nmax_len = 80\ncorrelation = 0.0\n")
        (workdir / "train.cfg").write_text(
            "epochs = 1\nhidden_size = 4\ntrain_frac = 0.6\nvalid_frac = 0.2\n"
            "test_frac = 0.2\n")
        make_corpus(workdir)
        capsys.readouterr()

        def show(message, category, filename, lineno, file=None, line=None):
            # the default display, which pytest replaces with its own record
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))
        monkeypatch.setattr(warnings, "showwarning", show)
        format_warning = warnings.formatwarning
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            assert main(["train", "--config", "train.cfg", "--corpus", "corpus.jsonl",
                         "--out", "run"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: joint classes with fewer samples")
        assert warnings.formatwarning is format_warning

    def test_missing_corpus_leaves_no_artifacts(self, workdir, capsys):
        assert main(["train", "--config", "train.cfg", "--corpus", "missing.jsonl",
                     "--out", "run"]) == 1
        assert "missing.jsonl" in capsys.readouterr().err
        assert not (workdir / "run").exists()

    def test_missing_config_named_in_error(self, workdir, capsys):
        make_corpus(workdir)
        assert main(["train", "--config", "missing.cfg", "--corpus", "corpus.jsonl",
                     "--out", "run"]) == 1
        assert "missing.cfg" in capsys.readouterr().err


class TestEvalAndFuse:
    def _train_two(self, workdir):
        # same seed keeps the data split shared, so predictions stay fusable;
        # the differing weak augmentation still gives two distinct models
        make_corpus(workdir)
        main(["train", "--config", "train.cfg", "--corpus", "corpus.jsonl", "--out", "m1"])
        (workdir / "train2.cfg").write_text(TRAIN_CFG.replace("flip", "pitch_shift"))
        main(["train", "--config", "train2.cfg", "--corpus", "corpus.jsonl", "--out", "m2"])

    def test_eval_outputs(self, workdir):
        self._train_two(workdir)
        assert main(["eval", "--checkpoints", "m1/checkpoint.json",
                     "--corpus", "corpus.jsonl", "--out", "eval1"]) == 0
        metrics = json.loads((workdir / "eval1/metrics.json").read_text())
        assert set(metrics) >= {"f1_emo", "f1_intent", "jrbm"}
        assert (workdir / "eval1/confusion_emotion.csv").exists()
        assert (workdir / "eval1/confusion_intent.csv").exists()
        preds = (workdir / "eval1/predictions.jsonl").read_text().splitlines()
        assert json.loads(preds[0])["format"] == "semimatch-predictions"
        row = json.loads(preds[1])
        assert len(row["emo_probs"]) == 3 and len(row["int_probs"]) == 2

    @pytest.mark.parametrize("split", ["test", "all"])
    def test_eval_metrics_equal_evaluate(self, workdir, split):
        make_corpus(workdir)
        main(["train", "--config", "train.cfg", "--corpus", "corpus.jsonl", "--out", "m1"])
        assert main(["eval", "--checkpoints", "m1/checkpoint.json", "--corpus", "corpus.jsonl",
                     "--out", "eval1", "--split", split]) == 0
        model, config, _, _ = load_checkpoint("m1/checkpoint.json")
        corpus = load_corpus("corpus.jsonl")
        pool = [s for s in corpus.labelled if s.modality == config.modality]
        if split == "test":
            spec = SplitSpec(config.train_frac, config.valid_frac, config.test_frac,
                             seed=config.seed)
            pool = stratified_split(pool, spec)[2]
        extractor = FeatureExtractor(config.modality, bins=config.signal_bins,
                                     max_token_len=config.token_max_len, table=corpus.embedding)
        expected = evaluate(model, pool, extractor).to_dict()
        written = json.loads((workdir / "eval1/metrics.json").read_text())
        assert written == json.loads(json.dumps(expected))

    def test_fuse_two_models(self, workdir):
        self._train_two(workdir)
        main(["eval", "--checkpoints", "m1/checkpoint.json", "--corpus", "corpus.jsonl",
              "--out", "eval1"])
        main(["eval", "--checkpoints", "m2/checkpoint.json", "--corpus", "corpus.jsonl",
              "--out", "eval2"])
        assert main(["fuse", "--checkpoints", "eval1/predictions.jsonl",
                     "eval2/predictions.jsonl", "--out", "fused"]) == 0
        metrics = json.loads((workdir / "fused/fused_metrics.json").read_text())
        assert 0.0 <= metrics["jrbm"] <= 1.0

    def test_fuse_needs_two_files(self, workdir, capsys):
        self._train_two(workdir)
        main(["eval", "--checkpoints", "m1/checkpoint.json", "--corpus", "corpus.jsonl",
              "--out", "eval1"])
        assert main(["fuse", "--checkpoints", "eval1/predictions.jsonl",
                     "--out", "fused"]) == 1
        assert "at least two" in capsys.readouterr().err

    def test_fuse_rejects_mismatched_ids(self, workdir, capsys):
        self._train_two(workdir)
        main(["eval", "--checkpoints", "m1/checkpoint.json", "--corpus", "corpus.jsonl",
              "--out", "eval1"])
        main(["eval", "--checkpoints", "m2/checkpoint.json", "--corpus", "corpus.jsonl",
              "--out", "eval2", "--split", "valid"])
        assert main(["fuse", "--checkpoints", "eval1/predictions.jsonl",
                     "eval2/predictions.jsonl", "--out", "fused"]) == 1
        assert "ids" in capsys.readouterr().err


class TestCorpusContentErrors:
    """A corpus without the samples a command needs is named in the error:
    exit 1, one stderr line, no traceback, no output directory."""

    TOKENS_CFG = TRAIN_CFG.replace("modality = signal", "modality = tokens").replace(
        "flip", "swap")

    def _rejected(self, workdir, capsys, argv, message):
        assert main(argv + ["--out", "out"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_no_unlabelled_samples(self, workdir, capsys, command):
        (workdir / "gen.cfg").write_text(GEN_CFG.replace("unlabelled_count = 30", ""))
        make_corpus(workdir)
        capsys.readouterr()
        self._rejected(workdir, capsys,
                       [command, "--config", "train.cfg", "--corpus", "corpus.jsonl"],
                       "method 'fixmatch' needs unlabelled data, and corpus corpus.jsonl "
                       "has no unlabelled signal samples")

    def test_sweep_checks_the_corpus_before_any_cell(self, workdir, capsys, monkeypatch):
        (workdir / "gen.cfg").write_text(GEN_CFG.replace("unlabelled_count = 30", ""))
        make_corpus(workdir)
        capsys.readouterr()
        monkeypatch.setattr(semimatch.cli, "train", no_training)
        self._rejected(workdir, capsys,
                       ["sweep", "--config", "train.cfg", "--corpus", "corpus.jsonl"],
                       "method 'fixmatch' needs unlabelled data, and corpus corpus.jsonl "
                       "has no unlabelled signal samples")

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_no_labelled_samples_of_the_modality(self, workdir, capsys, command):
        make_corpus(workdir)
        capsys.readouterr()
        (workdir / "tokens.cfg").write_text(self.TOKENS_CFG)
        self._rejected(workdir, capsys,
                       [command, "--config", "tokens.cfg", "--corpus", "corpus.jsonl"],
                       "corpus corpus.jsonl has no labelled tokens samples")

    @pytest.mark.parametrize("split", ["test", "all"])
    def test_eval_of_a_modality_the_corpus_lacks(self, workdir, capsys, split):
        (workdir / "mixed.cfg").write_text(GEN_CFG + "modality_mix = 0.5\n")
        assert main(["gen-data", "--config", "mixed.cfg", "--out", "mixed.jsonl"]) == 0
        make_corpus(workdir)
        (workdir / "tokens.cfg").write_text(self.TOKENS_CFG)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # tiny joint classes of the tokens half
            assert main(["train", "--config", "tokens.cfg", "--corpus", "mixed.jsonl",
                         "--out", "m"]) == 0
        capsys.readouterr()
        self._rejected(workdir, capsys, ["eval", "--checkpoints", "m/checkpoint.json",
                                         "--corpus", "corpus.jsonl", "--split", split],
                       "corpus corpus.jsonl has no labelled tokens samples")


class TestCorpusHeader:
    @pytest.mark.parametrize("change", [
        {"lexicon": [1, 2]},
        {"embedding": {"dim": 4, "seed": 0}},
        {"lexicon": {"0": [1.7]}},
        {"lexicon": {"0": [True]}},
        {"lexicon": {"0": [99]}, "embedding": {"vocab_size": 30, "dim": 4, "seed": 0}},
        {"lexicon": {"0": [-1]}, "embedding": {"vocab_size": 30, "dim": 4, "seed": 0}},
        {"embedding": {"vocab_size": 30, "dim": 16.9, "seed": 0}},
        {"embedding": {"vocab_size": 30, "dim": 4, "seed": 1.5}},
        {"embedding": {"vocab_size": 30.0, "dim": 4, "seed": 0}},
        {"embedding": {"vocab_size": 30, "dim": 4, "seed": 0, "group_size": 0}},
    ])
    def test_bad_header_rejected_on_line_1(self, workdir, capsys, change):
        path = make_corpus(workdir)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header.update(change)
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert main(["train", "--config", "train.cfg", "--corpus", "corpus.jsonl",
                     "--out", "run"]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "Traceback" not in err
        assert not (workdir / "run").exists()


class TestCorpusFieldTypes:
    """A float, bool or string where the corpus needs an int, or an id that
    is not a string, is an error on its line, not a silent coercion."""

    @pytest.mark.parametrize("modality_mix, field, value", [
        (1.0, "sample_rate", 16000.7),
        (0.0, "vocab_size", 30.5),
        (0.0, "token", 1.7),
        (0.0, "token", True),
        (1.0, "id", None),
        (1.0, "id", [1, 2]),
    ])
    def test_non_int_rejected_on_its_line(self, workdir, capsys, modality_mix, field, value):
        """A token is edited in a version-2 payload list; the other fields in
        the version-3 file the CLI writes."""
        (workdir / "gen.cfg").write_text(GEN_CFG + f"modality_mix = {modality_mix}\n")

        def edit(record):
            if field == "token":
                record["payload"][0] = value
            else:
                record[field] = value
        edited_corpus(workdir, 2 if field == "token" else 3, edit)
        assert main(["train", "--config", "train.cfg", "--corpus", "corpus.jsonl",
                     "--out", "run"]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err
        assert not (workdir / "run").exists()
        assert err.startswith("error: corpus.jsonl line 2: ") and err.count("\n") == 1

    def _bad_record_rejected(self, workdir, capsys, version, modality, edit, needle):
        mix = 1.0 if modality == "signal" else 0.0
        (workdir / "gen.cfg").write_text(GEN_CFG + f"modality_mix = {mix}\n")
        edited_corpus(workdir, version, edit)
        assert main(["train", "--config", "train.cfg", "--corpus", "corpus.jsonl",
                     "--out", "run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corpus.jsonl line 2: ") and err.count("\n") == 1
        assert needle in err and "Traceback" not in err
        # a2b_base64's own messages do not name the field; the reader adds it
        field = "tokens" if (version, modality) == (3, "tokens") else "frames"
        assert (f"line 2: {field}: " in err) == (needle in A2B_BASE64_ERRORS)
        assert not (workdir / "run").exists()

    @pytest.mark.parametrize("modality, edit, needle",
                             [case[1:] for case in BAD_VERSION_2_RECORDS],
                             ids=[case[0] for case in BAD_VERSION_2_RECORDS])
    def test_bad_version_2_record_rejected_on_its_line(self, workdir, capsys,
                                                       modality, edit, needle):
        """Base64, byte-count, finiteness and key-set errors of a version-2
        record, ``binascii.Error`` included, reach the CLI as one line."""
        self._bad_record_rejected(workdir, capsys, 2, modality, edit, needle)

    @pytest.mark.parametrize("modality, edit, needle",
                             [case[1:] for case in BAD_VERSION_3_RECORDS],
                             ids=[case[0] for case in BAD_VERSION_3_RECORDS])
    def test_bad_version_3_record_rejected_on_its_line(self, workdir, capsys,
                                                       modality, edit, needle):
        """The version-2 faults, and the base64, width, vocabulary and
        key-set errors of a version-3 token record, reach the CLI as one line."""
        self._bad_record_rejected(workdir, capsys, 3, modality, edit, needle)


class TestSweep:
    def test_sweep_csv_shape(self, workdir):
        make_corpus(workdir)
        assert main(["sweep", "--config", "train.cfg", "--corpus", "corpus.jsonl",
                     "--out", "sweep"]) == 0
        lines = (workdir / "sweep/sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["method", "augment"]
        assert "wo_weak_valid_jrbm" in header and "w_weak_test_jrbm" in header
        assert len(lines) == 1 + 1 + 6  # header + baseline + 2 methods x 3 kinds
        baseline = lines[1].split(",")
        assert baseline[0] == "baseline" and baseline[1] == "-"
        # the two ablation column groups repeat the baseline metrics
        assert baseline[2:6] == baseline[6:10]
        methods = {line.split(",")[0] for line in lines[2:]}
        assert methods == {"fixmatch", "fullmatch"}


class TestSweepSharedFeatures:
    """A sweep's cells share their feature rows: 7 distinct branches per
    epoch are augmented instead of 31, and the sweep writes the bytes its
    cells write when each trains with rows of its own."""

    @pytest.mark.parametrize("modality", ["signal", "tokens"])
    def test_shared_rows_write_the_same_bytes(self, workdir, monkeypatch, modality):
        (workdir / "gen.cfg").write_text(
            GEN_CFG + f"modality_mix = {1.0 if modality == 'signal' else 0.0}\n")
        make_corpus(workdir)
        if modality == "tokens":
            (workdir / "train.cfg").write_text(TestCorpusContentErrors.TOKENS_CFG)
        calls = []
        augment = getattr(semimatch.trainer, f"augment_{modality}")
        monkeypatch.setattr(semimatch.trainer, f"augment_{modality}",
                            lambda *args, **kwargs: calls.append(1) or augment(*args, **kwargs))

        def sweep(out):
            before = len(calls)
            assert main(["sweep", "--config", "train.cfg", "--corpus", "corpus.jsonl",
                         "--out", out]) == 0
            return (workdir / out / "sweep.csv").read_bytes(), len(calls) - before

        shared, again = sweep("shared"), sweep("again")
        monkeypatch.setattr(semimatch.cli, "shared_features",
                            lambda corpus: contextlib.nullcontext())
        alone = sweep("alone")
        # 2 epochs: 3 labelled weak + 3 unlabelled weak + 1 strong branch shared,
        # against 1 (baseline) + 6 x 3 (weak on) + 6 x 2 (weak off) alone
        assert (shared[1], again[1], alone[1]) == (14, 14, 62)
        assert shared[0] == again[0] == alone[0]

    def test_perfbench_call_contract(self, workdir, monkeypatch):
        """perfbench replaces ``semimatch.cli.train`` with a two-argument
        ``train(config, corpus)``, and checks a traced op's ``evaluate`` and
        ``make_batches`` counts against each run's epochs."""
        make_corpus(workdir)
        count, runs = None, []   # the current run's counts; every run's calls
        for name in ("evaluate", "make_batches"):
            fn = getattr(semimatch.trainer, name)

            def counted(*args, _name=name, _fn=fn, **kwargs):
                count[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(semimatch.trainer, name, counted)
        original = semimatch.cli.train

        def recording(*args, **kwargs):
            nonlocal count
            count = {"evaluate": 0, "make_batches": 0}
            result = original(*args, **kwargs)
            runs.append((len(args), kwargs, len(result.reports), count))
            return result
        monkeypatch.setattr(semimatch.cli, "train", recording)
        assert main(["sweep", "--config", "train.cfg", "--corpus", "corpus.jsonl",
                     "--out", "sweep"]) == 0
        assert runs == [(2, {}, 2, {"evaluate": 3, "make_batches": 2})] * 13


class TestGradcheckCommand:
    def test_passes_and_reports(self, capsys):
        assert main(["gradcheck", "--seed", "7", "--batches", "2"]) == 0
        out = capsys.readouterr().out
        assert "overall max relative error" in out
        assert "PASSED" in out


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["transmogrify"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["gradcheck", "--selfdestruct"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "semimatch" in capsys.readouterr().out

    def test_subcommand_help_documents_config_keys(self, capsys):
        assert main(["train", "--help"]) == 0
        out = capsys.readouterr().out
        for key in ("method", "tau", "sigma", "unsup_weight", "hidden_size"):
            assert key in out
