"""The shared file framing, through each loader and the command line: every
corpus, prediction dump and checkpoint is accepted intact or rejected with
an error that names the file (and the line, for line-delimited files)."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import semimatch.data
from semimatch.augment import EmbeddingTable, FeatureExtractor
from semimatch.cli import main
from semimatch.data import (
    GeneratorConfig,
    corpus_to_text,
    load_corpus,
    save_corpus,
    synthesize_corpus,
)
from semimatch.errors import ConfigError, SchemaError
from semimatch.fileio import atomic_write_text, jsonl_lines, read_jsonl
from semimatch.model import init_model
from semimatch.persist import (
    load_checkpoint,
    load_predictions,
    save_checkpoint,
    save_predictions,
)
from semimatch.trainer import TrainConfig

N_EMOTION, N_INTENT = 3, 2
TRAIN_CONFIG = TrainConfig(epochs=1, hidden_size=4, seed=4, train_frac=0.6,
                           valid_frac=0.2, test_frac=0.2)


@pytest.fixture
def files(tmp_path):
    """A corpus, two fusable prediction dumps and a checkpoint, all valid."""
    corpus = synthesize_corpus(GeneratorConfig(
        emotion_counts=(10,) * N_EMOTION, intent_counts=(15,) * N_INTENT,
        unlabelled_count=2, min_len=8, max_len=16, seed=3))
    paths = {name: tmp_path / name for name in
             ("corpus.jsonl", "p1.jsonl", "p2.jsonl", "checkpoint.json")}
    save_corpus(corpus, str(paths["corpus.jsonl"]))
    rng = np.random.default_rng(0)
    for name in ("p1.jsonl", "p2.jsonl"):
        save_predictions(str(paths[name]), ["a", "b", "c"], [0, 1, 2], [1, 0, 1],
                         rng.dirichlet(np.ones(N_EMOTION), 3),
                         rng.dirichlet(np.ones(N_INTENT), 3))
    dim = FeatureExtractor("signal", bins=TRAIN_CONFIG.signal_bins).dim
    model = init_model(dim, TRAIN_CONFIG.hidden_size, N_EMOTION, N_INTENT,
                       np.random.default_rng(1))
    save_checkpoint(str(paths["checkpoint.json"]), model, TRAIN_CONFIG,
                    corpus.emotion_names, corpus.intent_names)
    return paths


def run_main(kind, files, path, tmp_path):
    """The command that reads ``path`` as a file of ``kind``."""
    out = tmp_path / "out"
    corpus, checkpoint = str(files["corpus.jsonl"]), str(files["checkpoint.json"])
    argv = {
        "corpus": ["eval", "--checkpoints", checkpoint, "--corpus", str(path)],
        "predictions": ["fuse", "--checkpoints", str(files["p1.jsonl"]), str(path)],
        "checkpoint": ["eval", "--checkpoints", str(path), "--corpus", corpus],
    }[kind]
    return main(argv + ["--out", str(out)]), out


def assert_rejected(kind, files, path, tmp_path, capsys, *needles):
    """main() exits 1 with each needle in a one-line error, and writes nothing."""
    code, out = run_main(kind, files, path, tmp_path)
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err and err.startswith("error: ")
    assert err.count("\n") == 1, err
    for needle in needles:
        assert needle in err
    assert not out.exists()


def lines_of(path):
    return path.read_text().splitlines()


def write_lines(path, lines):
    """Write the lines as UTF-8; a lone surrogate ``"\\udcXX"`` writes the raw
    byte ``XX``, which is not UTF-8."""
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))


LOADERS = {"corpus": ("corpus.jsonl", load_corpus),
           "predictions": ("p2.jsonl", load_predictions)}


def _set_header(lines, **change):
    header = json.loads(lines[0])
    header.update(change)
    return [json.dumps(header)] + lines[1:]


# (case, edit of the file's lines, the line its error names)
FRAMING_CASES = [
    ("empty file", lambda lines: None, 1),
    ("blank line 1", lambda lines: [""] + lines[1:], 1),
    ("non-JSON line 1", lambda lines: ["{not json"] + lines[1:], 1),
    ("JSON array on line 1", lambda lines: ["[1, 2]"] + lines[1:], 1),
    ("wrong format", lambda lines: _set_header(lines, format="semimatch-other"), 1),
    ("wrong version", lambda lines: _set_header(lines, version=4), 1),
    ("float version", lambda lines: _set_header(lines, version=1.0), 1),
    ("missing version", lambda lines: [json.dumps(
        {k: v for k, v in json.loads(lines[0]).items() if k != "version"})] + lines[1:], 1),
    ("non-JSON record", lambda lines: lines[:2] + ["{not json"] + lines[3:], 3),
    ("non-object record", lambda lines: lines[:2] + ["[1, 2]"] + lines[3:], 3),
    ("deeply nested record", lambda lines: lines[:2] + ["[" * 100_000] + lines[3:], 3),
    ("string record", lambda lines: lines[:1] + ['"row"'] + lines[2:], 2),
    ("non-UTF-8 line 1", lambda lines: ["\udcff" + lines[0]] + lines[1:], 1),
    ("non-UTF-8 record", lambda lines: lines[:2] + [lines[2][:9] + "\udcff" + lines[2][9:]]
     + lines[3:], 3),
]


class TestAtomicWrite:
    def test_failed_replace_leaves_nothing(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            atomic_write_text(str(tmp_path / "out.jsonl"), "{}\n")
        assert list(tmp_path.iterdir()) == []

    def test_pieces_written_in_order(self, tmp_path):
        """A string is written whole; an iterable of strings piece by piece."""
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "abc")
        assert path.read_bytes() == b"abc"
        atomic_write_text(str(path), (piece for piece in ("a\n", "", "bc\n")))
        assert path.read_bytes() == b"a\nbc\n"

    def test_non_seed_embedding_writes_nothing(self, tmp_path):
        """The header is built before the temp file opens, so its error
        leaves the directory as it was."""
        corpus = synthesize_corpus(GeneratorConfig(
            emotion_counts=(4, 4), intent_counts=(4, 4), unlabelled_count=2, min_len=4,
            max_len=8, modality_mix=0.0, seed=1))
        corpus = dataclasses.replace(
            corpus, embedding=EmbeddingTable(vectors=corpus.embedding.vectors))
        with pytest.raises(ConfigError,
                           match="^only seed-built embedding tables can be serialized$"):
            save_corpus(corpus, str(tmp_path / "corpus.jsonl"))
        assert list(tmp_path.iterdir()) == []

    def test_fault_mid_stream_keeps_the_old_file(self, tmp_path, monkeypatch):
        """A record that fails once 100 records have reached the temp file
        leaves no temp file, and the file already at the path keeps its bytes."""
        corpus = synthesize_corpus(GeneratorConfig(
            emotion_counts=(30, 30), intent_counts=(30, 30), unlabelled_count=90, min_len=100,
            max_len=200, seed=2))
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"old bytes\n")
        serialized = []

        def failing_record(sample):
            if len(serialized) == 100:
                (tmp,) = tmp_path.glob(".tmp-*")
                assert tmp.stat().st_size > 0
                raise RuntimeError("record 100 failed")
            serialized.append(sample.id)
            return original(sample)

        original = semimatch.data._sample_record
        monkeypatch.setattr(semimatch.data, "_sample_record", failing_record)
        with pytest.raises(RuntimeError, match="record 100 failed"):
            save_corpus(corpus, str(path))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"old bytes\n"

    def test_save_corpus_peak_memory_is_a_line_not_the_file(self, tmp_path):
        """Lines are written one at a time: the traced allocation peak of a
        save stays under a quarter of the file size (holding the whole text
        once, as a joined string, would alone reach it)."""
        corpus = synthesize_corpus(GeneratorConfig(
            emotion_counts=(10, 10), intent_counts=(10, 10), unlabelled_count=380,
            min_len=160, max_len=320, modality_mix=1.0, seed=3))
        path = tmp_path / "corpus.jsonl"
        tracemalloc.start()
        try:
            save_corpus(corpus, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 500_000
        assert peak < size / 4, (peak, size)

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        """``semimatch eval`` in the C locale, without UTF-8 mode, writes a
        non-ASCII class name into its CSV as UTF-8."""
        names = ("calme", "colère", "喜び")
        corpus = synthesize_corpus(GeneratorConfig(
            emotion_counts=(10,) * N_EMOTION, intent_counts=(15,) * N_INTENT,
            unlabelled_count=2, min_len=8, max_len=16, seed=3, emotion_names=names))
        save_corpus(corpus, str(tmp_path / "corpus.jsonl"))
        dim = FeatureExtractor("signal", bins=TRAIN_CONFIG.signal_bins).dim
        model = init_model(dim, TRAIN_CONFIG.hidden_size, N_EMOTION, N_INTENT,
                           np.random.default_rng(1))
        save_checkpoint(str(tmp_path / "checkpoint.json"), model, TRAIN_CONFIG,
                        corpus.emotion_names, corpus.intent_names)
        src = os.path.dirname(os.path.dirname(semimatch.data.__file__))
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "semimatch.cli", "eval",
             "--checkpoints", str(tmp_path / "checkpoint.json"),
             "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        csv = (tmp_path / "out" / "confusion_emotion.csv").read_bytes().decode("utf-8")
        assert csv.splitlines()[0] == "true\\pred," + ",".join(names)


class TestLineFraming:
    @pytest.fixture(params=FRAMING_CASES, ids=[case[0] for case in FRAMING_CASES])
    def case(self, request):
        return request.param

    def _broken(self, files, kind, case):
        name, _ = LOADERS[kind]
        path = files[name]
        lines = case[1](lines_of(path))
        if lines is None:
            path.write_text("")
        else:
            write_lines(path, lines)
        return path

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_loader_names_file_and_line(self, files, kind, case):
        path = self._broken(files, kind, case)
        with pytest.raises(SchemaError) as info:
            LOADERS[kind][1](str(path))
        assert f"{path} line {case[2]}:" in str(info.value)

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_main_names_file_and_line(self, files, kind, case, tmp_path, capsys):
        path = self._broken(files, kind, case)
        assert_rejected(kind, files, path, tmp_path, capsys, f"{path} line {case[2]}:")

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_blank_record_lines_skipped(self, files, kind):
        name, load = LOADERS[kind]
        path = files[name]
        expected = load(str(path))
        lines = lines_of(path)
        write_lines(path, lines[:2] + ["", "   "] + lines[2:] + ["\t"])
        got = load(str(path))
        if kind == "corpus":
            assert corpus_to_text(got) == corpus_to_text(expected)
        else:
            assert got[0] == expected[0]
            for a, b in zip(got[1:], expected[1:]):
                np.testing.assert_array_equal(a, b)

    def test_version_2_read_only_for_corpora(self, files, tmp_path, capsys):
        """Corpora are written at version 3, predictions and checkpoints at
        version 1; a prediction file claiming version 2 is rejected (for
        checkpoints, see ``TestCheckpointFraming``)."""
        assert json.loads(lines_of(files["corpus.jsonl"])[0])["version"] == 3
        assert json.loads(lines_of(files["p2.jsonl"])[0])["version"] == 1
        assert json.loads(files["checkpoint.json"].read_text())["version"] == 1
        path = files["p2.jsonl"]
        write_lines(path, _set_header(lines_of(path), version=2))
        with pytest.raises(SchemaError, match="line 1: unsupported semimatch-predictions "
                                              "version 2"):
            load_predictions(str(path))
        assert_rejected("predictions", files, path, tmp_path, capsys, f"{path} line 1:")

    def test_raw_utf8_and_crlf_read_intact(self, files):
        """Unescaped non-ASCII text and CRLF line ends read as they would
        escaped and with LF."""
        path = files["corpus.jsonl"]
        lines = lines_of(path)
        header = json.loads(lines[0])
        header["emotion_names"] = ["calme", "colère", "喜び"]
        path.write_bytes("\r\n".join([json.dumps(header, ensure_ascii=False)] + lines[1:])
                         .encode("utf-8"))
        got = load_corpus(str(path))
        write_lines(path, [json.dumps(header)] + lines[1:])
        assert got.emotion_names == ["calme", "colère", "喜び"]
        assert corpus_to_text(got) == corpus_to_text(load_corpus(str(path)))

    def test_reader_streams(self, files):
        """Records come one at a time from an iterator: the records before a
        bad line are yielded before the bad line is read."""
        path = files["corpus.jsonl"]
        lines = lines_of(path)
        write_lines(path, lines[:3] + ["{not json"])
        records = read_jsonl(str(path), "semimatch-corpus")
        assert iter(records) is records and not isinstance(records, (list, tuple))
        assert [next(records)[0] for _ in range(3)] == [1, 2, 3]
        with pytest.raises(SchemaError, match="line 4: invalid JSON"):
            next(records)

    def test_writer_streams(self):
        """Lines come one at a time from a generator: the header line is
        yielded before any record is serialized."""
        def records():
            raise AssertionError("a record was serialized before the header was yielded")
            yield

        lines = jsonl_lines("semimatch-corpus", {"n": 1}, records())
        assert iter(lines) is lines and not isinstance(lines, (list, tuple))
        assert next(lines) == '{"format": "semimatch-corpus", "version": 3, "n": 1}\n'
        with pytest.raises(AssertionError, match="before the header"):
            next(lines)


class TestCheckpointFraming:
    @pytest.mark.parametrize("text, needle", [
        ("", "invalid JSON"),
        ("\n", "invalid JSON"),
        ("{not json", "invalid JSON"),
        ("[1, 2]", "not a semimatch-checkpoint file"),
        ('{"format": "semimatch-corpus", "version": 1}', "not a semimatch-checkpoint file"),
        ('{"format": "semimatch-checkpoint", "version": 3}', "unsupported"),
        ('{"format": "semimatch-checkpoint", "version": 2}', "unsupported"),
        ('{"format": "semimatch-checkpoint"}', "unsupported"),
        (b'{"format": "semimatch-checkpoint", "version": 1, "x": "\xff"}', "not UTF-8"),
        ('{"format": "semimatch-checkpoint", "version": 1}'.encode("utf-16"), "not UTF-8"),
    ], ids=["empty", "blank", "non-json", "array", "wrong-format", "wrong-version",
            "corpus-only-version", "no-version", "non-utf8", "utf16"])
    def test_bad_document_names_file(self, files, tmp_path, capsys, text, needle):
        path = files["checkpoint.json"]
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert_rejected("checkpoint", files, path, tmp_path, capsys, f"{path}: ", needle)


class TestCheckpointFields:
    """A checkpoint whose parameters, config or class names are invalid is
    rejected with the file named, never loaded with a coerced value."""

    def test_valid_checkpoint_evaluates(self, files, tmp_path):
        code, out = run_main("checkpoint", files, files["checkpoint.json"], tmp_path)
        assert code == 0 and (out / "metrics.json").exists()

    def test_typed_config_values_load(self, files, tmp_path):
        """An integer is a number; null is a kind left to its default."""
        path = files["checkpoint.json"]
        doc = json.loads(path.read_text())
        doc["config"].update(tau=1, weak_aug_kind=None)
        path.write_text(json.dumps(doc))
        _, config, _, _ = load_checkpoint(str(path))
        assert config.tau == 1 and config.weak_aug_kind == "flip"
        assert config == TrainConfig(**doc["config"])

    @pytest.mark.parametrize("edit, needle", [
        (lambda doc: doc["params"]["b_trunk"].pop(), "trunk bias shape"),
        (lambda doc: doc["config"].update(tau=2.0), "tau must lie in (0, 1]"),
        (lambda doc: doc["params"]["w_emo"][0].__setitem__(0, math.nan),
         "non-finite values in parameter w_emo"),
        (lambda doc: doc.update(emotion_names="ab"), "emotion_names must be a list of strings"),
        (lambda doc: doc.pop("intent_names"), "intent_names must be a list of strings"),
        (lambda doc: doc["params"].pop("w_int"), "missing field 'w_int'"),
        (lambda doc: doc["config"].update(no_such_key=1), "no_such_key"),
        (lambda doc: doc["config"].update(delete_prob=7),
         "retired key 'delete_prob' is fixed at 0.1, got 7"),
        (lambda doc: doc["config"].update(strong_aug_kind="contextual"),
         "retired key 'strong_aug_kind' is fixed at 'gaussian_noise', got 'contextual'"),
        (lambda doc: doc["config"].update(strong_aug_kind=None),
         "retired key 'strong_aug_kind' is fixed at 'gaussian_noise', got None"),
        (lambda doc: doc["config"].update(swap_count=True),
         "retired key 'swap_count' is fixed at 1, got True"),
        (lambda doc: doc["config"].update(time_mask_max_frames=30000.0),
         "retired key 'time_mask_max_frames' is fixed at 30000, got 30000.0"),
        (lambda doc: doc["config"].update(epochs=2.5),
         "config key 'epochs': expected an integer, got 2.5"),
        (lambda doc: doc["config"].update(hidden_size=True),
         "config key 'hidden_size': expected an integer, got True"),
        (lambda doc: doc["config"].update(tau=True),
         "config key 'tau': expected a number, got True"),
        (lambda doc: doc["config"].update(weak_aug_on_unlabelled=1),
         "config key 'weak_aug_on_unlabelled': expected a boolean, got 1"),
        (lambda doc: doc["config"].update(method=None),
         "config key 'method': expected a string, got None"),
        (lambda doc: doc["config"].update(weak_aug_kind=3),
         "config key 'weak_aug_kind': expected a string or null, got 3"),
        (lambda doc: doc.update(config=[]), "config must be a JSON object"),
        (lambda doc: doc["emotion_names"].append("extra"),
         "4 emotion_names for a 3-class emotion head"),
        (lambda doc: doc["intent_names"].pop(), "1 intent_names for a 2-class intent head"),
    ], ids=["short-bias", "tau-2", "nan-weight", "names-string", "names-missing",
            "param-missing", "unknown-config-key", "delete-prob-7", "strong-kind-other",
            "strong-kind-null", "swap-count-bool", "mask-frames-float", "epochs-float",
            "hidden-size-bool", "tau-bool", "flag-int", "method-null", "kind-int",
            "config-list", "emotion-names-long", "intent-names-short"])
    def test_bad_field_names_file(self, files, tmp_path, capsys, edit, needle):
        path = files["checkpoint.json"]
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert_rejected("checkpoint", files, path, tmp_path, capsys, f"{path}: ", needle)


class TestEvalFit:
    """eval refuses a corpus whose class names or features the checkpoint
    does not fit, naming both files, before it writes anything."""

    @pytest.mark.parametrize("emotion_counts, emotion_names", [
        ((10, 10, 5, 5), None), ((15, 15), None), ((10,) * N_EMOTION, ("a", "b", "c")),
    ], ids=["more-classes", "fewer-classes", "other-names"])
    def test_other_class_names_rejected(self, files, tmp_path, capsys, emotion_counts,
                                        emotion_names):
        path = tmp_path / "other.jsonl"
        save_corpus(synthesize_corpus(GeneratorConfig(
            emotion_counts=emotion_counts, intent_counts=(15,) * N_INTENT,
            emotion_names=emotion_names, min_len=8, max_len=16, seed=3)), str(path))
        assert_rejected("corpus", files, path, tmp_path, capsys, f"corpus {path} ",
                        f"checkpoint {files['checkpoint.json']}", "class names")

    def test_feature_width_mismatch_rejected(self, files, tmp_path, capsys):
        path = files["checkpoint.json"]
        doc = json.loads(path.read_text())
        doc["config"]["signal_bins"] = 2
        path.write_text(json.dumps(doc))
        assert_rejected("checkpoint", files, path, tmp_path, capsys,
                        f"checkpoint {path} reads 16 features",
                        f"config gives 8 on corpus {files['corpus.jsonl']}")


class TestPredictionRows:
    """fuse rejects a malformed prediction row on its line, before fusing."""

    def test_valid_files_fuse(self, files, tmp_path):
        code, out = run_main("predictions", files, files["p2.jsonl"], tmp_path)
        assert code == 0 and (out / "fused_metrics.json").exists()

    @pytest.mark.parametrize("change, needle", [
        ({"emo_probs": [0.5, 0.5]}, "emo_probs must be a list of 3 JSON numbers"),
        ({"int_probs": [0.2, 0.3, 0.5]}, "int_probs must be a list of 2 JSON numbers"),
        ({"emo_probs": [math.nan] * 3}, "emo_probs holds a non-finite value"),
        ({"int_probs": [math.inf, 0.0]}, "int_probs holds a non-finite value"),
        ({"emo_probs": ["0.2", "0.3", "0.5"]}, "emo_probs must be a list of 3 JSON numbers"),
        ({"emo_probs": [True, False, False]}, "emo_probs must be a list of 3 JSON numbers"),
        ({"emotion": 1.7}, "emotion must be a JSON integer"),
        ({"intent": True}, "intent must be a JSON integer"),
        ({"emotion": 3}, "emotion label 3 outside [0, 3)"),
        ({"intent": -1}, "intent label -1 outside [0, 2)"),
        ({"emo_probs": None}, "emo_probs must be a list"),
        ({"id": None}, "id must be a JSON string, got None"),
        ({"id": [1, 2]}, "id must be a JSON string, got [1, 2]"),
    ], ids=["short-row", "long-row", "nan-row", "inf-row", "string-probs", "bool-probs",
            "float-label", "bool-label", "label-too-big", "label-negative", "null-row",
            "null-id", "list-id"])
    def test_bad_row_names_file_and_line(self, files, tmp_path, capsys, change, needle):
        path = files["p2.jsonl"]
        lines = lines_of(path)
        row = json.loads(lines[2])
        row.update(change)
        write_lines(path, lines[:2] + [json.dumps(row)] + lines[3:])
        assert_rejected("predictions", files, path, tmp_path, capsys,
                        f"{path} line 3: ", needle)

    def test_missing_field_names_file_and_line(self, files, tmp_path, capsys):
        path = files["p2.jsonl"]
        lines = lines_of(path)
        row = json.loads(lines[1])
        del row["int_probs"]
        write_lines(path, lines[:1] + [json.dumps(row)] + lines[2:])
        assert_rejected("predictions", files, path, tmp_path, capsys,
                        f"{path} line 2: missing field 'int_probs'")

    @pytest.mark.parametrize("change", [{"n_emotion": 3.0}, {"n_intent": "2"}])
    def test_bad_header_width_names_line_1(self, files, tmp_path, capsys, change):
        path = files["p2.jsonl"]
        write_lines(path, _set_header(lines_of(path), **change))
        assert_rejected("predictions", files, path, tmp_path, capsys,
                        f"{path} line 1: ", "must be a JSON integer")

    @pytest.mark.parametrize("change", [{"n_emotion": 1}, {"n_intent": 0}],
                             ids=["n-emotion-1", "n-intent-0"])
    def test_header_width_below_2_names_line_1(self, files, tmp_path, capsys, change):
        path = files["p2.jsonl"]
        (key, value), = change.items()
        write_lines(path, _set_header(lines_of(path), **change))
        assert_rejected("predictions", files, path, tmp_path, capsys,
                        f"{path} line 1: {key} must be at least 2, got {value}")

    def test_width_differing_from_first_file_names_it(self, files, tmp_path, capsys):
        path = files["p2.jsonl"]
        save_predictions(str(path), ["a", "b", "c"], [0, 1, 2], [1, 0, 1],
                         np.full((3, N_EMOTION + 1), 1 / (N_EMOTION + 1)),
                         np.full((3, N_INTENT), 1 / N_INTENT))
        assert_rejected("predictions", files, path, tmp_path, capsys,
                        f"{path}: class counts do not match the first file")

    def test_no_rows_names_file(self, files, tmp_path, capsys):
        path = files["p2.jsonl"]
        write_lines(path, lines_of(path)[:1])
        assert_rejected("predictions", files, path, tmp_path, capsys,
                        f"{path}: no prediction rows")
