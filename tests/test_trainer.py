"""Training loop: schedule, determinism, baseline equivalence, evaluation."""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semimatch.losses
import semimatch.model
import semimatch.trainer
from semimatch.augment import (
    FeatureExtractor,
    SignalSequence,
    featurize_signal,
    featurize_tokens,
)
from semimatch.data import GeneratorConfig, Sample, SplitSpec, stratified_split, synthesize_corpus
from semimatch.errors import ConfigError, ContractError
from semimatch.model import PARAM_FIELDS, TwoHeadModel
from semimatch.trainer import (
    TrainConfig,
    epoch_reports_csv,
    evaluate,
    lr_at_epoch,
    shared_features,
    split_for,
    train,
)


def quick_corpus(seed=5, n_unlab=60, separation=0.8):
    config = GeneratorConfig(emotion_counts=(20, 20, 20), intent_counts=(30, 30),
                             unlabelled_count=n_unlab, min_len=40, max_len=80,
                             separation=separation, correlation=0.0, seed=seed)
    return synthesize_corpus(config)


def quick_config(**kwargs):
    defaults = dict(method="baseline", epochs=3, batch_size=8, learning_rate=3e-3,
                    hidden_size=16, seed=2, train_frac=0.6, valid_frac=0.2,
                    test_frac=0.2)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def run(config, corpus):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return train(config, corpus)


class TestLrSchedule:
    def test_initial_value(self):
        assert lr_at_epoch(3e-5, 0.9, 0) == 3e-5

    def test_one_decay_step(self):
        assert abs(lr_at_epoch(3e-5, 0.9, 1) - 2.7e-5) < 1e-20

    def test_identity_decay(self):
        for epoch in (0, 1, 7, 30):
            assert lr_at_epoch(1e-3, 1.0, epoch) == 1e-3

    def test_reported_lr_follows_schedule(self):
        corpus = quick_corpus()
        result = run(quick_config(epochs=4), corpus)
        for report in result.reports:
            assert report.lr == lr_at_epoch(3e-3, 0.9, report.epoch)


class TestTrainLoop:
    def test_baseline_loss_decreases(self):
        corpus = quick_corpus()
        result = run(quick_config(epochs=20), corpus)
        assert result.reports[-1].mean_total < result.reports[0].mean_total

    def test_bit_identical_reruns(self):
        corpus = quick_corpus()
        config = quick_config(method="fullmatch", epochs=3)
        a = run(config, corpus)
        b = run(config, corpus)
        assert epoch_reports_csv(a.reports) == epoch_reports_csv(b.reports)
        for field in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(a.model, field), getattr(b.model, field))

    def test_fixmatch_with_closed_gate_matches_baseline(self):
        corpus = quick_corpus()
        base = run(quick_config(method="baseline", epochs=4), corpus)
        fix = run(quick_config(method="fixmatch", tau=1.0, epochs=4), corpus)
        for field in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(base.model, field),
                                          getattr(fix.model, field))
        for rb, rf in zip(base.reports, fix.reports):
            assert rb.emo.sup == rf.emo.sup
            assert rb.intent.sup == rf.intent.sup
            assert rf.emo.unsup == 0.0 and rf.emo.acceptance_rate == 0.0
            assert rb.val.jrbm == rf.val.jrbm

    def test_methods_need_unlabelled_data(self):
        corpus = quick_corpus(n_unlab=0)
        with pytest.raises(ConfigError):
            run(quick_config(method="fixmatch"), corpus)

    def test_fullmatch_logs_k_histogram(self):
        corpus = quick_corpus()
        result = run(quick_config(method="fullmatch", epochs=2), corpus)
        n_train = sum(1 for s in corpus.labelled) * 0.6
        steps = int(np.ceil(n_train / 8))
        for report in result.reports:
            assert sum(report.emo.k_hist.values()) == steps
            assert all(1 <= k <= 3 for k in report.emo.k_hist)   # C_e = 3 here
            assert all(1 <= k <= 2 for k in report.intent.k_hist)

    def test_best_checkpoint_selected_by_validation_jrbm(self):
        corpus = quick_corpus()
        result = run(quick_config(epochs=6), corpus)
        best = max(range(len(result.reports)), key=lambda e: result.reports[e].val.jrbm)
        assert result.best_epoch == best
        assert result.val_metrics.jrbm == result.reports[best].val.jrbm

    def test_best_epoch_ties_keep_the_earlier_epoch(self):
        """At a learning rate too small to move any prediction, every epoch
        scores the same validation JRBM, so the first epoch stays best."""
        result = run(quick_config(method="fixmatch", learning_rate=1e-12, epochs=4),
                     quick_corpus())
        assert len({report.val.jrbm for report in result.reports}) == 1
        assert result.best_epoch == 0

    def test_acceptance_rate_logged_every_epoch(self):
        corpus = quick_corpus()
        result = run(quick_config(method="fixmatch", tau=0.4, epochs=3), corpus)
        for report in result.reports:
            assert 0.0 <= report.emo.acceptance_rate <= 1.0
            assert report.emo.acceptance_rate == report.intent.acceptance_rate


class TestConfigValidation:
    def test_wrong_weak_kind_for_modality(self):
        with pytest.raises(ConfigError):
            TrainConfig(modality="signal", weak_aug_kind="synonym")

    def test_strong_kind_is_fixed_per_modality(self):
        with pytest.raises(ConfigError):
            TrainConfig(modality="signal", strong_aug_kind="flip")
        assert TrainConfig(modality="tokens").strong_aug_kind == "contextual"

    def test_threshold_ranges(self):
        with pytest.raises(ConfigError):
            TrainConfig(tau=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(sigma=1.5)
        TrainConfig(tau=1.0, sigma=1.0)  # upper bounds included

    @pytest.mark.parametrize("config_class, key", [
        pytest.param(cls, f.name, id=f"{cls.__name__}-{f.name}")
        for cls in (TrainConfig, GeneratorConfig) for f in fields(cls)
        if f.type in ("int", "tuple[int, ...]")])
    def test_integer_fields_take_only_integers(self, config_class, key):
        """A float, even a whole one, a bool or a string in an integer field is
        an error naming the field; a numpy integer is an integer."""
        required = {"emotion_counts": (3, 3), "intent_counts": (3, 3)}
        if config_class is TrainConfig:
            required = {}

        def make(value):   # the field's value, or the first entry of a count tuple
            return config_class(**{**required, key: (value, 3) if key in required else value})

        for value in (2.0, 2.5, True, "2"):
            with pytest.raises(ConfigError, match=f"^{key} must"):
                make(value)
        default = 3 if key in required else getattr(config_class, key)
        assert make(np.int64(default)) == make(default)

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            TrainConfig(train_frac=0.5, valid_frac=0.1, test_frac=0.1)


class TestEvaluate:
    def _samples(self, emotions, intents):
        return [Sample(id=f"e{i}", modality="signal",
                       payload=SignalSequence(np.full(8, float(i))),
                       emotion=e, intent=c)
                for i, (e, c) in enumerate(zip(emotions, intents))]

    def _one_class_model(self, dim):
        # huge class-0 biases force a constant prediction
        return TwoHeadModel(np.zeros((dim, 2)), np.zeros(2),
                            np.zeros((2, 2)), np.array([50.0, 0.0]),
                            np.zeros((2, 2)), np.array([50.0, 0.0]))

    def test_collapsed_model_hand_value(self):
        samples = self._samples([0, 0, 1, 1], [0, 1, 0, 1])
        extractor = FeatureExtractor("signal", bins=2)
        report = evaluate(self._one_class_model(extractor.dim), samples, extractor)
        assert abs(report.f1_emo - 1 / 3) < 1e-12
        assert abs(report.f1_intent - 1 / 3) < 1e-12

    def test_metrics_in_range_after_training(self):
        corpus = quick_corpus()
        result = run(quick_config(epochs=2), corpus)
        for value in (result.val_metrics.f1_emo, result.val_metrics.f1_intent,
                      result.val_metrics.jrbm):
            assert 0.0 <= value <= 1.0

    def test_empty_and_unlabelled_rejected(self):
        extractor = FeatureExtractor("signal", bins=2)
        model = self._one_class_model(extractor.dim)
        with pytest.raises(ContractError):
            evaluate(model, [], extractor)
        bad = Sample(id="u", modality="signal", payload=SignalSequence(np.ones(4)))
        with pytest.raises(ContractError):
            evaluate(model, [bad], extractor)

    def test_perfect_model_scores_one(self):
        corpus = quick_corpus(separation=3.0)
        config = quick_config(epochs=25, learning_rate=5e-3)
        result = run(config, corpus)
        # a well-separated corpus is learnable to (near) perfection; verify
        # the perfect-prediction identity on whichever samples it nails
        report = result.val_metrics
        if report.f1_emo == 1.0 and report.f1_intent == 1.0:
            assert report.jrbm == 1.0


class TestSplitFor:
    """train(), eval and demo 06 take their split from split_for: the
    config's labelled pool, split by its fractions and seed."""

    def test_matches_hand_built_split(self):
        corpus = synthesize_corpus(GeneratorConfig(
            emotion_counts=(20, 20, 20), intent_counts=(30, 30), min_len=40, max_len=80,
            modality_mix=0.5, seed=5))
        config = quick_config(modality="tokens")
        pool = [s for s in corpus.labelled if s.modality == "tokens"]
        spec = SplitSpec(config.train_frac, config.valid_frac, config.test_frac,
                         seed=config.seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = stratified_split(pool, spec)
            got = split_for(config, corpus)
        assert [[s.id for s in part] for part in got] == \
            [[s.id for s in part] for part in expected]

    def test_no_labelled_samples_of_the_modality(self):
        with pytest.raises(ConfigError, match="corpus has no labelled tokens samples"):
            run(quick_config(modality="tokens"), quick_corpus())

    def test_one_split_per_train_call(self, monkeypatch):
        calls = []
        split = semimatch.trainer.stratified_split
        monkeypatch.setattr(semimatch.trainer, "stratified_split",
                            lambda *args: calls.append(1) or split(*args))
        run(quick_config(epochs=1), quick_corpus())
        assert len(calls) == 1


class TestForwardCount:
    """Each branch runs one forward per step: labelled only for baseline;
    labelled, weak and strong for the SSL methods, whose loss reuses the
    strong forward the batch decisions ran. Every evaluation adds one."""

    @pytest.mark.parametrize("method, per_step", [
        ("baseline", 1), ("fixmatch", 3), ("fullmatch", 3)])
    def test_forwards_per_step(self, method, per_step, monkeypatch):
        calls = {"_forward_parts": 0, "adam_step": 0, "evaluate": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(semimatch.model, "_forward_parts")
        counted(semimatch.trainer, "adam_step")
        counted(semimatch.trainer, "evaluate")
        run(quick_config(method=method, epochs=2), quick_corpus())
        steps, evals = calls["adam_step"], calls["evaluate"]
        assert steps > 0 and evals == 3
        assert calls["_forward_parts"] == per_step * steps + evals


class TestProbCheckCount:
    """The batch decisions check each probability matrix once per step: the
    two weak matrices for fixmatch, which draws no rank cut from the strong
    branch; the two weak and two strong ones for fullmatch."""

    @pytest.mark.parametrize("method, per_step", [("fixmatch", 2), ("fullmatch", 4)])
    def test_each_matrix_checked_once(self, method, per_step, monkeypatch):
        calls = {"_as_prob_matrix": 0, "batch_terms": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(semimatch.losses, "_as_prob_matrix")
        counted(semimatch.trainer, "batch_terms")
        run(quick_config(method=method, epochs=2), quick_corpus())
        assert calls["batch_terms"] > 0
        assert calls["_as_prob_matrix"] == per_step * calls["batch_terms"]


class TestFeaturizeCount:
    """Each epoch featurizes each non-empty branch (labelled weak, unlabelled
    weak, unlabelled strong) in one extractor call (the whole epoch is one
    block), even when the unlabelled weak branch is not augmented; the
    baseline's empty unlabelled branches take none. A run featurizes its
    validation split once, for all its evaluations, and its test split once."""

    @pytest.mark.parametrize("method, weak_on_unlabelled, branches", [
        ("baseline", True, 1), ("fixmatch", True, 3), ("fixmatch", False, 3),
        ("fullmatch", True, 3), ("fullmatch", False, 3)])
    def test_one_call_per_branch_and_evaluation(self, method, weak_on_unlabelled, branches,
                                                monkeypatch):
        calls = {"featurize": 0, "make_batches": 0, "evaluate": 0}
        featurize = FeatureExtractor.__call__

        def counted_featurize(self, payloads):
            calls["featurize"] += 1
            return featurize(self, payloads)
        monkeypatch.setattr(FeatureExtractor, "__call__", counted_featurize)
        for name in ("make_batches", "evaluate"):
            fn = getattr(semimatch.trainer, name)

            def wrapper(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(semimatch.trainer, name, wrapper)
        run(quick_config(method=method, epochs=2, weak_aug_on_unlabelled=weak_on_unlabelled),
            quick_corpus())
        epochs, evals = calls["make_batches"], calls["evaluate"]
        assert epochs == 2 and evals == 3
        assert calls["featurize"] == branches * epochs + 2


def tokens_corpus():
    return synthesize_corpus(GeneratorConfig(
        emotion_counts=(20, 20, 20), intent_counts=(30, 30), unlabelled_count=60,
        min_len=5, max_len=20, modality_mix=0.0, seed=5))


class TestAugmentCount:
    """Each epoch augments each non-empty branch in one call: labelled weak,
    then unlabelled weak (unless ``weak_aug_on_unlabelled`` is off) and
    unlabelled strong."""

    @pytest.mark.parametrize("method, modality, weak_on_unlabelled, branches", [
        ("baseline", "signal", True, 1), ("fixmatch", "signal", True, 3),
        ("fixmatch", "signal", False, 2), ("fullmatch", "signal", True, 3),
        ("fullmatch", "signal", False, 2), ("fullmatch", "tokens", True, 3)])
    def test_one_call_per_branch(self, method, modality, weak_on_unlabelled, branches,
                                 monkeypatch):
        calls = {"augment_signal": 0, "augment_tokens": 0, "make_batches": 0}
        for name in calls:
            fn = getattr(semimatch.trainer, name)

            def wrapper(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(semimatch.trainer, name, wrapper)
        corpus = quick_corpus() if modality == "signal" else tokens_corpus()
        run(quick_config(method=method, modality=modality, epochs=2,
                         weak_aug_on_unlabelled=weak_on_unlabelled), corpus)
        epochs = calls["make_batches"]
        assert epochs == 2
        assert calls[f"augment_{modality}"] == branches * epochs
        assert calls["augment_signal"] + calls["augment_tokens"] == branches * epochs


    def test_each_branch_draws_its_own_stream(self, monkeypatch):
        seen = []
        augment = semimatch.trainer.augment_signal

        def recording(seqs, kind, rng, **params):
            seen.append((kind, rng.bit_generator.state))
            return augment(seqs, kind, rng, **params)
        monkeypatch.setattr(semimatch.trainer, "augment_signal", recording)
        config = quick_config(method="fixmatch", weak_aug_kind="pitch_shift", epochs=2)
        run(config, quick_corpus())
        trainer = semimatch.trainer
        assert seen == [
            (kind, np.random.default_rng([config.seed, stream, epoch]).bit_generator.state)
            for epoch in range(2)
            for kind, stream in (("pitch_shift", trainer._STREAM_LAB_AUG),
                                 ("pitch_shift", trainer._STREAM_WEAK_AUG),
                                 ("gaussian_noise", trainer._STREAM_STRONG_AUG))]


def one_sample_per_call(augment):
    """A dispatcher that augments a list one sample per inner call."""
    return lambda seqs, kind, rng, **params: [augment([seq], kind, rng, **params)[0]
                                              for seq in seqs]


def featurize_each(self, payloads):
    """``FeatureExtractor.__call__`` through the per-sample featurizers."""
    if self.modality == "signal":
        return np.stack([featurize_signal(p, self.bins) for p in payloads])
    return np.stack([featurize_tokens(p, self.table, self.max_token_len) for p in payloads])


def run_outputs(config, corpus):
    result = run(config, corpus)
    return (epoch_reports_csv(result.reports),
            [getattr(result.model, name).tobytes() for name in PARAM_FIELDS],
            result.test_metrics.to_dict())


class TestChunkingInvariance:
    """Augmenting and featurizing an epoch a branch at a time, or a block of
    steps at a time, trains exactly as one sample per call does."""

    @pytest.mark.parametrize("method", ["baseline", "fixmatch", "fullmatch"])
    @pytest.mark.parametrize("modality, weak_kind, weak_on_unlabelled", [
        ("signal", "flip", True), ("signal", "flip", False),
        ("signal", "time_mask", True), ("signal", "time_mask", False),
        ("signal", "pitch_shift", True), ("signal", "pitch_shift", False),
        ("tokens", "swap", True), ("tokens", "delete", True), ("tokens", "synonym", True)])
    def test_outputs_equal_one_sample_per_call(self, method, modality, weak_kind,
                                               weak_on_unlabelled, monkeypatch):
        config = quick_config(method=method, modality=modality, weak_aug_kind=weak_kind,
                              weak_aug_on_unlabelled=weak_on_unlabelled, epochs=2,
                              unlabelled_ratio=2.0, tau=0.5)
        corpus = quick_corpus() if modality == "signal" else tokens_corpus()
        whole_epoch = run_outputs(config, corpus)
        with monkeypatch.context() as patch:
            patch.setattr(semimatch.trainer, "_BLOCK_SAMPLES", 50)
            blocks = run_outputs(config, corpus)
        with monkeypatch.context() as patch:
            for name in ("augment_signal", "augment_tokens"):
                patch.setattr(semimatch.trainer, name,
                              one_sample_per_call(getattr(semimatch.trainer, name)))
            patch.setattr(FeatureExtractor, "__call__", featurize_each)
            per_sample = run_outputs(config, corpus)
        assert whole_epoch == per_sample
        assert blocks == per_sample

    def test_blocks_hold_whole_steps(self, monkeypatch):
        monkeypatch.setattr(semimatch.trainer, "_BLOCK_SAMPLES", 10)
        steps = [([1] * 2, [2] * 2), ([1] * 2, [2] * 2), ([1] * 4, [2] * 4), ([1] * 12, []),
                 ([1] * 2, [])]
        assert list(semimatch.trainer._blocks(steps)) == [steps[:2], steps[2:3], steps[3:4],
                                                         steps[4:]]


# (modality, A's weak kind, a field that the memo key reads, values B takes)
KEY_INPUTS = [
    ("signal", "flip", "seed", st.integers(0, 9)),
    ("signal", "flip", "weak_aug_kind", st.sampled_from(["time_mask", "pitch_shift"])),
    ("signal", "flip", "weak_aug_on_unlabelled", st.just(False)),
    ("signal", "flip", "flip_max_seconds", st.floats(1e-4, 1e-2)),
    ("signal", "time_mask", "time_mask_max_frames", st.integers(1, 100)),
    ("signal", "pitch_shift", "pitch_max_steps", st.integers(1, 8)),
    ("signal", "flip", "noise_scale", st.floats(0.01, 2.0)),
    ("signal", "flip", "signal_bins", st.integers(1, 8)),
    ("signal", "flip", "unlabelled_ratio", st.floats(0.5, 3.0)),
    ("tokens", "synonym", "seed", st.integers(0, 9)),
    ("tokens", "synonym", "weak_aug_kind", st.sampled_from(["swap", "delete"])),
    ("tokens", "synonym", "weak_aug_on_unlabelled", st.just(False)),
    ("tokens", "swap", "swap_count", st.integers(0, 4)),
    ("tokens", "delete", "delete_prob", st.floats(0.0, 1.0)),
    ("tokens", "synonym", "synonym_prob", st.floats(0.0, 1.0)),
    ("tokens", "synonym", "contextual_prob", st.floats(0.0, 1.0)),
    ("tokens", "synonym", "contextual_neighbors", st.integers(1, 10)),
    ("tokens", "synonym", "token_max_len", st.integers(1, 30)),
    ("tokens", "synonym", "unlabelled_ratio", st.floats(0.5, 3.0)),
]

CORPORA = {"signal": quick_corpus(), "tokens": tokens_corpus()}

ANY_METHOD = st.sampled_from(["baseline", "fixmatch", "fullmatch"])


def count_calls(monkeypatch, module, names):
    """Wrap each named function of ``module``; return the dict of call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(module, name)

        def wrapper(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSharedFeatures:
    """Runs inside ``shared_features(corpus)`` share feature rows, and each
    trains exactly as it does alone."""

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(KEY_INPUTS).flatmap(
        lambda case: st.tuples(st.just(case), case[3])), method_a=ANY_METHOD, method_b=ANY_METHOD)
    def test_run_after_another_equals_it_alone(self, case, method_a, method_b):
        (modality, weak_kind, name, _), value = case
        corpus = CORPORA[modality]
        a = quick_config(method=method_a, modality=modality, weak_aug_kind=weak_kind,
                         epochs=2, tau=0.5)
        b = replace(a, method=method_b, **{name: value})
        with shared_features(corpus):
            run(a, corpus)
            shared = run_outputs(b, corpus)
        assert shared == run_outputs(b, corpus)

    def test_hit_then_miss_within_an_epoch(self, monkeypatch):
        """A hit on an epoch's first block leaves each generator where the
        next block, a miss, draws from."""
        monkeypatch.setattr(semimatch.trainer, "_BLOCK_SAMPLES", 50)
        corpus, config = CORPORA["signal"], quick_config(method="fixmatch", epochs=2, tau=0.5)
        alone = run_outputs(config, corpus)
        calls = count_calls(monkeypatch, semimatch.trainer, ["augment_signal"])
        with shared_features(corpus):
            run(config, corpus)
            first = calls["augment_signal"]
            memo = semimatch.trainer._SHARED.get()[1]
            for key in list(memo)[4:]:   # keep the validation rows and epoch 0's first block
                del memo[key]
            shared = run_outputs(config, corpus)
        assert first >= 2 * 2 * 3                        # 2 epochs of 2 or more blocks
        assert calls["augment_signal"] - first == first - 3
        assert shared == alone

    def test_same_samples_in_another_epoch_are_drawn_again(self, monkeypatch):
        """Each epoch's generators start elsewhere, so an epoch whose steps
        repeat an earlier epoch's samples still augments them afresh."""
        make_batches = semimatch.trainer.make_batches
        monkeypatch.setattr(semimatch.trainer, "make_batches",
                            lambda *args, seed: make_batches(*args, seed=[*seed[:2], 0]))
        calls = count_calls(monkeypatch, semimatch.trainer, ["augment_signal"])
        with shared_features(CORPORA["signal"]):
            run(quick_config(method="fixmatch", epochs=3, tau=0.5), CORPORA["signal"])
        assert calls["augment_signal"] == 3 * 3

    def test_nothing_kept_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(semimatch.trainer, "_MEMO_BYTES", 0)
        corpus, config = CORPORA["signal"], quick_config(method="fullmatch", epochs=2, tau=0.5)
        alone = run_outputs(config, corpus)
        calls = count_calls(monkeypatch, semimatch.trainer, ["augment_signal"])
        with shared_features(corpus):
            assert run_outputs(config, corpus) == alone
            assert run_outputs(config, corpus) == alone
            assert semimatch.trainer._SHARED.get()[1] == {}
        assert calls["augment_signal"] == 2 * 2 * 3

    @pytest.mark.parametrize("spare, kept", [(0, True), (-1, False)])
    def test_bound_is_inclusive(self, monkeypatch, spare, kept):
        """A memo whose bound is exactly the first block's bytes keeps it."""
        corpus, config = CORPORA["signal"], quick_config()
        extractor = semimatch.trainer.extractor_for(config, corpus)
        rows = semimatch.trainer._rows(config, corpus, extractor, None, corpus.labelled,
                                       None, None)
        monkeypatch.setattr(semimatch.trainer, "_MEMO_BYTES", rows.nbytes + spare)
        memo = {}
        semimatch.trainer._rows(config, corpus, extractor, memo, corpus.labelled, None, None)
        assert len(memo) == kept

    def test_other_corpus_and_scope_exit(self):
        corpus, other = CORPORA["signal"], quick_corpus(seed=6)
        config = quick_config(method="fullmatch", epochs=2, tau=0.5)
        alone = run_outputs(config, other)
        with shared_features(corpus):
            assert run_outputs(config, other) == alone
            assert semimatch.trainer._SHARED.get()[1] == {}
        assert semimatch.trainer._SHARED.get() is None
        with pytest.raises(RuntimeError), shared_features(corpus):
            raise RuntimeError
        assert semimatch.trainer._SHARED.get() is None

    def test_rows_are_read_only(self):
        corpus, config = CORPORA["signal"], quick_config(method="fixmatch", epochs=1)
        with shared_features(corpus):
            run(config, corpus)
            memo = semimatch.trainer._SHARED.get()[1]
        assert memo and not any(rows.flags.writeable for rows, _ in memo.values())
