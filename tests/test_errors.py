"""The range rules of every config field and function argument: each check's
error type and exact message, the NaN values each rule rejects, and the
type check of bool config fields."""

import math

import numpy as np
import pytest

from semimatch.augment import SynonymLexicon
from semimatch.data import GeneratorConfig, SplitSpec, make_batches, unlabelled_per_step
from semimatch.errors import ConfigError
from semimatch.gradcheck import run_gradient_checks
from semimatch.losses import fixmatch_loss, gate_pseudo_label, select_k
from semimatch.model import AdamState, Gradients, adam_step, init_model
from semimatch.trainer import TrainConfig

NAN = math.nan


def _init(input_dim, hidden_size):
    return init_model(input_dim, hidden_size, 2, 2, np.random.default_rng(0))


def _adam(lr):
    model = _init(4, 3)
    return adam_step(model, Gradients.zeros_like(model), AdamState.zeros_like(model), lr)


def _generator(**changes):
    return GeneratorConfig(emotion_counts=(2, 2), intent_counts=(2, 2), **changes)


# (case, a call with one value just outside its range, the exact message)
RANGE_CHECKS = [
    ("tau", lambda: TrainConfig(tau=0.0), "tau must lie in (0, 1]"),
    ("sigma", lambda: TrainConfig(sigma=1.5), "sigma must lie in (0, 1]"),
    ("lr_decay", lambda: TrainConfig(lr_decay=-0.5), "lr_decay must lie in (0, 1]"),
    ("learning_rate", lambda: TrainConfig(learning_rate=0.0), "learning_rate must be positive"),
    ("epochs", lambda: TrainConfig(epochs=0),
     "epochs, batch_size, and hidden_size must be positive"),
    ("config-batch_size", lambda: TrainConfig(batch_size=0),
     "epochs, batch_size, and hidden_size must be positive"),
    ("config-hidden_size", lambda: TrainConfig(hidden_size=-1),
     "epochs, batch_size, and hidden_size must be positive"),
    ("unsup_weight", lambda: TrainConfig(unsup_weight=-0.5), "unsup_weight must be non-negative"),
    ("intent_weight", lambda: TrainConfig(intent_weight=-1e-9),
     "intent_weight must be non-negative"),
    ("delete_prob", lambda: TrainConfig(delete_prob=1.5), "delete_prob must lie in [0, 1]"),
    ("signal_bins", lambda: TrainConfig(signal_bins=0), "signal_bins must be positive"),
    ("per-class-counts", lambda: GeneratorConfig((2, 0), (1, 1)),
     "per-class counts must be positive"),
    ("unlabelled_count", lambda: _generator(unlabelled_count=-1),
     "unlabelled_count must be non-negative"),
    ("correlation", lambda: _generator(correlation=1.5), "correlation must lie in [0, 1]"),
    ("modality_mix", lambda: _generator(modality_mix=-0.1), "modality_mix must lie in [0, 1]"),
    ("separation", lambda: _generator(separation=-0.1), "separation must be non-negative"),
    ("generator-seed", lambda: _generator(seed=-1), "seed must be non-negative"),
    ("split-fractions", lambda: SplitSpec(1.25, -0.25), "split fractions must lie in [0, 1]"),
    ("train-fraction", lambda: SplitSpec(0.0, 1.0), "the train fraction must be positive"),
    ("split-seed", lambda: SplitSpec(0.5, 0.5, seed=-1), "seed must be non-negative"),
    ("batch_size", lambda: unlabelled_per_step(0, 1.0), "batch_size must be positive"),
    ("unlabelled_ratio", lambda: unlabelled_per_step(4, -0.5),
     "unlabelled_ratio must be non-negative"),
    ("batches-seed", lambda: make_batches(["a"], [], 1, 0.0, [0, -1]),
     "seed must be non-negative"),
    ("gradcheck-seed", lambda: run_gradient_checks(seed=-1), "seed must be non-negative"),
    ("n_batches", lambda: run_gradient_checks(n_batches=0), "n_batches must be positive"),
    ("group_size", lambda: SynonymLexicon.from_groups(6, group_size=0),
     "group_size must be positive"),
    ("input_dim", lambda: _init(0, 4), "input_dim and hidden_size must be positive"),
    ("hidden_size", lambda: _init(4, 0), "input_dim and hidden_size must be positive"),
    ("lr", lambda: _adam(0.0), "learning rate must be positive"),
    ("gate-tau", lambda: gate_pseudo_label([0.6, 0.4], 0.0), "tau must lie in (0, 1]"),
    ("select_k-sigma", lambda: select_k([[0.6, 0.4]], [[0.6, 0.4]], 1.5),
     "sigma must lie in (0, 1]"),
    ("loss-tau", lambda: fixmatch_loss([([0.6, 0.4], 0)], [], 1.25, 0.5),
     "tau must lie in (0, 1]"),
]

# (case, a call with NaN for one ranged value, the exact message)
NAN_CHECKS = [
    ("split-fraction", lambda: SplitSpec(NAN, 0.5, 0.5), "split fractions must lie in [0, 1]"),
    ("split-seed", lambda: SplitSpec(0.5, 0.5, seed=NAN), "seed must be non-negative"),
    ("lr", lambda: _adam(NAN), "learning rate must be positive"),
    ("gradcheck-seed", lambda: run_gradient_checks(seed=NAN), "seed must be non-negative"),
    ("n_batches", lambda: run_gradient_checks(n_batches=NAN), "n_batches must be positive"),
    ("unlabelled_ratio", lambda: unlabelled_per_step(4, NAN),
     "unlabelled_ratio must be non-negative"),
    ("batch_size", lambda: unlabelled_per_step(NAN, 1.0), "batch_size must be positive"),
    ("group_size", lambda: SynonymLexicon.from_groups(6, group_size=NAN),
     "group_size must be positive"),
    ("input_dim", lambda: _init(NAN, 4), "input_dim and hidden_size must be positive"),
    ("hidden_size", lambda: _init(4, NAN), "input_dim and hidden_size must be positive"),
    ("sigma", lambda: select_k([[0.6, 0.4]], [[0.6, 0.4]], NAN), "sigma must lie in (0, 1]"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in RANGE_CHECKS],
                         ids=[c[0] for c in RANGE_CHECKS])
def test_range_check_message(call, message):
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [c[1:] for c in NAN_CHECKS],
                         ids=[c[0] for c in NAN_CHECKS])
def test_nan_is_out_of_range(call, message):
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_bool_field_takes_only_a_bool(value):
    with pytest.raises(ConfigError, match="weak_aug_on_unlabelled"):
        TrainConfig(weak_aug_on_unlabelled=value)


@pytest.mark.parametrize("value", [False, True, np.False_, np.True_])
def test_bool_field_keeps_a_bool(value):
    assert TrainConfig(weak_aug_on_unlabelled=value).weak_aug_on_unlabelled == value
