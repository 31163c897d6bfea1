"""Core math: forward pass, analytic gradients vs finite differences, Adam."""

import math

import numpy as np
import pytest

from semimatch.errors import ConfigError, ContractError, NumericError
from semimatch.gradcheck import _numeric_gradient, _specs_for_batch, run_gradient_checks
from semimatch.losses import LossCoefficients, build_task_terms
from semimatch.model import (
    AdamState,
    BatchLossSpec,
    Gradients,
    TaskProbs,
    TwoHeadModel,
    adam_step,
    backprop,
    batch_loss,
    ce_logit_gradient,
    finite_difference_gradient,
    forward,
    forward_batch,
    init_model,
    loss_and_gradients,
    max_relative_error,
    PARAM_FIELDS,
)
from semimatch.persist import load_checkpoint, save_checkpoint
from semimatch.trainer import TrainConfig


def tiny_model(d=2, hidden=2, n_emo=2, n_int=2, seed=3):
    return init_model(d, hidden, n_emo, n_int, np.random.default_rng(seed))


class TestForward:
    def test_probabilities_normalized(self, rng):
        model = init_model(5, 4, 7, 8, rng)
        for _ in range(50):
            probs = forward(model, rng.standard_normal(5))
            assert abs(probs.emo.sum() - 1.0) < 1e-9
            assert abs(probs.intent.sum() - 1.0) < 1e-9
            assert np.all(probs.emo >= 0) and np.all(probs.intent >= 0)

    def test_zero_weights_give_uniform(self):
        model = TwoHeadModel(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 7)),
                             np.zeros(7), np.zeros((4, 8)), np.zeros(8))
        probs = forward(model, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(probs.emo, np.full(7, 1 / 7))
        np.testing.assert_allclose(probs.intent, np.full(8, 1 / 8))

    def test_hand_computed_2_2_2(self):
        # trunk: identity weights, zero bias; input (1, -1) -> relu -> (1, 0)
        # emotion head picks hidden h0 with weight (0.3, -0.2) per class,
        # so its logits are (0.3, -0.2); intent logits are (0.5, 0.1).
        model = TwoHeadModel(
            w_trunk=np.eye(2), b_trunk=np.zeros(2),
            w_emo=np.array([[0.3, -0.2], [1.0, 1.0]]), b_emo=np.zeros(2),
            w_int=np.array([[0.5, 0.1], [-1.0, 2.0]]), b_int=np.zeros(2))
        probs = forward(model, np.array([1.0, -1.0]))
        exp_emo = [math.exp(0.3), math.exp(-0.2)]
        exp_int = [math.exp(0.5), math.exp(0.1)]
        np.testing.assert_allclose(probs.emo, np.array(exp_emo) / sum(exp_emo), atol=1e-12)
        np.testing.assert_allclose(probs.intent, np.array(exp_int) / sum(exp_int), atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = tiny_model(d=4)
        with pytest.raises(ContractError):
            forward(model, np.zeros(3))


class TestCeLogitGradient:
    def test_zero_when_probs_equal_onehot(self):
        probs = np.array([[0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(ce_logit_gradient(probs, [1]), np.zeros((1, 3)))

    def test_matches_p_minus_y(self, rng):
        probs = rng.dirichlet(np.ones(5), size=3)
        labels = np.array([0, 4, 2])
        grad = ce_logit_gradient(probs, labels)
        onehot = np.zeros_like(probs)
        onehot[np.arange(3), labels] = 1.0
        np.testing.assert_allclose(grad, probs - onehot)


class TestFiniteDifferenceOracle:
    def test_quadratic(self):
        model = tiny_model()
        model.w_trunk[0, 0] = 3.0
        grads = finite_difference_gradient(lambda m: m.w_trunk[0, 0] ** 2, model)
        assert abs(grads.w_trunk[0, 0] - 6.0) < 1e-6
        assert abs(grads.w_emo).max() == 0.0

    def test_linear(self):
        model = tiny_model()
        grads = finite_difference_gradient(lambda m: 5.0 * m.b_emo[1], model)
        assert abs(grads.b_emo[1] - 5.0) < 1e-8
        assert abs(grads.b_int).max() < 1e-8


def _random_fullmatch_spec(rng, model, batch=4):
    d = model.input_dim
    x_lab = rng.standard_normal((batch, d))
    x_weak = rng.standard_normal((batch, d))
    x_strong = rng.standard_normal((batch, d))
    pw_e, pw_i = forward_batch(model, x_weak)
    ps_e, ps_i = forward_batch(model, x_strong)
    return BatchLossSpec(
        lab_features=x_lab,
        emo_labels=rng.integers(0, model.n_emotion, batch),
        int_labels=rng.integers(0, model.n_intent, batch),
        strong_features=x_strong,
        emo_terms=build_task_terms(pw_e, ps_e, tau=0.15, sigma=0.99),
        int_terms=build_task_terms(pw_i, ps_i, tau=0.15, sigma=0.99),
        coeffs=LossCoefficients(0.5, 0.5, 0.5))


class TestBackprop:
    def test_full_stack_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            model = init_model(16, 8, 7, 8, rng)
            spec = _random_fullmatch_spec(rng, model)
            _, analytic = loss_and_gradients(model, spec)
            numeric = finite_difference_gradient(lambda m: batch_loss(m, spec).total, model)
            assert max_relative_error(analytic, numeric, floor=1e-4) <= 1e-4

    def test_empty_objective_is_zero(self):
        model = tiny_model()
        spec = BatchLossSpec(coeffs=LossCoefficients(0.0, 0.0, 0.0))
        total, grads = backprop(model, spec)
        assert total == 0.0
        for field in PARAM_FIELDS:
            assert np.all(getattr(grads, field) == 0.0)

    def test_backprop_loss_equals_batch_loss(self):
        rng = np.random.default_rng(5)
        model = init_model(16, 8, 7, 8, rng)
        spec = _random_fullmatch_spec(rng, model)
        total, _ = backprop(model, spec)
        assert total == batch_loss(model, spec).total

    def test_given_strong_forward_equals_its_own(self):
        """The caller's strong forward at the same parameters gives the bits
        the loss's own strong forward gives; one of another batch is refused."""
        rng = np.random.default_rng(6)
        model = init_model(16, 8, 7, 8, rng)
        spec = _random_fullmatch_spec(rng, model)
        own, own_grads = loss_and_gradients(model, spec)
        given, given_grads = loss_and_gradients(
            model, spec, forward_batch(model, spec.strong_features, parts=True))
        assert given == own
        for field in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(given_grads, field), getattr(own_grads, field))
        other = forward_batch(model, spec.strong_features[:3], parts=True)
        with pytest.raises(ContractError, match="strong forward parts"):
            loss_and_gradients(model, spec, other)

    @pytest.mark.parametrize("evaluate", [batch_loss, loss_and_gradients])
    @pytest.mark.parametrize("branch", ["lab_features", "strong_features"])
    def test_feature_width_mismatch_rejected(self, evaluate, branch):
        rng = np.random.default_rng(7)
        model = init_model(16, 8, 7, 8, rng)
        spec = _random_fullmatch_spec(rng, model)
        setattr(spec, branch, np.zeros((4, 15)))
        with pytest.raises(ContractError, match="does not match model input dim 16"):
            evaluate(model, spec)

    def test_gradcheck_suite_smoke(self):
        report = run_gradient_checks(seed=123, n_batches=2)
        assert report.passed
        assert set(report.per_config) == {
            "supervised_ce", "gated_consistency", "rank_tail_suppression",
            "mid_rank_equalization", "full_stack", "multitask_joint_gate",
            "multitask_full_stack"}


GRADCHECK_CONFIGS = sorted(_specs_for_batch(
    np.random.default_rng(0), init_model(3, 2, 2, 2, np.random.default_rng(0)), 2, 3))


def _config_spec(name, rng, batch_size, input_dim=16):
    model = init_model(input_dim, 8, 7, 8, rng)
    return model, _specs_for_batch(rng, model, batch_size, input_dim)[name]


class TestParameterSetAxis:
    """A model whose ``flat`` is ``(M, P)`` is M parameter sets: the forward
    pass and the loss give, per set, the bits of that set alone."""

    @pytest.mark.parametrize("batch_size", [1, 4])
    @pytest.mark.parametrize("n_sets", [1, 2, 5])
    @pytest.mark.parametrize("name", GRADCHECK_CONFIGS)
    def test_slices_equal_single_sets(self, name, n_sets, batch_size):
        rng = np.random.default_rng([n_sets, batch_size])
        model, spec = _config_spec(name, rng, batch_size)
        flat = model.flat + 0.1 * rng.standard_normal((n_sets, model.flat.size))
        stacked = TwoHeadModel._wrap(flat, model._shapes)
        assert (stacked.input_dim, stacked.hidden_size, stacked.n_emotion,
                stacked.n_intent) == (16, 8, 7, 8)
        x = rng.standard_normal((batch_size, 16))
        probs, totals = forward_batch(stacked, x), batch_loss(stacked, spec).total
        assert totals.shape == (n_sets,)
        for m in range(n_sets):
            single = TwoHeadModel._wrap(flat[m].copy(), model._shapes)
            for got, want in zip(probs, forward_batch(single, x)):
                np.testing.assert_array_equal(got[m], want)
            assert totals[m] == batch_loss(single, spec).total

    @pytest.mark.parametrize("name", GRADCHECK_CONFIGS)
    def test_one_call_oracle_equals_reference(self, name):
        rng = np.random.default_rng(41)
        for _ in range(3):
            model, spec = _config_spec(name, rng, 4)
            reference = finite_difference_gradient(lambda m: batch_loss(m, spec).total, model)
            numeric = _numeric_gradient(model, spec)
            assert max_relative_error(numeric, reference, floor=1e-300) <= 1e-9

    def test_single_set_loss_parts_are_python_floats(self):
        rng = np.random.default_rng(42)
        model, spec = _config_spec("multitask_full_stack", rng, 4)
        loss = batch_loss(model, spec)
        assert type(loss.total) is float
        for part in (loss.emo, loss.intent):
            for field in ("l_sup", "l_fix_unsup", "l_neg", "l_ent", "total"):
                assert type(getattr(part, field)) is float, field


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        model = tiny_model()
        state = AdamState.zeros_like(model)
        new_model, new_state = adam_step(model, Gradients.zeros_like(model), state, lr=0.1)
        for field in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(new_model, field), getattr(model, field))
        assert new_state.step == 1

    def test_first_step_moves_by_lr_sign(self):
        # bias-corrected first step: delta = -lr * g / (|g| + eps) ~ -lr * sign(g)
        model = tiny_model()
        grads = Gradients.zeros_like(model)
        grads.w_trunk[0, 0] = 2.5
        grads.w_trunk[1, 1] = -0.75
        new_model, _ = adam_step(model, grads, AdamState.zeros_like(model), lr=1e-3)
        assert abs((new_model.w_trunk[0, 0] - model.w_trunk[0, 0]) - (-1e-3)) < 1e-6
        assert abs((new_model.w_trunk[1, 1] - model.w_trunk[1, 1]) - 1e-3) < 1e-6

    def test_bit_reproducible(self, rng):
        model = tiny_model()
        grads = Gradients.zeros_like(model)
        grads.w_emo += rng.standard_normal(grads.w_emo.shape)
        out1 = adam_step(model, grads, AdamState.zeros_like(model), lr=0.01)
        out2 = adam_step(model, grads, AdamState.zeros_like(model), lr=0.01)
        for field in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(out1[0], field), getattr(out2[0], field))

    def test_two_steps_against_hand_formula(self):
        model = tiny_model()
        g = 1.3
        grads = Gradients.zeros_like(model)
        grads.b_emo[0] = g
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        m1, s1 = adam_step(model, grads, AdamState.zeros_like(model), lr)
        m2, _ = adam_step(m1, grads, s1, lr)
        # same gradient twice: m_hat = g and v_hat = g*g at both steps
        expected = model.b_emo[0] - 2 * lr * g / (math.sqrt(g * g) + eps)
        assert abs(m2.b_emo[0] - expected) < 1e-12

    def test_non_positive_lr_rejected(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            adam_step(model, Gradients.zeros_like(model), AdamState.zeros_like(model), lr=0.0)

    def test_gradient_of_another_layout_rejected(self):
        model = tiny_model(d=2)
        grads = Gradients.zeros_like(tiny_model(d=3))
        with pytest.raises(ContractError, match="^gradient shape mismatch for w_trunk$"):
            adam_step(model, grads, AdamState.zeros_like(model), lr=0.1)


class TestModelValidation:
    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ContractError):
            TwoHeadModel(np.zeros((3, 4)), np.zeros(5), np.zeros((4, 2)),
                         np.zeros(2), np.zeros((4, 2)), np.zeros(2))

    def test_single_class_head_rejected(self):
        with pytest.raises(ContractError):
            TwoHeadModel(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 1)),
                         np.zeros(1), np.zeros((4, 2)), np.zeros(2))

    @pytest.mark.parametrize("field, shape, message", [
        ("w_trunk", (12,), "trunk weights must be a 2-D matrix"),
        ("w_emo", (5, 2), "emotion head input width does not match trunk output"),
        ("w_int", (3, 2), "intent head input width does not match trunk output"),
        ("b_emo", (3,), "emotion head bias shape does not match head width"),
        ("b_int", (2, 1), "intent head bias shape does not match head width"),
    ])
    def test_layout_checks_name_the_part(self, field, shape, message):
        arrays = {"w_trunk": np.zeros((3, 4)), "b_trunk": np.zeros(4), "w_emo": np.zeros((4, 2)),
                  "b_emo": np.zeros(2), "w_int": np.zeros((4, 2)), "b_int": np.zeros(2)}
        arrays[field] = np.zeros(shape)
        with pytest.raises(ContractError, match=f"^{message}$"):
            TwoHeadModel(**arrays)

    def test_task_probs_must_be_vectors(self):
        with pytest.raises(ContractError, match="^emo probabilities must be a vector$"):
            TaskProbs(emo=np.full((1, 2), 0.5), intent=np.full(2, 0.5))

    def test_non_finite_loss_term_named(self):
        """A NaN feature makes the loss NaN; the loss check names the task and term."""
        spec = BatchLossSpec(lab_features=np.array([[math.nan, 0.0]]), emo_labels=np.array([0]),
                             int_labels=np.array([1]))
        with pytest.raises(NumericError, match="^emotion loss term l_sup is not finite$"):
            loss_and_gradients(tiny_model(), spec)


class TestParameterLayout:
    """Model, gradient and Adam moments share one flat layout; the named
    arrays are views of it, and no operation writes into its inputs."""

    def test_named_arrays_are_views_of_flat(self):
        model = tiny_model(d=3, hidden=4, n_emo=2, n_int=3)
        grads = Gradients.zeros_like(model)
        for layout in (model, grads):
            assert layout.flat.dtype == np.float64 and layout.flat.ndim == 1
            np.testing.assert_array_equal(
                layout.flat, np.concatenate([getattr(layout, f).ravel() for f in PARAM_FIELDS]))
            for field in PARAM_FIELDS:
                assert np.shares_memory(getattr(layout, field), layout.flat)
        grads.b_int[2] = 7.0
        assert grads.flat[-1] == 7.0 and np.count_nonzero(grads.flat) == 1

    def test_constructor_copies_by_position_or_name(self):
        model = tiny_model(d=3, hidden=4)
        arrays = [getattr(model, f) for f in PARAM_FIELDS]
        for built in (TwoHeadModel(*arrays), TwoHeadModel(**dict(zip(PARAM_FIELDS, arrays))),
                      TwoHeadModel(*arrays[:2], **dict(zip(PARAM_FIELDS[2:], arrays[2:])))):
            np.testing.assert_array_equal(built.flat, model.flat)
            assert not np.shares_memory(built.flat, model.flat)
        for args, kwargs in ((arrays[:5], {}), (arrays, {"w_trunk": arrays[0]}),
                             (arrays[1:], {"extra": arrays[0]})):
            with pytest.raises(TypeError, match="takes the arrays w_trunk, b_trunk"):
                TwoHeadModel(*args, **kwargs)

    def test_copy_is_independent(self):
        model = tiny_model()
        clone = model.copy()
        assert type(clone) is TwoHeadModel
        np.testing.assert_array_equal(clone.flat, model.flat)
        before = model.flat.copy()
        clone.w_trunk[0, 0] += 1.0
        clone.flat[-1] = 5.0
        np.testing.assert_array_equal(model.flat, before)

    def test_adam_step_leaves_its_inputs(self, rng):
        """The trainer keeps the best epoch's model while training goes on."""
        model = tiny_model(d=3, hidden=4)
        grads = Gradients.zeros_like(model)
        grads.flat[:] = rng.standard_normal(grads.flat.size)
        _, state = adam_step(model, grads, AdamState.zeros_like(model), lr=0.1)
        saved = [a.copy() for a in (model.flat, grads.flat, state.m, state.v)]
        new_model, new_state = adam_step(model, grads, state, lr=0.1)
        for kept, now in zip(saved, (model.flat, grads.flat, state.m, state.v)):
            np.testing.assert_array_equal(now, kept)
        assert state.step == 1 and new_state.step == 2
        for fresh in (new_model.flat, new_state.m, new_state.v):
            for old in (model.flat, grads.flat, state.m, state.v):
                assert not np.shares_memory(fresh, old)

    def test_checkpoint_round_trip_is_bit_identical(self, tmp_path, rng):
        model = init_model(5, 4, 3, 2, rng)
        path = str(tmp_path / "checkpoint.json")
        save_checkpoint(path, model, TrainConfig(), ["a", "b", "c"], ["x", "y"])
        loaded, _, _, _ = load_checkpoint(path)
        assert loaded.flat.tobytes() == model.flat.tobytes()
        for field in PARAM_FIELDS:
            assert getattr(loaded, field).shape == getattr(model, field).shape

    @pytest.mark.parametrize("field", PARAM_FIELDS)
    def test_non_finite_model_names_field(self, field):
        model = tiny_model(d=3, hidden=4, n_emo=2, n_int=3)
        arrays = {f: getattr(model, f).copy() for f in PARAM_FIELDS}
        arrays[field].flat[-1] = math.nan
        with pytest.raises(NumericError, match=f"non-finite values in parameter {field}$"):
            TwoHeadModel(**arrays)
        grads = Gradients.zeros_like(model)
        getattr(grads, field).flat[0] = math.inf   # Adam's inf / inf step is NaN
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericError, match=f"non-finite values in parameter {field}$"):
            adam_step(model, grads, AdamState.zeros_like(model), lr=0.1)

    @pytest.mark.parametrize("field", PARAM_FIELDS)
    def test_non_finite_gradient_names_field(self, field, monkeypatch):
        rng = np.random.default_rng(9)
        model = init_model(16, 8, 7, 8, rng)
        spec = _random_fullmatch_spec(rng, model)
        seeded = Gradients.zeros_like(model)
        getattr(seeded, field).flat[0] = math.nan   # backprop adds into it
        monkeypatch.setattr(Gradients, "zeros_like", classmethod(lambda cls, m: seeded))
        with pytest.raises(NumericError, match=f"non-finite gradient for parameter {field}$"):
            loss_and_gradients(model, spec)
