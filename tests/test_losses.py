"""Loss stack: gates, rank cut selection, the three unsupervised terms,
their composition, and the two-task combinations.

Brute-force oracles here re-derive every decision from scratch (explicit
sorting with tie-breaks, scans over k) so they share no code with the
implementation they check.
"""

import dataclasses
import math

import numpy as np
import pytest

import semimatch.losses
from conftest import random_probs
from semimatch.errors import ConfigError, ContractError
from semimatch.losses import (
    LossCoefficients,
    adaptive_negative_loss,
    batch_terms,
    build_task_terms,
    entropy_meaning_loss,
    entropy_meaning_soft_label,
    fixmatch_loss,
    fullmatch_loss,
    gate_pseudo_label,
    method_policy,
    multitask_loss,
    rank_classes,
    select_k,
    task_loss_from_terms,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def oracle_argmax(probs):
    return max(range(len(probs)), key=lambda c: (probs[c], -c))


def oracle_ranks(probs):
    order = sorted(range(len(probs)), key=lambda c: (-probs[c], c))
    ranks = [0] * len(probs)
    for position, cls in enumerate(order):
        ranks[cls] = position + 1
    return ranks


def oracle_select_k(weak_batch, strong_batch, sigma):
    n_classes = len(weak_batch[0])
    for k in range(1, n_classes + 1):
        hits = 0
        for weak, strong in zip(weak_batch, strong_batch):
            pseudo = oracle_argmax(weak)
            topk = sorted(range(n_classes), key=lambda c: (-strong[c], c))[:k]
            hits += pseudo in topk
        if hits / len(weak_batch) > sigma:
            return k, hits / len(weak_batch)
    return n_classes, 1.0


def oracle_fullmatch(labelled, unlabelled, tau, sigma, lam1, lam2, lam3):
    """From-scratch composition of every term of the combined objective."""
    if labelled:
        l_sup = -sum(math.log(max(p[y], 1e-12)) for p, y in labelled) / len(labelled)
    else:
        l_sup = 0.0
    if not unlabelled:
        return l_sup
    b = len(unlabelled)
    n_classes = len(unlabelled[0][0])
    k, _ = oracle_select_k([w for w, _ in unlabelled], [s for _, s in unlabelled], sigma)
    l_fix = l_neg = l_ent = 0.0
    for weak, strong in unlabelled:
        pseudo = oracle_argmax(weak)
        if max(weak) > tau:
            l_fix += -math.log(max(strong[pseudo], 1e-12))
        ranks = oracle_ranks(weak)
        target = (1.0 - strong[pseudo]) / (k - 1) if k >= 2 else 0.0
        for cls in range(n_classes):
            if ranks[cls] > k:
                l_neg += -math.log(max(1.0 - strong[cls], 1e-12))
            elif 2 <= ranks[cls] <= k:
                l_ent += -(target * math.log(max(strong[cls], 1e-12))
                           + (1.0 - target) * math.log(max(1.0 - strong[cls], 1e-12)))
    return l_sup + lam1 * l_fix / b + lam2 * l_neg / b + lam3 * l_ent / (b * n_classes)


# ---------------------------------------------------------------------------
# pseudo-label gate
# ---------------------------------------------------------------------------

class TestGatePseudoLabel:
    def test_confident_sample_accepted(self):
        decision = gate_pseudo_label([0.96, 0.03, 0.01], tau=0.95)
        assert decision.predicted_class == 0
        assert decision.accepted

    def test_tie_break_and_strict_inequality(self):
        decision = gate_pseudo_label([0.5, 0.5], tau=0.5)
        assert decision.predicted_class == 0
        assert not decision.accepted

    def test_uniform_rejected(self):
        decision = gate_pseudo_label(np.full(7, 1 / 7), tau=0.95)
        assert not decision.accepted

    def test_unnormalized_rejected(self):
        with pytest.raises(ContractError):
            gate_pseudo_label([0.9, 0.3], tau=0.5)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError, match="^gate_pseudo_label: .*empty batch"):
            gate_pseudo_label(np.zeros((0, 3)), 0.5)

    def test_monotone_in_tau(self, rng):
        for _ in range(100):
            probs = random_probs(rng, 1, 5, alpha=0.4)[0]
            accepted = [gate_pseudo_label(probs, t).accepted
                        for t in (0.3, 0.5, 0.7, 0.9, 0.99)]
            # once rejected, stays rejected as tau grows
            assert all(a >= b for a, b in zip(accepted, accepted[1:]))


# ---------------------------------------------------------------------------
# rank assignment and rank cut
# ---------------------------------------------------------------------------

class TestRanks:
    def test_matches_oracle(self, rng):
        for _ in range(300):
            probs = random_probs(rng, 1, 6)[0]
            assert list(rank_classes(probs)) == oracle_ranks(probs)

    def test_tie_break_prefers_lower_index(self):
        assert list(rank_classes([0.25, 0.25, 0.25, 0.25])) == [1, 2, 3, 4]

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError, match="^rank_classes: .*empty batch"):
            rank_classes(np.zeros((0, 3)))

    @pytest.mark.parametrize("excess, accepted", [(5e-7, True), (2e-6, False)])
    def test_row_sum_tolerance(self, excess, accepted):
        """A row may miss a sum of 1 by up to 1e-6, and no more."""
        row = [0.25, 0.75 + excess]
        if accepted:
            assert list(rank_classes(row)) == [2, 1]
        else:
            with pytest.raises(ContractError, match="must sum to 1"):
                rank_classes(row)

    def test_rank_one_is_argmax(self, rng):
        for _ in range(100):
            probs = random_probs(rng, 1, 5)[0]
            ranks = rank_classes(probs)
            assert ranks[np.argmax(probs)] == 1


class TestSelectK:
    def test_perfect_agreement(self):
        probs = np.array([[0.8, 0.1, 0.1], [0.7, 0.2, 0.1]])
        sel = select_k(probs, probs, sigma=0.99)
        assert sel.k == 1 and sel.topk_accuracy == 1.0

    def test_three_of_four_at_rank_one(self):
        weak = np.array([[0.9, 0.05, 0.05]] * 3 + [[0.05, 0.9, 0.05]])
        strong = np.array([[0.8, 0.15, 0.05]] * 3 + [[0.6, 0.3, 0.1]])
        sel = select_k(weak, strong, sigma=0.99)
        assert sel.k == 2 and sel.topk_accuracy == 1.0
        # accuracy at k=1 is only 0.75
        assert np.mean([1, 1, 1, 0]) == 0.75

    def test_worst_rank_forces_k_equal_c(self):
        weak = np.array([[0.9, 0.05, 0.05]])
        strong = np.array([[0.05, 0.15, 0.8]])  # pseudo class 0 ranks last
        sel = select_k(weak, strong, sigma=0.99)
        assert sel.k == 3

    def test_sigma_one_falls_back_to_c(self):
        probs = np.array([[0.8, 0.1, 0.1]])
        assert select_k(probs, probs, sigma=1.0).k == 3

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            select_k(np.empty((0, 3)), np.empty((0, 3)), sigma=0.9)

    def test_matches_brute_force(self, rng):
        for _ in range(300):
            b = int(rng.integers(1, 9))
            c = int(rng.integers(2, 8))
            weak = random_probs(rng, b, c)
            strong = random_probs(rng, b, c)
            sigma = float(rng.uniform(0.2, 0.999))
            sel = select_k(weak, strong, sigma)
            k_exp, acc_exp = oracle_select_k(weak.tolist(), strong.tolist(), sigma)
            assert sel.k == k_exp
            assert abs(sel.topk_accuracy - acc_exp) < 1e-12

    def test_accuracy_monotone_in_k(self, rng):
        weak = random_probs(rng, 16, 6)
        strong = random_probs(rng, 16, 6)
        pseudo = np.argmax(weak, axis=1)
        accs = []
        for k in range(1, 7):
            hits = sum(pseudo[i] in np.argsort(-strong[i], kind="stable")[:k]
                       for i in range(16))
            accs.append(hits / 16)
        assert all(a <= b for a, b in zip(accs, accs[1:]))

    def test_sigma_equal_to_a_reached_accuracy_takes_the_next_k(self):
        # every pseudo label is class 0, which the strong branch ranks 1, 1,
        # 2 and 3: top-k accuracies 2/4, 3/4 and 1; the comparison is strict
        weak = np.array([[0.9, 0.05, 0.05]] * 4)
        strong = np.array([[0.8, 0.15, 0.05]] * 2 + [[0.15, 0.8, 0.05], [0.05, 0.15, 0.8]])
        for sigma, expected in ((0.5, (2, 0.75)), (0.75, (3, 1.0))):
            sel = select_k(weak, strong, sigma)
            assert (sel.k, sel.topk_accuracy) == expected
            assert oracle_select_k(weak.tolist(), strong.tolist(), sigma) == expected

    def test_sigma_one_gives_k_equal_c_at_accuracy_one(self, rng):
        for c in range(2, 8):
            weak, strong = random_probs(rng, 5, c), random_probs(rng, 5, c)
            sel = select_k(weak, strong, sigma=1.0)
            assert (sel.k, sel.topk_accuracy) == (c, 1.0)
            assert oracle_select_k(weak.tolist(), strong.tolist(), 1.0) == (c, 1.0)

    def test_every_reachable_accuracy_as_sigma_matches_brute_force(self, rng):
        """sigma = j / B for every j (so sigma = 1 among them), with tied
        strong probabilities in every other batch."""
        for trial in range(150):
            b, c = int(rng.integers(1, 9)), int(rng.integers(2, 7))
            weak = random_probs(rng, b, c, alpha=0.3)
            strong = random_probs(rng, b, c, alpha=0.3)
            if trial % 2:
                counts = rng.integers(1, 3, size=(b, c)).astype(float)
                strong = counts / counts.sum(axis=1, keepdims=True)
            for j in range(1, b + 1):
                sel = select_k(weak, strong, j / b)
                assert (sel.k, sel.topk_accuracy) == \
                    oracle_select_k(weak.tolist(), strong.tolist(), j / b)


# ---------------------------------------------------------------------------
# the unsupervised terms
# ---------------------------------------------------------------------------

class TestAdaptiveNegativeLoss:
    def test_zero_at_k_equal_c(self, rng):
        batch = [(random_probs(rng, 1, 4)[0], random_probs(rng, 1, 4)[0])
                 for _ in range(5)]
        assert adaptive_negative_loss(batch, k=4) == 0.0

    def test_zero_when_tail_probs_zero(self):
        weak = [0.5, 0.3, 0.2]
        strong = [0.6, 0.4, 0.0]  # the only rank>2 class has zero mass
        assert adaptive_negative_loss([(weak, strong)], k=2) == 0.0

    def test_hand_evaluated_case(self):
        weak = [0.5, 0.3, 0.2]   # ranks (1, 2, 3)
        strong = [0.7, 0.2, 0.1]
        expected = -(math.log(1 - 0.2) + math.log(1 - 0.1))
        assert abs(adaptive_negative_loss([(weak, strong)], k=1) - expected) < 1e-12
        assert abs(expected - 0.3285) < 5e-5


class TestEntropySoftLabel:
    def test_k2_shares_residual(self):
        weak = [0.6, 0.3, 0.1]
        strong = [0.7, 0.2, 0.1]
        targets = entropy_meaning_soft_label(weak, strong, k=2)
        assert targets.members.tolist() == [False, True, False]
        assert abs(targets.values[1] - 0.3) < 1e-12

    def test_no_residual_mass(self):
        targets = entropy_meaning_soft_label([0.6, 0.3, 0.1], [1.0, 0.0, 0.0], k=2)
        assert targets.values[1] == 0.0

    def test_mass_identity_at_k_equal_c(self):
        weak = [0.4, 0.3, 0.2, 0.1]
        strong = [0.4, 0.3, 0.2, 0.1]
        targets = entropy_meaning_soft_label(weak, strong, k=4)
        np.testing.assert_allclose(targets.values[targets.members], 0.2)
        assert abs(targets.values.sum() - (1 - 0.4)) < 1e-12

    def test_k1_empty(self):
        targets = entropy_meaning_soft_label([0.6, 0.4], [0.5, 0.5], k=1)
        assert not targets.members.any()

    def test_mass_identity_random(self, rng):
        for _ in range(300):
            c = int(rng.integers(3, 9))
            weak = random_probs(rng, 1, c)[0]
            strong = random_probs(rng, 1, c)[0]
            k = int(rng.integers(2, c + 1))
            targets = entropy_meaning_soft_label(weak, strong, k)
            top1 = oracle_argmax(weak)
            assert abs(targets.values.sum() - (1 - strong[top1])) < 1e-12


class TestEntropyMeaningLoss:
    def test_k1_is_zero(self, rng):
        batch = [(random_probs(rng, 1, 5)[0], random_probs(rng, 1, 5)[0])]
        assert entropy_meaning_loss(batch, k=1) == 0.0

    def test_hand_evaluated_case(self):
        weak = [0.5, 0.3, 0.2]
        strong = [0.7, 0.2, 0.1]
        expected = -(1 / 3) * (0.3 * math.log(0.2) + 0.7 * math.log(1 - 0.2))
        assert abs(entropy_meaning_loss([(weak, strong)], k=2) - expected) < 1e-12

    def test_target_prob_minimizes_per_class_bce(self):
        # with the rank-2 strong prob exactly at its target, the per-class
        # term sits at the minimum of p -> -(y log p + (1-y) log(1-p))
        weak = [0.6, 0.3, 0.1]
        y = 1 - 0.7  # target when the strong prob of the weak top-1 is 0.7
        at_target = entropy_meaning_loss([(weak, [0.7, y, 1 - 0.7 - y])], k=2)
        for p in np.linspace(0.01, 0.99, 197):
            rest = max(1 - 0.7 - p, 0.0)
            total = 0.7 + p + rest
            strong = [0.7 / total, p / total, rest / total]
            # keep the weak top-1 strong prob fixed by renormalizing only
            # when the vector still sums to one
            if abs(sum(strong) - 1) > 1e-9 or abs(strong[0] - 0.7) > 1e-9:
                continue
            value = entropy_meaning_loss([(weak, strong)], k=2)
            assert at_target <= value + 1e-12


# ---------------------------------------------------------------------------
# composed objectives
# ---------------------------------------------------------------------------

def random_batch(rng, n_lab, n_unlab, n_classes, alpha=0.5):
    labelled = [(random_probs(rng, 1, n_classes, alpha)[0], int(rng.integers(n_classes)))
                for _ in range(n_lab)]
    unlabelled = [(random_probs(rng, 1, n_classes, alpha)[0],
                   random_probs(rng, 1, n_classes, alpha)[0]) for _ in range(n_unlab)]
    return labelled, unlabelled


class TestFixmatchLoss:
    def test_nothing_accepted_reduces_to_supervised(self, rng):
        labelled, unlabelled = random_batch(rng, 4, 6, 5, alpha=5.0)  # flat probs
        out = fixmatch_loss(labelled, unlabelled, tau=0.99, lam1=0.5)
        assert out.accepted_count == 0
        assert out.total == out.l_sup

    def test_one_hot_agreement_contributes_zero(self):
        one_hot = [0.0, 0.0, 1.0]
        out = fixmatch_loss([], [(one_hot, one_hot)], tau=0.95, lam1=1.0)
        assert out.l_fix_unsup == 0.0
        assert out.accepted_count == 1
        assert out.labelled_empty

    def test_hand_evaluated_two_sample_batch(self):
        unlabelled = [([0.97, 0.02, 0.01], [0.7, 0.2, 0.1]),
                      ([0.4, 0.3, 0.3], [0.3, 0.4, 0.3])]
        out = fixmatch_loss([], unlabelled, tau=0.95, lam1=0.5)
        expected = 0.5 * -math.log(0.7)
        assert abs(out.l_fix_unsup - expected) < 1e-12
        assert abs(out.l_fix_unsup - 0.1783) < 5e-5
        assert out.accepted_count == 1

    def test_empty_labelled_flagged(self, rng):
        _, unlabelled = random_batch(rng, 0, 3, 4)
        out = fixmatch_loss([], unlabelled, tau=0.9, lam1=0.5)
        assert out.labelled_empty and out.l_sup == 0.0

    def test_gating_monotone_in_tau(self, rng):
        labelled, unlabelled = random_batch(rng, 3, 12, 5, alpha=0.3)
        counts = [fixmatch_loss(labelled, unlabelled, tau, 0.5).accepted_count
                  for tau in (0.2, 0.4, 0.6, 0.8, 0.95)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_tau_above_max_confidence_zeroes_unsup(self, rng):
        labelled, unlabelled = random_batch(rng, 3, 8, 5, alpha=0.3)
        out = fixmatch_loss(labelled, unlabelled, tau=1.0, lam1=0.5)
        assert out.l_fix_unsup == 0.0 and out.accepted_count == 0


class TestLabelRange:
    """A label outside the class count is an error wherever a loss reads it."""

    @pytest.mark.parametrize("labels", [[0, -1], [0, 2]])
    def test_task_loss_from_terms_rejects(self, labels):
        probs = np.array([[0.6, 0.4], [0.3, 0.7]])
        with pytest.raises(ContractError, match="labels out of class range"):
            task_loss_from_terms(probs, np.array(labels), None, None, LossCoefficients())

    @pytest.mark.parametrize("label", [-1, 2])
    def test_fixmatch_loss_rejects(self, label):
        with pytest.raises(ContractError, match="labels out of class range"):
            fixmatch_loss([([0.6, 0.4], 0), ([0.3, 0.7], label)], [], tau=0.9, lam1=0.5)


class TestFullmatchLoss:
    def test_degenerates_to_fixmatch_exactly(self, rng):
        for _ in range(50):
            labelled, unlabelled = random_batch(rng, 3, 6, 5, alpha=0.4)
            full = fullmatch_loss(labelled, unlabelled, tau=0.6, sigma=0.99,
                                  lam1=0.5, lam2=0.0, lam3=0.0)
            fix = fixmatch_loss(labelled, unlabelled, tau=0.6, lam1=0.5)
            assert full.total == fix.total
            assert full.l_sup == fix.l_sup
            assert full.l_fix_unsup == fix.l_fix_unsup
            assert full.accepted_count == fix.accepted_count

    def test_total_is_linear_combination(self, rng):
        labelled, unlabelled = random_batch(rng, 4, 6, 5, alpha=0.4)
        out = fullmatch_loss(labelled, unlabelled, tau=0.6, sigma=0.9,
                             lam1=0.5, lam2=0.5, lam3=0.5)
        fix_total = out.l_sup + 0.5 * out.l_fix_unsup
        assert abs(out.total - (fix_total + 0.5 * out.l_neg + 0.5 * out.l_ent)) < 1e-12

    def test_matches_independent_composition(self, rng):
        for _ in range(100):
            labelled, unlabelled = random_batch(rng, 2, 6, 5, alpha=0.4)
            tau = float(rng.uniform(0.3, 0.9))
            sigma = float(rng.uniform(0.5, 0.99))
            out = fullmatch_loss(labelled, unlabelled, tau, sigma, 0.5, 0.5, 0.5)
            expected = oracle_fullmatch(
                [(list(p), y) for p, y in labelled],
                [(list(w), list(s)) for w, s in unlabelled],
                tau, sigma, 0.5, 0.5, 0.5)
            assert abs(out.total - expected) < 1e-10

    def test_rank_partition_disjoint(self, rng):
        for _ in range(200):
            c = int(rng.integers(3, 9))
            weak = random_probs(rng, 6, c)
            strong = random_probs(rng, 6, c)
            terms = build_task_terms(weak, strong, tau=0.5, sigma=0.9)
            top1 = np.zeros((6, c), dtype=bool)
            top1[np.arange(6), terms.pseudo] = True
            union = top1 | terms.mid_mask | terms.neg_mask
            overlap = (top1 & terms.mid_mask) | (top1 & terms.neg_mask) \
                | (terms.mid_mask & terms.neg_mask)
            assert union.all() and not overlap.any()

    def test_permutation_equivariant(self, rng):
        labelled, unlabelled = random_batch(rng, 5, 7, 4, alpha=0.4)
        out = fullmatch_loss(labelled, unlabelled, 0.6, 0.9, 0.5, 0.5, 0.5)
        perm_lab = [labelled[i] for i in rng.permutation(len(labelled))]
        perm_unlab = [unlabelled[i] for i in rng.permutation(len(unlabelled))]
        out_perm = fullmatch_loss(perm_lab, perm_unlab, 0.6, 0.9, 0.5, 0.5, 0.5)
        assert abs(out.total - out_perm.total) < 1e-12


class TestMultitaskLoss:
    def test_joint_gate_excludes_half_confident_sample(self):
        emo_unlab = [([0.97, 0.02, 0.01], [0.5, 0.3, 0.2])]
        int_unlab = [([0.90, 0.05, 0.05], [0.5, 0.3, 0.2])]
        out = multitask_loss("fixmatch", [], [], emo_unlab, int_unlab, tau=0.95)
        assert out.emo.accepted_count == 0
        assert out.intent.accepted_count == 0
        assert out.emo.l_fix_unsup == 0.0 and out.intent.l_fix_unsup == 0.0

    def test_symmetric_tasks_double_the_total(self, rng):
        labelled, unlabelled = random_batch(rng, 4, 5, 4, alpha=0.4)
        for method in ("baseline", "fixmatch", "fullmatch"):
            out = multitask_loss(method, labelled, labelled, unlabelled, unlabelled,
                                 lam=1.0, tau=0.6, sigma=0.9)
            single = out.emo.total
            assert abs(out.total - 2 * single) < 1e-12

    def test_fullmatch_gates_are_per_task(self):
        # emotion confident, intent not: fixmatch blocks both, fullmatch keeps
        # the emotion-side consistency term
        emo_unlab = [([0.97, 0.02, 0.01], [0.5, 0.3, 0.2])]
        int_unlab = [([0.90, 0.05, 0.05], [0.5, 0.3, 0.2])]
        fix = multitask_loss("fixmatch", [], [], emo_unlab, int_unlab, tau=0.95)
        full = multitask_loss("fullmatch", [], [], emo_unlab, int_unlab, tau=0.95)
        assert fix.emo.accepted_count == 0
        assert full.emo.accepted_count == 1
        assert full.intent.accepted_count == 0
        # and the rank losses are active for both tasks independently
        assert full.emo.l_neg > 0.0 and full.intent.l_neg > 0.0

    def test_mismatched_counts_rejected(self, rng):
        labelled, unlabelled = random_batch(rng, 3, 4, 4)
        with pytest.raises(ContractError):
            multitask_loss("fixmatch", labelled, labelled[:-1], unlabelled, unlabelled)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            multitask_loss("selfmatch", [], [], [], [])

    def test_intent_weight_scales_intent_total(self, rng):
        labelled, unlabelled = random_batch(rng, 4, 5, 4, alpha=0.4)
        l2, u2 = random_batch(rng, 4, 5, 4, alpha=0.4)
        out = multitask_loss("fullmatch", labelled, l2, unlabelled, u2,
                             lam=0.25, tau=0.6, sigma=0.9)
        assert abs(out.total - (out.emo.total + 0.25 * out.intent.total)) < 1e-12


# ---------------------------------------------------------------------------
# the per-method decision path
# ---------------------------------------------------------------------------

class TestMethodPolicy:
    def test_fixmatch_joint_gate_without_rank_losses(self):
        weak_emo = np.array([[0.97, 0.03], [0.97, 0.03], [0.6, 0.4]])
        weak_int = np.array([[0.96, 0.04], [0.90, 0.10], [0.99, 0.01]])
        gate, sigma = method_policy("fixmatch", weak_emo, weak_int, tau=0.95, sigma=0.9)
        assert gate.tolist() == [True, False, False]
        assert sigma is None

    def test_fullmatch_per_task_gates_with_rank_losses(self, rng):
        weak = random_probs(rng, 4, 3)
        assert method_policy("fullmatch", weak, weak, tau=0.95, sigma=0.9) == (None, 0.9)

    def test_baseline_rejected(self, rng):
        weak = random_probs(rng, 4, 3)
        with pytest.raises(ConfigError):
            method_policy("baseline", weak, weak, tau=0.95, sigma=0.9)

    @pytest.mark.parametrize("method", ["fixmatch", "fullmatch"])
    def test_task_batches_of_differing_length_rejected(self, rng, method):
        weak = (random_probs(rng, 3, 3), random_probs(rng, 1, 2))
        with pytest.raises(ContractError, match="differ in length"):
            batch_terms(method, weak, weak, tau=0.5, sigma=0.9)

    def test_fixed_k_adapters_equal_the_selected_k_path(self, rng):
        for _ in range(50):
            c = int(rng.integers(3, 9))
            weak = random_probs(rng, 6, c, alpha=0.4)
            strong = random_probs(rng, 6, c, alpha=0.4)
            sigma = float(rng.uniform(0.5, 0.99))
            k = select_k(weak, strong, sigma).k
            terms = build_task_terms(weak, strong, tau=0.5, sigma=sigma)
            selected = task_loss_from_terms(None, None, strong, terms, LossCoefficients())
            unlabelled = list(zip(weak, strong))
            assert adaptive_negative_loss(unlabelled, k) == selected.l_neg
            assert entropy_meaning_loss(unlabelled, k) == selected.l_ent


# ---------------------------------------------------------------------------
# one decision body behind every entry point
# ---------------------------------------------------------------------------

_W = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
_S = np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]])
_LAB = [(np.array([0.6, 0.3, 0.1]), 0), (np.array([0.2, 0.5, 0.3]), 1)]
_UNLAB = list(zip(_W, _S))

# (entry point, call, probability matrices it is passed)
_ENTRY_POINTS = [
    ("rank_classes", lambda: rank_classes(_W[0]), 1),
    ("select_k", lambda: select_k(_W, _S, 0.9), 2),
    ("gate_pseudo_label", lambda: gate_pseudo_label(_W[0], 0.5), 1),
    ("entropy_meaning_soft_label", lambda: entropy_meaning_soft_label(_W[0], _S[0], 2), 2),
    ("adaptive_negative_loss", lambda: adaptive_negative_loss(_UNLAB, 2), 2),
    ("entropy_meaning_loss", lambda: entropy_meaning_loss(_UNLAB, 2), 2),
    ("build_task_terms-fixmatch", lambda: build_task_terms(_W, None, 0.5), 1),
    ("build_task_terms-fullmatch", lambda: build_task_terms(_W, _S, 0.5, 0.9), 2),
    ("batch_terms-fixmatch", lambda: batch_terms("fixmatch", (_W, _W), (None, None), 0.5, 0.9), 2),
    ("batch_terms-fullmatch", lambda: batch_terms("fullmatch", (_W, _W), (_S, _S), 0.5, 0.9), 4),
    ("method_policy-fixmatch", lambda: method_policy("fixmatch", _W, _W, 0.5, 0.9), 2),
    ("fixmatch_loss", lambda: fixmatch_loss(_LAB, _UNLAB, 0.5, 0.5), 3),
    ("fullmatch_loss", lambda: fullmatch_loss(_LAB, _UNLAB, 0.5, 0.9, 0.5, 0.5, 0.5), 3),
    ("multitask_loss-fixmatch",
     lambda: multitask_loss("fixmatch", _LAB, _LAB, _UNLAB, _UNLAB, tau=0.5, sigma=0.9), 6),
    ("multitask_loss-fullmatch",
     lambda: multitask_loss("fullmatch", _LAB, _LAB, _UNLAB, _UNLAB, tau=0.5, sigma=0.9), 6),
]


class TestOneDecisionBody:
    @pytest.mark.parametrize("call, matrices", [case[1:] for case in _ENTRY_POINTS],
                             ids=[case[0] for case in _ENTRY_POINTS])
    def test_each_matrix_checked_once(self, monkeypatch, call, matrices):
        calls = []
        check = semimatch.losses._as_prob_matrix
        monkeypatch.setattr(semimatch.losses, "_as_prob_matrix",
                            lambda rows, what: calls.append(what) or check(rows, what))
        call()
        assert len(calls) == matrices, calls

    def test_task_terms_are_frozen(self):
        terms = build_task_terms(_W, _S, 0.5, 0.9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            terms.gate = np.ones(2, dtype=bool)

    def test_fullmatch_loss_is_the_emotion_task_of_multitask_loss(self, rng):
        for _ in range(100):
            n_lab, n_unlab = int(rng.integers(0, 5)), int(rng.integers(1, 7))
            labelled, unlabelled = random_batch(rng, n_lab, n_unlab, int(rng.integers(2, 6)),
                                                alpha=0.4)
            l2, u2 = random_batch(rng, n_lab, n_unlab, int(rng.integers(2, 6)), alpha=0.4)
            tau, sigma = float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.3, 1.0))
            lams = tuple(float(x) for x in rng.uniform(0.0, 1.0, 3))
            single = fullmatch_loss(labelled, unlabelled, tau, sigma, *lams)
            multi = multitask_loss("fullmatch", labelled, l2, unlabelled, u2, 0.5, tau, sigma,
                                   *lams)
            assert single == multi.emo

    def test_fixmatch_loss_is_either_task_of_multitask_loss_on_itself(self, rng):
        # a task's gate ANDed with itself is its own gate
        for _ in range(100):
            labelled, unlabelled = random_batch(rng, int(rng.integers(0, 5)),
                                                int(rng.integers(1, 7)),
                                                int(rng.integers(2, 6)), alpha=0.4)
            tau, lam1 = float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.0, 1.0))
            single = fixmatch_loss(labelled, unlabelled, tau, lam1)
            multi = multitask_loss("fixmatch", labelled, labelled, unlabelled, unlabelled,
                                   0.5, tau, 0.9, lam1)
            assert single == multi.emo == multi.intent
