"""Similarity tables, the bidirectional KL loss, and the linear-head
cross-entropy baseline."""

import numpy as np
import pytest

from conftest import column_normalized_labels
from ordinalproto.diffcore import Tape, softmax
from ordinalproto.matching import (
    baseline_logits,
    contrastive_loss,
    cross_entropy_loss,
    label_column,
    similarity,
)


def _unit_rows(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _orthonormal_pair():
    protos = np.eye(2)
    return protos.copy(), protos.copy()  # images aligned with prototypes


def _scores(images, protos):
    tape = Tape()
    return tape.value(similarity(tape, tape.constant(images), tape.constant(protos)))


class TestSimilarity:
    """The score table, and the row and column softmaxes the contrastive
    loss takes of it."""

    def test_self_similarity_diagonal_is_one(self):
        protos = _unit_rows(4, 6, 0)
        np.testing.assert_allclose(np.diag(_scores(protos, protos)), 1.0, atol=1e-9)

    def test_entries_are_valid_cosines(self):
        assert (np.abs(_scores(_unit_rows(5, 8, 1), _unit_rows(7, 8, 2))) <= 1.0 + 1e-9).all()

    def test_single_row_softmax_direct_evaluation(self):
        # a = [1, 0] at T=1: softmax = [e, 1] / (e + 1)
        raw = _scores(np.array([[1.0, 0.0]]), np.eye(2))
        e = np.e
        np.testing.assert_allclose(softmax(raw / 1.0, axis=1), [[e / (e + 1), 1 / (e + 1)]],
                                   atol=1e-12)

    def test_small_temperature_approaches_one_hot(self):
        raw = _scores(np.array([[1.0, 0.0]]), np.eye(2))
        assert softmax(raw / 0.01, axis=1).max() > 0.999

    def test_normalization_marginals(self):
        raw = _scores(_unit_rows(6, 8, 3), _unit_rows(9, 8, 4))
        np.testing.assert_allclose(softmax(raw / 0.07, axis=1).sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(softmax(raw / 0.07, axis=0).sum(axis=0), 1.0, atol=1e-12)

    def test_row_argmax_is_temperature_invariant(self):
        raw = _scores(_unit_rows(10, 8, 5), _unit_rows(7, 8, 6))
        raw_argmax = np.argmax(raw, axis=1)
        for t in (0.01, 0.07, 1.0):
            np.testing.assert_array_equal(np.argmax(softmax(raw / t, axis=1), axis=1), raw_argmax)

    def test_latent_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"matmul: incompatible shapes \(\(2, 3\), \(4, 2\)\)"):
            _scores(np.ones((2, 3)), np.ones((2, 4)))


class TestLabelColumns:
    def test_a_label_column_holds_each_rank_index_as_a_float(self):
        y = label_column([1, 0, 2, 2])
        assert y.shape == (4, 1) and y.dtype == np.float64
        np.testing.assert_array_equal(y.ravel(), [1.0, 0.0, 2.0, 2.0])

    def test_column_normalization_leaves_zero_columns(self):
        ypp = column_normalized_labels(np.eye(4)[[0, 0, 2]])
        np.testing.assert_allclose(ypp[:, 0], [0.5, 0.5, 0.0])
        np.testing.assert_allclose(ypp[:, 2], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(ypp[:, 1], 0.0)
        np.testing.assert_array_equal(ypp[:, 3], 0.0)

    @pytest.mark.parametrize("labels", [[0, 5], [0.5, 1]], ids=["out-of-range", "fractional"])
    def test_a_label_outside_the_ranks_is_rejected_by_either_loss(self, labels):
        for build, op in ((lambda t, s: contrastive_loss(t, s, labels, 1.0), "clip-kl"),
                          (lambda t, s: cross_entropy_loss(t, s, labels), "softmax-xent")):
            tape = Tape()
            with pytest.raises(ValueError, match=rf"^{op}: labels must be integers in \[0, 3\)$"):
                build(tape, tape.constant(np.zeros((2, 3))))


class TestContrastiveLoss:
    def _loss_value(self, images, protos, labels, temperature):
        tape = Tape()
        scores = similarity(tape, tape.constant(images), tape.constant(protos))
        node = contrastive_loss(tape, scores, labels, temperature)
        return tape.value(node)[0, 0]

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            self._loss_value(np.eye(2), np.eye(2), [0, 1], -1.0)

    def test_orthogonal_matched_pairs_evaluate_to_log1p_e_minus_1(self):
        """B = C = 2 with identity labels at T = 1: both directions give
        KL([1,0], [e,1]/(e+1)) = ln(1+e) - 1, so the total equals it."""
        images, protos = _orthonormal_pair()
        value = self._loss_value(images, protos, [0, 1], 1.0)
        assert value == pytest.approx(np.log(1 + np.e) - 1.0, abs=1e-9)

    def test_perfect_match_at_small_temperature_is_zero(self):
        images, protos = _orthonormal_pair()
        assert self._loss_value(images, protos, [0, 1], 0.01) <= 1e-12

    def test_nonnegative_on_random_instances(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            b, c = int(rng.integers(1, 8)), int(rng.integers(2, 9))
            images = _unit_rows(b, 6, seed + 100)
            protos = _unit_rows(c, 6, seed + 200)
            labels = rng.integers(0, c, size=b)
            assert self._loss_value(images, protos, labels, 0.07) >= 0.0

    def test_strictly_positive_when_rows_mismatch(self):
        images, protos = _orthonormal_pair()
        assert self._loss_value(images, protos, [1, 0], 1.0) > 0.1

    def test_batch_permutation_leaves_the_loss_unchanged(self):
        rng = np.random.default_rng(7)
        images = _unit_rows(6, 8, 8)
        protos = _unit_rows(5, 8, 9)
        labels = rng.integers(0, 5, size=6)
        perm = rng.permutation(6)
        a = self._loss_value(images, protos, labels, 0.07)
        b = self._loss_value(images[perm], protos, labels[perm], 0.07)
        assert a == pytest.approx(b, abs=1e-12)

    def test_small_batch_skips_empty_label_columns(self):
        # B < C leaves label columns empty; the loss must stay finite
        images = _unit_rows(2, 8, 10)
        protos = _unit_rows(6, 8, 11)
        value = self._loss_value(images, protos, [1, 4], 0.07)
        assert np.isfinite(value) and value > 0

    def test_gradients_flow_to_both_sides(self):
        rng = np.random.default_rng(12)
        tape = Tape()
        images = tape.parameter(_unit_rows(3, 6, 13), "images")
        protos = tape.parameter(_unit_rows(4, 6, 14), "protos")
        scores = similarity(tape, images, protos)
        grads = tape.backward(contrastive_loss(tape, scores, rng.integers(0, 4, size=3), 0.07))
        assert np.abs(grads["images"]).max() > 0
        assert np.abs(grads["protos"]).max() > 0


class TestBaselineHead:
    def test_zero_weights_constant_bias_gives_constant_logits(self):
        tape = Tape()
        w = tape.constant(np.zeros((3, 4)))
        b = tape.constant(np.full((1, 3), 2.5))
        f = tape.constant(np.random.default_rng(0).normal(size=(5, 4)))
        logits = baseline_logits(tape, w, b, f)
        np.testing.assert_array_equal(tape.value(logits), np.full((5, 3), 2.5))

    def test_one_hot_features_select_weight_columns(self):
        rng = np.random.default_rng(1)
        weights = rng.normal(size=(3, 4))
        tape = Tape()
        w = tape.constant(weights)
        b = tape.constant(np.zeros((1, 3)))
        f = tape.constant(np.eye(4))
        logits = tape.value(baseline_logits(tape, w, b, f))
        np.testing.assert_allclose(logits, weights.T, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        tape = Tape()
        w = tape.constant(np.ones((3, 4)))
        b = tape.constant(np.ones((1, 3)))
        f = tape.constant(np.ones((2, 5)))
        with pytest.raises(ValueError, match=r"matmul: incompatible shapes \(\(2, 5\), \(4, 3\)\)"):
            baseline_logits(tape, w, b, f)
        bias_too_wide = tape.constant(np.ones((1, 4)))
        with pytest.raises(ValueError, match=r"add: incompatible shapes \(\(2, 3\), \(1, 4\)\)"):
            baseline_logits(tape, w, bias_too_wide, tape.constant(np.ones((2, 4))))


class TestCrossEntropy:
    def _ce(self, logits, labels):
        tape = Tape()
        node = cross_entropy_loss(tape, tape.constant(logits), labels)
        return tape.value(node)[0, 0]

    def test_uniform_logits_give_log_c(self):
        assert self._ce(np.zeros((3, 4)), [0, 1, 3]) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_strongly_peaked_logits_give_near_zero_loss(self):
        labels = np.array([2, 0, 1])
        logits = np.zeros((3, 3))
        logits[np.arange(3), labels] = 20.0
        assert self._ce(logits, labels) < 1e-8

    def test_equals_mean_row_kl_against_one_hot(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        manual = -np.mean(np.log(probs[np.arange(5), labels]))
        assert self._ce(logits, labels) == pytest.approx(manual, abs=1e-12)
