"""Similarity tables, the bidirectional KL loss, and the linear-head
cross-entropy baseline, in closed form: values, gradients against the
unfused one-hot chains and central differences, and the checks on labels,
temperature and scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    column_normalized_labels,
    finite_difference_check,
    unfused_clip_kl,
    unfused_softmax_xent,
)
from ordinalproto.matching import (
    baseline_logits,
    contrastive_loss,
    contrastive_loss_grad,
    cross_entropy_loss,
    cross_entropy_loss_grad,
    label_column,
    similarity,
    similarity_grad,
    softmax,
)

H = 1e-5
FD_TOL = 1e-4
PROPERTY_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)
LOSSES = ("clip-kl", "softmax-xent")


def _unit_rows(rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _orthonormal_pair():
    protos = np.eye(2)
    return protos.copy(), protos.copy()  # images aligned with prototypes


def _scores(images, protos):
    return similarity(images, protos)[0]


def _loss(kind, scores, labels, temperature=1.0):
    """(value, gradient in the scores) of one loss at rank indices: the
    contrastive loss ("clip-kl") at `temperature`, or the cross-entropy
    ("softmax-xent")."""
    y = label_column(labels)
    if kind == "clip-kl":
        value, kept = contrastive_loss(scores, y, temperature)
        return value, contrastive_loss_grad(kept)
    value, kept = cross_entropy_loss(scores, y)
    return value, cross_entropy_loss_grad(kept)


def _log_softmax(x, axis):
    """(log softmax, softmax) of x along `axis`, as a whole matrix each."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=axis, keepdims=True)
    return shifted - np.log(total), e / total


def _signed(rng, shape):
    return rng.uniform(0.25, 1.5, size=shape) * rng.choice((-1.0, 1.0), size=shape)


def _loss_labels(draw, rng):
    """(B rank indices, C) for the losses, each batch one of: B > C, so
    some rank is repeated; B < C, so some rank is absent; or B = 1."""
    dims = st.integers(1, 4)
    kind = draw(st.sampled_from(["repeated", "absent", "one row"]))
    cols = draw(dims)
    rows = {"repeated": cols + draw(dims), "absent": cols, "one row": 1}[kind]
    if kind == "absent":
        cols += draw(dims)
    return rng.integers(0, cols, size=rows), cols


def _scores_and_labels(data):
    """B x C scores and B labels, B in 1..40 and C in 1..6, so that most
    batches repeat ranks and some leave ranks absent; the scores are
    Gaussian with standard deviation 3, so the loss sums round."""
    rows, cols = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return 3.0 * rng.normal(size=(rows, cols)), rng.integers(0, cols, size=rows)


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

    def test_row_softmax_direct_evaluation(self):
        # softmax([0, ln 3]) = [1, 3] / 4
        out = softmax(np.array([[0.0, np.log(3.0)]]), axis=1)
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_row_softmax_rows_sum_to_one(self):
        # cosine-scale inputs: the operating range of the similarity tables
        rng = np.random.default_rng(1)
        value = softmax(rng.uniform(-1, 1, size=(6, 8)) / 0.07, axis=1)
        np.testing.assert_allclose(value.sum(axis=1), 1.0, atol=1e-12)
        assert (value > 0).all() and (value < 1).all()

    def test_col_softmax_cols_sum_to_one(self):
        rng = np.random.default_rng(2)
        value = softmax(rng.normal(size=(6, 8)) / 0.5, axis=0)
        np.testing.assert_allclose(value.sum(axis=0), 1.0, atol=1e-12)

    def test_gradients_match_the_at_operator_bitwise(self):
        """similarity_grad reads the transposed copy similarity made: dI =
        dS @ P and dP = (I.T @ dS).T, each as the tape's matmul and
        transpose rules formed them."""
        rng = np.random.default_rng(12)
        images, protos = _unit_rows(5, 6, 13), _unit_rows(4, 6, 14)
        scores, protos_t = similarity(images, protos)
        d_scores = rng.normal(size=scores.shape)
        d_images, d_protos = similarity_grad(d_scores, images, protos_t)
        np.testing.assert_array_equal(scores, images @ protos.T)
        np.testing.assert_array_equal(d_images, d_scores @ protos_t.T)
        np.testing.assert_array_equal(d_protos, (images.T @ d_scores).T)
        assert d_protos.flags.c_contiguous


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
        for op in LOSSES:
            with pytest.raises(ValueError, match=rf"^{op}: labels must be integers in \[0, 3\)$"):
                _loss(op, np.zeros((2, 3)), labels)

    @pytest.mark.parametrize("kind", LOSSES)
    @pytest.mark.parametrize("bad", [0.5, 2.9999, -1.0, 3.0, 1e300, np.nan, np.inf, -np.inf])
    def test_a_label_that_is_not_a_rank_raises_naming_the_op(self, kind, bad):
        """A label is an integer in [0, C). A fractional one is not
        truncated to a rank: it raises ValueError naming the op, as a
        negative, too large or non-finite one does."""
        message = rf"^{kind}: labels must be integers in \[0, 3\)$"
        with pytest.raises(ValueError, match=message):
            _loss(kind, np.zeros((2, 3)), [1.0, bad])
        _loss(kind, np.zeros((2, 3)), [1.0, 2.0])

    def test_bad_label_shapes_and_temperatures_are_rejected(self):
        """A label column must be B x 1, B > 0: one row per score row, and
        not a one-hot matrix or a row of labels."""
        s = np.zeros((2, 3))
        with pytest.raises(ValueError, match=r"clip-kl: incompatible shapes \(\(2, 3\), \(3, 1\)\)"):
            contrastive_loss(s, label_column([0, 1, 2]), 1.0)
        with pytest.raises(ValueError, match=r"softmax-xent: incompatible shapes \(\(2, 3\), \(2, 3\)\)"):
            cross_entropy_loss(s, np.eye(3)[[0, 1]])
        with pytest.raises(ValueError, match=r"softmax-xent: incompatible shapes \(\(2, 3\), \(1, 2\)\)"):
            cross_entropy_loss(s, np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"softmax-xent: incompatible shapes \(\(0, 3\), \(0, 1\)\)"):
            cross_entropy_loss(np.zeros((0, 3)), label_column([]))
        with pytest.raises(ValueError, match="temperature must be positive"):
            contrastive_loss(s, label_column([0, 1]), 0.0)

    @pytest.mark.parametrize("kind", LOSSES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_score_raises_naming_the_loss(self, kind, bad):
        """Each loss checks its scores: a non-finite one in a column no
        label reads would leave the loss finite and its gradient NaN."""
        scores = np.zeros((2, 3))
        scores[1, 2] = bad
        with pytest.raises(FloatingPointError, match=f"^non-finite values produced by op '{kind}'$"):
            _loss(kind, scores, [0, 1])

    @pytest.mark.parametrize("kind", LOSSES)
    def test_a_loss_that_overflows_on_finite_scores_raises_naming_the_loss(self, kind):
        """Scores 3e308 apart shift the lower one to -inf, so the loss at
        that label is infinite, and the loss raises as a tape recording
        it did. At the other label the loss is 0, and finite."""
        scores = np.array([[1.5e308, -1.5e308]])
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError,
                               match=f"^non-finite values produced by op '{kind}'$"):
                _loss(kind, scores, [1])
            assert _loss(kind, scores, [0])[0] == 0.0


class TestContrastiveLoss:
    def _loss_value(self, images, protos, labels, temperature):
        return _loss("clip-kl", _scores(images, protos), labels, temperature)[0]

    @pytest.mark.parametrize("temperature", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_nonpositive_temperature_rejected(self, temperature):
        with pytest.raises(ValueError, match="temperature must be positive"):
            self._loss_value(np.eye(2), np.eye(2), [0, 1], temperature)

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
        images, protos = _unit_rows(3, 6, 13), _unit_rows(4, 6, 14)
        scores, protos_t = similarity(images, protos)
        _, d_scores = _loss("clip-kl", scores, rng.integers(0, 4, size=3), 0.07)
        d_images, d_protos = similarity_grad(d_scores, images, protos_t)
        assert np.abs(d_images).max() > 0
        assert np.abs(d_protos).max() > 0

    def test_gradient_matches_finite_differences_at_peaked_scores(self):
        """Labels 0, 2, 1 at t = 0.5, at scores peaked toward the labels."""
        labels = [0, 2, 1]
        scores = 2.0 * np.eye(3)[labels]
        _, analytic = _loss("clip-kl", scores, labels, 0.5)
        f = lambda s: _loss("clip-kl", s, labels, 0.5)[0]  # noqa: E731
        assert finite_difference_check(f, scores, analytic, h=H) <= FD_TOL

    def test_gradient_matches_finite_differences_with_unlabelled_ranks(self):
        # ranks 4, 5 and 6 are unlabelled: columns left out of the column term
        labels = [0, 2, 2, 7, 1, 3]
        scores = np.random.default_rng(22).normal(size=(6, 8))
        _, analytic = _loss("clip-kl", scores, labels, 0.7)
        f = lambda s: _loss("clip-kl", s, labels, 0.7)[0]  # noqa: E731
        assert finite_difference_check(f, scores, analytic, h=H) <= FD_TOL


class TestBaselineHead:
    def test_zero_weights_constant_bias_gives_constant_logits(self):
        features = np.random.default_rng(0).normal(size=(5, 4))
        logits, _ = baseline_logits(np.zeros((3, 4)), np.full((1, 3), 2.5), features)
        np.testing.assert_array_equal(logits, np.full((5, 3), 2.5))

    def test_one_hot_features_select_weight_columns(self):
        weights = np.random.default_rng(1).normal(size=(3, 4))
        logits, _ = baseline_logits(weights, np.zeros((1, 3)), np.eye(4))
        np.testing.assert_allclose(logits, weights.T, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        w, b = np.ones((3, 4)), np.ones((1, 3))
        with pytest.raises(ValueError, match=r"matmul: incompatible shapes \(\(2, 5\), \(4, 3\)\)"):
            baseline_logits(w, b, np.ones((2, 5)))
        with pytest.raises(ValueError, match=r"add: incompatible shapes \(\(2, 3\), \(1, 4\)\)"):
            baseline_logits(w, np.ones((1, 4)), np.ones((2, 4)))


class TestCrossEntropy:
    def _ce(self, logits, labels):
        return _loss("softmax-xent", logits, labels)[0]

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

    def test_kl_of_identical_distributions_is_zero(self):
        """Logits whose softmax is the one-hot row of each label
        (exp(-2000) underflows to 0): zero loss and zero gradient,
        exactly."""
        labels = [1, 0, 3]
        logits = np.full((3, 4), -1000.0)
        logits[np.arange(3), labels] = 1000.0
        value, grad = _loss("softmax-xent", logits, labels)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_gradient_matches_finite_differences(self):
        labels = [4, 0, 4, 2]  # a repeated rank, and ranks 1 and 3 unlabelled
        logits = np.random.default_rng(24).normal(size=(4, 5))
        _, analytic = _loss("softmax-xent", logits, labels)
        f = lambda s: _loss("softmax-xent", s, labels)[0]  # noqa: E731
        assert finite_difference_check(f, logits, analytic, h=H) <= FD_TOL


class TestLossFormulas:
    """Both losses against the plain numpy formulas they replace: the
    one-hot formulas bitwise, the unfused chains within 1e-12, and central
    differences."""

    def test_losses_stay_finite_where_the_softmax_underflows(self):
        """At t = 1e-4 the row softmax of [1, -1] is exp(-2e4) = 0 on the
        label, where log(softmax) is -inf. The log-sum-exp form gives the
        exact loss."""
        value, grad = _loss("clip-kl", np.array([[1.0, -1.0]]), [1], 1e-4)
        assert value == 1e4  # 0.5 * 2e4 + 0.5 * 0
        np.testing.assert_allclose(grad, [[5e3, -5e3]], rtol=1e-15)
        value, grad = _loss("softmax-xent", np.array([[1000.0, -1000.0]]), [1])
        assert value == 2000.0
        np.testing.assert_array_equal(grad, [[1.0, -1.0]])

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_cross_entropy_equals_the_two_gather_formula(self, data):
        """The KL sum over the support of the labels' one-hot rows Y,
        gathered as y * (log y - log q) with log-probabilities in
        log-sum-exp form, over the B rows, and its gradient
        (P * rowsum(Y) - Y) / B: the one-hot formulas, bitwise, though the
        loss reads the labels alone."""
        x, labels = _scores_and_labels(data)
        rows, cols = x.shape
        y = np.eye(cols)[labels]
        log_q, q = _log_softmax(x, axis=1)
        s = y > 0
        expected = float(np.sum(y[s] * (np.log(y[s]) - log_q[s]))) * (1.0 / rows)
        expected_grad = q * y.sum(axis=1, keepdims=True)
        expected_grad -= y
        expected_grad *= 1.0 * (1.0 / rows)
        value, grad = _loss("softmax-xent", x, labels)
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()
        assert grad.tobytes() == expected_grad.tobytes()

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_contrastive_loss_equals_the_one_hot_formula_bitwise(self, data):
        """The value and gradient of the labels' one-hot rows Y and their
        column-normalized Yc, formed as B x C matrices and summed over their
        support, equal the loss's, which reads Y and Yc at the labels
        alone, bitwise; repeated and absent ranks included."""
        x, labels = _scores_and_labels(data)
        rows, cols = x.shape
        t = data.draw(st.floats(0.05, 2.0))
        y = np.eye(cols)[labels]
        col_sums = y.sum(axis=0, keepdims=True)
        mask = col_sums > 0
        y_col = np.divide(y, col_sums, out=np.zeros_like(y), where=mask)
        log_row, p_row = _log_softmax(x / t, axis=1)
        log_col, p_col = _log_softmax(x / t, axis=0)
        w_row, w_col = 0.5 / rows, 0.5 / int(np.count_nonzero(mask))

        def kl(target, log_q):
            s = target > 0
            return float(np.sum(target[s] * (np.log(target[s]) - log_q[s])))

        expected = w_row * kl(y, log_row) + w_col * kl(y_col, log_col)
        row = p_row * y.sum(axis=1, keepdims=True)
        row -= y
        col = p_col * mask
        col -= y_col
        expected_grad = ((1.0 / t) * w_row) * row + ((1.0 / t) * w_col) * col
        value, grad = _loss("clip-kl", x, labels, t)
        assert np.float64(value).tobytes() == np.float64(expected).tobytes()
        assert grad.tobytes() == expected_grad.tobytes()

    @pytest.mark.parametrize("kind", LOSSES)
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_loss_matches_the_unfused_chain(self, kind, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        labels, ranks = _loss_labels(data.draw, rng)
        scores = _signed(rng, (len(labels), ranks))
        temperature = data.draw(st.floats(0.5, 2.0))
        if kind == "clip-kl":
            ref_value, ref_grad = unfused_clip_kl(scores, labels, temperature)
        else:
            ref_value, ref_grad = unfused_softmax_xent(scores, labels)
        value, grad = _loss(kind, scores, labels, temperature)
        assert abs(value - ref_value) <= 1e-12
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)
        f = lambda s: _loss(kind, s, labels, temperature)[0]  # noqa: E731
        assert finite_difference_check(f, scores, grad, h=H) <= FD_TOL
