"""Prediction rules, error metrics, the ordinality score, and the
CSV/PGM heatmap exports."""

import numpy as np
import pytest

from ordinalproto.diffcore import softmax
from ordinalproto.metrics import (
    accuracy,
    export_heatmap,
    mae,
    metric_report,
    ordinality_from_matrix,
    ordinality_score,
    predict,
    prototype_similarity,
)
from ordinalproto.prompt import PromptConfig, build_interpolation_matrix


def _line_prototypes(c, dim=8, delta=0.1, seed=0):
    """Unit prototypes marching along a line: u + j*delta*v, normalized."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(dim, 2)))[0].T
    u, v = basis[0], basis[1]
    protos = np.stack([u + j * delta * v for j in range(c)])
    return protos / np.linalg.norm(protos, axis=1, keepdims=True)


class TestPredict:
    def test_argmax_row(self):
        assert predict(np.array([[0.1, 0.9, 0.3]]))[0] == 1

    def test_exact_tie_takes_the_lowest_index(self):
        assert predict(np.array([[0.5, 0.5]]))[0] == 0

    def test_expectation_rule_direct_evaluation(self):
        # softmax([0, ln 3]) = [0.25, 0.75]; expected rank 0.75 rounds to 1
        scores = np.array([[0.0, np.log(3.0)]])
        assert predict(scores, rule="expectation", temperature=1.0)[0] == 1

    def test_argmax_is_invariant_to_temperature_scaling(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(20, 7))
        base = predict(scores)
        for t in (0.01, 0.07, 1.0):
            np.testing.assert_array_equal(predict(scores / t), base)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="prediction rule"):
            predict(np.ones((1, 2)), rule="median")


class TestErrorMetrics:
    def test_mae_zero_on_equal(self):
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_mae_hand_case(self):
        assert mae([0, 2], [1, 1]) == 1.0

    def test_mae_single_sample(self):
        assert mae([5], [2]) == 3.0

    def test_accuracy_cases(self):
        assert accuracy([1, 2], [1, 2]) == 1.0
        assert accuracy([1, 0], [1, 2]) == 0.5
        assert accuracy([0, 1, 2], [0, 2, 2]) == pytest.approx(2 / 3)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            mae([], [])
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 9, size=40)
        truth = rng.integers(0, 9, size=40)
        perm = rng.permutation(40)
        assert mae(pred, truth) == mae(pred[perm], truth[perm])
        assert accuracy(pred, truth) == accuracy(pred[perm], truth[perm])


class TestOrdinalityScore:
    def test_line_prototypes_score_exactly_one(self):
        assert ordinality_score(_line_prototypes(10)) == 1.0

    def test_two_prototypes_score_is_zero_or_one(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            p = rng.normal(size=(2, 6))
            p /= np.linalg.norm(p, axis=1, keepdims=True)
            assert ordinality_score(p) in (0.0, 1.0)

    def test_invariant_to_temperature_and_max_normalization_exactly(self):
        """The score from raw cosines equals the score from the softmaxed,
        max-normalized table, for every temperature, with exact equality."""
        rng = np.random.default_rng(3)
        protos = rng.normal(size=(12, 8))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        raw_score = ordinality_score(protos)
        for t in (0.01, 0.07, 1.0):
            table_score = ordinality_from_matrix(prototype_similarity(protos, t))
            assert table_score == raw_score

    def test_reversed_line_still_scores_one(self):
        # ordinality counts decay with |i - j|, not direction of the labels
        assert ordinality_score(_line_prototypes(10)[::-1]) == 1.0

    def test_random_prototypes_score_near_half(self):
        scores = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p = rng.normal(size=(30, 16))
            p /= np.linalg.norm(p, axis=1, keepdims=True)
            scores.append(ordinality_score(p))
        assert 0.35 <= np.mean(scores) <= 0.65

    def test_pair_count_denominator(self):
        # hand count over the six (i, j) pairs with i <= j <= C-2:
        # i=0 hits at j=0,1 and misses at j=2 (0.8 < 0.85);
        # i=1 hits at j=1, misses the 0 == 0 tie at j=2; i=2 hits at j=2
        s = np.eye(4)
        s[0, 1], s[0, 2], s[0, 3] = 0.9, 0.8, 0.85
        assert ordinality_from_matrix(s) == pytest.approx(4 / 6)

    @pytest.mark.parametrize("c", [2, 3, 5, 20, 100])
    def test_equals_the_per_row_loop_on_random_and_tied_tables(self, c):
        def by_rows(s):
            # reference: count row i's hits over j in [i, C-2] one row at a time
            hits = sum(int(np.sum(s[i, i : c - 1] > s[i, i + 1 : c])) for i in range(c - 1))
            return hits / (c * (c - 1) / 2)

        rng = np.random.default_rng(c)
        for _ in range(25):
            random_table = rng.normal(size=(c, c))
            tied_table = rng.integers(0, 3, size=(c, c)).astype(np.float64)
            for s in (random_table, tied_table):
                assert ordinality_from_matrix(s) == by_rows(s)


class TestPrototypeSimilarity:
    def test_global_maximum_is_one(self):
        protos = _line_prototypes(8)
        table = prototype_similarity(protos, 0.07)
        assert table.max() == 1.0
        assert table.shape == (8, 8)


@pytest.mark.parametrize("c", [2, 20, 100])
def test_softmax_rules_equal_the_inline_formulas_bitwise(c):
    """predict's expectation rule and prototype_similarity take their row
    softmax from diffcore.softmax; both equal the shift, exp and
    normalize written out here, bit for bit."""

    def row_softmax(scores):
        scores = scores - scores.max(axis=1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs

    rng = np.random.default_rng(c)
    for temperature in (0.07, 1.0):
        scores = rng.normal(size=(16, c))
        np.testing.assert_array_equal(softmax(scores / temperature, axis=1),
                                      row_softmax(scores / temperature))
        expect = row_softmax(scores / temperature) @ np.arange(c, dtype=np.float64)
        old = np.clip(np.floor(expect + 0.5).astype(np.int64), 0, c - 1)
        np.testing.assert_array_equal(predict(scores, "expectation", temperature), old)
        protos = _line_prototypes(c, seed=c)
        probs = row_softmax((protos @ protos.T) / temperature)
        np.testing.assert_array_equal(prototype_similarity(protos, temperature), probs / probs.max())


class TestHeatmapExport:
    def test_identity_pgm_has_255_diagonal(self, tmp_path):
        files = export_heatmap(np.eye(3), tmp_path / "identity")
        pgm = next(p for p in files if p.suffix == ".pgm")
        blob = pgm.read_bytes()
        assert blob.startswith(b"P5\n3 3\n255\n")
        pixels = np.frombuffer(blob[len(b"P5\n3 3\n255\n"):], dtype=np.uint8).reshape(3, 3)
        np.testing.assert_array_equal(pixels, 255 * np.eye(3, dtype=np.uint8))

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(5, 7))
        files = export_heatmap(matrix, tmp_path / "m")
        csv = next(p for p in files if p.suffix == ".csv")
        np.testing.assert_allclose(np.loadtxt(csv, delimiter=",", skiprows=1), matrix, atol=1e-9)
        assert csv.read_text().splitlines()[0] == "5,7"

    def test_constant_matrix_writes_a_sidecar_note(self, tmp_path):
        files = export_heatmap(np.full((4, 4), 3.0), tmp_path / "flat")
        note = next(p for p in files if p.name.endswith(".pgm.txt"))
        assert "constant" in note.read_text()
        pgm = next(p for p in files if p.suffix == ".pgm")
        assert set(pgm.read_bytes()[len(b"P5\n4 4\n255\n"):]) == {0}

    def test_non_finite_matrix_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            export_heatmap(np.array([[1.0, np.inf]]), tmp_path / "bad")

    def test_interpolation_matrix_export_is_banded(self, tmp_path):
        """The 17-rank / 10-base weight table concentrates each row's mass
        near the proportional diagonal, for both kernels."""
        for kind in ("linear", "inverse-proportion"):
            cfg = PromptConfig(num_ranks=17, num_base_ranks=10, interpolation=kind)
            w = build_interpolation_matrix(cfg)
            export_heatmap(w, tmp_path / f"interp_{kind}")
            peaks = np.argmax(w, axis=1)
            assert (np.diff(peaks) >= 0).all()  # peaks march with the rank
            expected = np.round(np.arange(17) * 9 / 16)
            assert np.abs(peaks - expected).max() <= 1


class TestMetricReport:
    def test_fields_and_counts(self):
        protos = _line_prototypes(4)
        report = metric_report([0, 1, 2], [0, 2, 2], protos, 4)
        assert report.mae == pytest.approx(1 / 3)
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.ordinality == 1.0
        assert report.per_rank_counts == (1, 0, 2, 0)
