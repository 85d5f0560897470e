"""Interpolation matrix contract, sequence assembly, and parameter init."""

import numpy as np
import pytest

from conftest import sum_all
from ordinalproto.diffcore import Tape
from ordinalproto.prompt import (
    INVERSE_PROPORTION,
    LINEAR,
    PromptConfig,
    assemble_sequences,
    build_interpolation_matrix,
    init_parameters,
    interpolate_rank_embeddings,
    template_token_ids,
)


def _cfg(c, cp, kind=LINEAR, **kw):
    return PromptConfig(num_ranks=c, num_base_ranks=cp, interpolation=kind, **kw)


class TestInterpolationMatrix:
    def test_linear_3_ranks_2_bases_exact(self):
        w = build_interpolation_matrix(_cfg(3, 2))
        np.testing.assert_array_equal(w, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])

    def test_inverse_proportion_square_is_near_identity(self):
        w = build_interpolation_matrix(_cfg(3, 3, INVERSE_PROPORTION))
        np.testing.assert_allclose(w, np.eye(3), atol=1e-4)

    def test_linear_5_ranks_3_bases_first_row(self):
        # affinities for row 0 are [1, 0.5, 0], normalized by 1.5
        w = build_interpolation_matrix(_cfg(5, 3))
        np.testing.assert_allclose(w[0], [2 / 3, 1 / 3, 0.0], atol=1e-15)

    @pytest.mark.parametrize("kind", [LINEAR, INVERSE_PROPORTION])
    def test_invariants_over_a_size_grid(self, kind):
        """Row-stochastic, non-negative, reflection-symmetric."""
        for c in (2, 3, 5, 8, 13, 21, 40):
            for cp in range(2, c + 1):
                w = build_interpolation_matrix(_cfg(c, cp, kind))
                assert w.shape == (c, cp)
                np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
                assert (w >= 0).all()
                np.testing.assert_allclose(w, w[::-1, ::-1], atol=1e-12)

    def test_inverse_proportion_monotone_locality(self):
        """The nearest base slot takes the strictly largest row weight
        whenever the distances have a unique minimum."""
        for c, cp in ((7, 3), (20, 6), (15, 15), (33, 9)):
            w = build_interpolation_matrix(_cfg(c, cp, INVERSE_PROPORTION))
            j = np.arange(c)[:, None]
            k = np.arange(cp)[None, :]
            dist = np.abs(j - k * (c - 1) / (cp - 1))
            for row in range(c):
                order = np.sort(dist[row])
                if order[1] - order[0] < 1e-12:
                    continue  # equidistant tie
                assert np.argmax(w[row]) == np.argmin(dist[row])

    def test_single_base_rank_rejected(self):
        with pytest.raises(ValueError, match="num_base_ranks"):
            build_interpolation_matrix(_cfg(4, 1))


class TestInterpolateRankEmbeddings:
    def test_identity_weights_return_base_rows(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(4, 6))
        tape = Tape()
        node = interpolate_rank_embeddings(tape, np.eye(4), tape.constant(base))
        np.testing.assert_array_equal(tape.value(node), base)

    def test_opposite_bases_cancel(self):
        r0 = np.array([1.0, -2.0, 3.0])
        tape = Tape()
        base = tape.constant(np.vstack([r0, -r0]))
        node = interpolate_rank_embeddings(tape, np.array([[0.5, 0.5]]), base)
        np.testing.assert_allclose(tape.value(node), np.zeros((1, 3)), atol=1e-15)

    def test_middle_rank_is_the_base_mean(self):
        rng = np.random.default_rng(1)
        u, v = rng.normal(size=(2, 5))
        weights = build_interpolation_matrix(_cfg(3, 2))
        tape = Tape()
        node = interpolate_rank_embeddings(tape, weights, tape.constant(np.vstack([u, v])))
        np.testing.assert_allclose(tape.value(node)[1], (u + v) / 2, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        tape = Tape()
        base = tape.constant(np.ones((3, 4)))
        with pytest.raises(ValueError, match="do not match"):
            interpolate_rank_embeddings(tape, np.ones((5, 2)), base)

    def test_gradient_reaches_base_rows(self):
        rng = np.random.default_rng(2)
        weights = build_interpolation_matrix(_cfg(5, 3))
        tape = Tape()
        base = tape.parameter(rng.normal(size=(3, 4)), "base")
        node = interpolate_rank_embeddings(tape, weights, base)
        grads = tape.backward(sum_all(tape, node))
        # d sum(W @ B) / dB = W^T @ ones
        np.testing.assert_allclose(grads["base"], weights.T @ np.ones((5, 4)), atol=1e-12)


class TestAssembleSequences:
    def test_without_context_each_sequence_is_the_rank_row(self):
        rng = np.random.default_rng(3)
        ranks = rng.normal(size=(3, 4))
        tape = Tape()
        seqs = assemble_sequences(tape, None, tape.constant(ranks))
        assert len(seqs) == 3
        for j, node in enumerate(seqs):
            np.testing.assert_array_equal(tape.value(node), ranks[j : j + 1])

    def test_context_rows_are_shared_across_ranks(self):
        rng = np.random.default_rng(4)
        ctx = rng.normal(size=(2, 4))
        ranks = rng.normal(size=(2, 4))
        tape = Tape()
        seqs = assemble_sequences(tape, tape.constant(ctx), tape.constant(ranks))
        for node in seqs:
            value = tape.value(node)
            assert value.shape == (3, 4)
            np.testing.assert_array_equal(value[:2], ctx)

    def test_perturbing_one_context_row_moves_only_that_row_everywhere(self):
        rng = np.random.default_rng(5)
        ctx = rng.normal(size=(3, 4))
        ranks = rng.normal(size=(4, 4))

        def sequences(c):
            tape = Tape()
            nodes = assemble_sequences(tape, tape.constant(c), tape.constant(ranks))
            return [tape.value(n).copy() for n in nodes]

        before = sequences(ctx)
        bumped = ctx.copy()
        bumped[0] += 1.0
        after = sequences(bumped)
        for a, b in zip(before, after):
            assert not np.array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1:], b[1:])  # other ctx + rank row

    def test_word_dim_mismatch_rejected(self):
        tape = Tape()
        with pytest.raises(ValueError, match="word_dim"):
            assemble_sequences(tape, tape.constant(np.ones((2, 3))), tape.constant(np.ones((2, 4))))


class TestInitParameters:
    def test_same_seed_is_bitwise_identical(self):
        cfg = _cfg(5, 3)
        a = init_parameters(cfg, seed=42)
        b = init_parameters(cfg, seed=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        cfg = _cfg(5, 3)
        a = init_parameters(cfg, seed=0)
        b = init_parameters(cfg, seed=1)
        assert not np.array_equal(a[0], b[0])
        assert not np.array_equal(a[1], b[1])

    def test_template_of_full_length_copies_table_rows(self):
        rng = np.random.default_rng(6)
        table = rng.normal(size=(16, 8))
        cfg = PromptConfig(num_ranks=4, num_base_ranks=2, num_context=3,
                           word_dim=8, init_ctx=True)
        ctx, _ = init_parameters(cfg, seed=0, token_table=table)
        np.testing.assert_array_equal(ctx, table[[15, 14, 13]])

    def test_init_ctx_without_table_rejected(self):
        cfg = PromptConfig(num_ranks=4, num_base_ranks=2, init_ctx=True)
        with pytest.raises(ValueError, match="token table"):
            init_parameters(cfg, seed=0)

    def test_default_template_ids_use_the_top_of_the_vocab(self):
        assert template_token_ids(3, 64) == (63, 62, 61)
        with pytest.raises(ValueError):
            template_token_ids(10, 4)

