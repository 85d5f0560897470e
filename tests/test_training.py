"""Model training: seeded determinism, the tune gates, the pruned reverse
sweep against the unpruned reference, finite differences through the
whole loss, the in-place Adam step, and checkpoint loading."""

import struct

import numpy as np
import pytest

from conftest import reference_backward
from ordinalproto import data, training
from ordinalproto.diffcore import OP_KINDS, Tape, finite_difference_check
from ordinalproto.encoders import (
    BadMagicError,
    ChecksumMismatchError,
    TruncatedPayloadError,
    fnv1a64,
)
from ordinalproto.prompt import LINEAR, PromptConfig

NUM_RANKS = 5
TEMPERATURE = 0.07
PROMPT_METHODS = (training.ORDINALCLIP, training.COOP)
GATES = ((True, True), (False, True), (True, False), (False, False))


def _dataset():
    return data.generate_synthetic(NUM_RANKS, 8, 4, 0.25, 0)


def _model(method, tune_rank=True, tune_ctx=True, num_context=2, init_seed=0, hidden_dim=5,
           num_ranks=NUM_RANKS):
    prompt_cfg = None
    if method != training.BASELINE:
        prompt_cfg = PromptConfig(
            num_ranks, num_base_ranks=3, num_context=num_context, word_dim=6,
            interpolation=LINEAR, tune_rank=tune_rank, tune_ctx=tune_ctx,
        )
    return training.build_model(
        method, num_ranks, prompt_cfg, input_dim=4, hidden_dim=hidden_dim, latent_dim=6,
        max_len=4, vocab_size=8, init_seed=init_seed,
    )


def _batch():
    ds = _dataset()
    idx = np.arange(0, len(ds), 4)
    return ds.features[idx], ds.labels[idx]


def _all_parameters(state):
    return {name: value.copy() for name, value in state.parameter_groups().items()}


def _fit(state, seed=0):
    cfg = training.TrainConfig(epochs=3, batch_size=16, seed=seed, decay_epochs=(2,))
    return training.fit(state, _dataset(), cfg)


class TestFit:
    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_same_seed_gives_bitwise_equal_parameters(self, method):
        runs = []
        for _ in range(2):
            state = _model(method)
            trace = _fit(state)
            runs.append((_all_parameters(state), trace.rows))
        (params_a, rows_a), (params_b, rows_b) = runs
        assert rows_a == rows_b
        assert params_a.keys() == params_b.keys()
        for name in params_a:
            np.testing.assert_array_equal(params_a[name], params_b[name])

    @pytest.mark.parametrize("method", PROMPT_METHODS)
    @pytest.mark.parametrize("tune_rank, tune_ctx", GATES[1:])
    def test_gated_groups_stay_bitwise_unchanged(self, method, tune_rank, tune_ctx):
        state = _model(method, tune_rank, tune_ctx)
        before = _all_parameters(state)
        _fit(state)
        after = _all_parameters(state)
        for name, tuned in (("base_ranks", tune_rank), ("context", tune_ctx)):
            if tuned:
                assert not np.array_equal(before[name], after[name]), name
            else:
                np.testing.assert_array_equal(before[name], after[name])
        assert not np.array_equal(before["image.w1"], after["image.w1"])

    @pytest.mark.parametrize("method", PROMPT_METHODS)
    @pytest.mark.parametrize("tune_rank, tune_ctx", GATES)
    def test_gated_groups_are_absent_from_backward(self, method, tune_rank, tune_ctx):
        state = _model(method, tune_rank, tune_ctx)
        tape, loss = training.forward_loss(state, *_batch(), TEMPERATURE)
        grads = tape.backward(loss)
        assert ("base_ranks" in grads) == tune_rank
        assert ("context" in grads) == tune_ctx
        assert grads.keys() == state.trainable_parameters().keys()


class TestBackwardOnTheTrainingTape:
    @pytest.mark.parametrize(
        "method, tune_rank, tune_ctx",
        [(m, r, c) for m in PROMPT_METHODS for r, c in GATES] + [(training.BASELINE, True, True)],
    )
    def test_matches_the_unpruned_sweep_bitwise(self, method, tune_rank, tune_ctx):
        state = _model(method, tune_rank, tune_ctx)
        tape, loss = training.forward_loss(state, *_batch(), TEMPERATURE)
        grads = tape.backward(loss)
        expected = reference_backward(tape, loss)
        assert grads.keys() == expected.keys()
        for name in grads:
            np.testing.assert_array_equal(grads[name], expected[name])

    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_two_backward_calls_return_equal_unshared_arrays(self, method):
        state = _model(method)
        tape, loss = training.forward_loss(state, *_batch(), TEMPERATURE)
        first = tape.backward(loss)
        second = tape.backward(loss)
        live = state.trainable_parameters()
        assert first.keys() == second.keys() == live.keys()
        arrays = list(first.values()) + list(second.values()) + list(live.values())
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestWholeLossFiniteDifferences:
    """Gradients of the whole forward_loss against central differences."""

    @staticmethod
    def _check(method, name):
        state = _model(method)
        batch_x, batch_y = _batch()

        def loss_at(value):
            state.parameter_groups()[name][...] = value
            tape, loss = training.forward_loss(state, batch_x, batch_y, TEMPERATURE)
            return tape.value(loss)[0, 0]

        point = state.trainable_parameters()[name].copy()
        tape, loss = training.forward_loss(state, batch_x, batch_y, TEMPERATURE)
        analytic = tape.backward(loss)[name]
        assert np.abs(analytic).max() > 0
        assert finite_difference_check(loss_at, point, analytic, h=1e-5) <= 1e-4

    @pytest.mark.parametrize("method", PROMPT_METHODS)
    @pytest.mark.parametrize("name", ["context", "base_ranks", "image.w1"])
    def test_gradient_matches_finite_differences(self, method, name):
        self._check(method, name)

    @pytest.mark.parametrize("name", ["head.weights", "head.bias", "image.w1"])
    def test_baseline_gradient_matches_finite_differences(self, name):
        self._check(training.BASELINE, name)


class TestGraphSize:
    """Nodes forward_loss puts on the tape. A prompt model records five per
    rank: a selector constant, its matmul and the concat with the context
    (prompt.assemble_sequences), then the pooling and the folded
    mixing-projection matmuls (PseudoTextEncoder.encode). Everything else,
    each loss included, is one fixed set of nodes, so no count depends on
    the batch size."""

    @pytest.mark.parametrize(
        "method, num_ranks, expected",
        [
            (training.ORDINALCLIP, 6, 52),
            (training.ORDINALCLIP, 20, 122),
            (training.COOP, 6, 50),
            (training.COOP, 20, 120),
            (training.BASELINE, 6, 16),
            (training.BASELINE, 20, 16),
        ],
    )
    def test_node_count_is_fixed_and_independent_of_the_batch(self, method, num_ranks, expected):
        state = _model(method, num_ranks=num_ranks)
        rng = np.random.default_rng(50)
        for batch in (4, 16):
            labels = np.arange(batch) % num_ranks
            tape, _ = training.forward_loss(state, rng.normal(size=(batch, 4)), labels, TEMPERATURE)
            assert len(tape) == expected, f"batch {batch}"


def test_the_model_records_every_op_kind_and_no_other(monkeypatch):
    """The op kinds forward_loss records over the three trained methods are
    exactly diffcore.OP_KINDS: a kind no model records is dead code."""
    recorded = set()
    record = Tape.record

    def spy(self, op_kind, inputs, **params):
        recorded.add(op_kind)
        return record(self, op_kind, inputs, **params)

    monkeypatch.setattr(Tape, "record", spy)
    for method in PROMPT_METHODS + (training.BASELINE,):
        training.forward_loss(_model(method), *_batch(), TEMPERATURE)
    assert recorded == set(OP_KINDS)


class TestAdam:
    def test_in_place_update_matches_the_textbook_expressions_bitwise(self):
        rng = np.random.default_rng(40)
        cfg = training.TrainConfig(beta1=0.85, beta2=0.995, adam_eps=1e-7)
        params = {name: rng.normal(size=(3, 4)) for name in ("a", "b")}
        expected = {name: value.copy() for name, value in params.items()}
        m = {name: np.zeros((3, 4)) for name in params}
        v = {name: np.zeros((3, 4)) for name in params}
        adam = training.AdamState(params, cfg)
        mults = {"b": 0.5}
        for step in range(1, 6):
            grads = {name: rng.normal(size=(3, 4)) for name in params}
            adam.update(params, grads, 0.01, mults)
            bias1 = 1.0 - cfg.beta1**step
            bias2 = 1.0 - cfg.beta2**step
            for name, g in grads.items():
                m[name] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * g
                v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * g * g
                rate = 0.01 * mults.get(name, 1.0)
                expected[name] = expected[name] - rate * (m[name] / bias1) / (
                    np.sqrt(v[name] / bias2) + cfg.adam_eps
                )
            for name in params:
                np.testing.assert_array_equal(params[name], expected[name])
                np.testing.assert_array_equal(adam.m[name], m[name])
                np.testing.assert_array_equal(adam.v[name], v[name])


def _assert_rejected(target, path, error, match=None):
    """Loading `path` raises `error` and leaves every group of `target` as it was."""
    before = _all_parameters(target)
    with pytest.raises(error, match=match):
        training.load_state_into(target, path)
    after = _all_parameters(target)
    for name in before:
        np.testing.assert_array_equal(before[name], after[name])


class TestLoadState:
    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_round_trip_restores_every_group_bitwise(self, tmp_path, method):
        trained = _model(method)
        _fit(trained)
        training.save_state(trained, tmp_path / "ckpt.bin")
        fresh = training.load_state_into(_model(method, init_seed=1), tmp_path / "ckpt.bin")
        saved, loaded = _all_parameters(trained), _all_parameters(fresh)
        assert saved.keys() == loaded.keys()
        for name in saved:
            np.testing.assert_array_equal(saved[name], loaded[name])

    @pytest.mark.parametrize(
        "method, magic, groups",
        [
            (training.ORDINALCLIP, b"OPRM2", ("context", "base_ranks")),
            (training.COOP, b"OPRM2", ("context", "base_ranks")),
            (training.BASELINE, b"OPBH2", ("head_weights", "head_bias")),
        ],
    )
    def test_file_is_magic_then_blocks_then_checksum(self, tmp_path, method, magic, groups):
        """The family magic, num_ranks as a 1x1 block, the family's groups,
        the image encoder, then FNV-1a over the payloads."""
        state = _model(method)
        enc = state.image_encoder
        blocks = [np.array([[float(NUM_RANKS)]])]
        blocks += [getattr(state, name) for name in groups]
        blocks += [enc.w1, enc.b1, enc.w2, enc.b2]
        payloads = [b.astype("<f8").tobytes() for b in blocks]
        expected = magic + b"".join(
            struct.pack("<2Q", *b.shape) + payload for b, payload in zip(blocks, payloads)
        ) + struct.pack("<Q", fnv1a64(b"".join(payloads)))
        training.save_state(state, tmp_path / "ckpt.bin")
        assert (tmp_path / "ckpt.bin").read_bytes() == expected

    @pytest.mark.parametrize(
        "method, saved_kwargs, block",
        [
            (training.ORDINALCLIP, {"num_context": 3}, "checkpoint context"),
            (training.COOP, {"num_context": 1}, "checkpoint context"),
            (training.ORDINALCLIP, {"hidden_dim": 7}, "checkpoint image.w1"),
            (training.BASELINE, {"hidden_dim": 7}, "checkpoint image.w1"),
        ],
    )
    def test_mismatched_block_is_named_and_nothing_is_assigned(
        self, tmp_path, method, saved_kwargs, block
    ):
        training.save_state(_model(method, **saved_kwargs), tmp_path / "ckpt.bin")
        _assert_rejected(_model(method, init_seed=1), tmp_path / "ckpt.bin", ValueError, block)

    def test_base_ranks_of_another_count_are_rejected(self, tmp_path):
        state = _model(training.ORDINALCLIP)
        training.save_state(state, tmp_path / "ckpt.bin")
        coop = _model(training.COOP)
        _assert_rejected(coop, tmp_path / "ckpt.bin", ValueError, "checkpoint base_ranks")

    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_another_num_ranks_is_rejected(self, tmp_path, method):
        training.save_state(_model(method, num_ranks=NUM_RANKS + 1), tmp_path / "ckpt.bin")
        _assert_rejected(_model(method), tmp_path / "ckpt.bin", ValueError,
                         f"checkpoint num_ranks {NUM_RANKS + 1} != model num_ranks {NUM_RANKS}")

    @pytest.mark.parametrize(
        "saved, target",
        [(training.BASELINE, training.ORDINALCLIP), (training.ORDINALCLIP, training.BASELINE)],
    )
    def test_a_checkpoint_of_the_other_family_is_rejected(self, tmp_path, saved, target):
        training.save_state(_model(saved), tmp_path / "ckpt.bin")
        _assert_rejected(_model(target), tmp_path / "ckpt.bin", BadMagicError, "bad magic")

    @pytest.mark.parametrize(
        "damage, error",
        [
            (lambda blob: b"XXXXX" + blob[5:], BadMagicError),
            (lambda blob: blob[:-8], TruncatedPayloadError),
            (lambda blob: blob[:-1], TruncatedPayloadError),
            (lambda blob: blob[:40], TruncatedPayloadError),
            (lambda blob: blob[:60] + bytes([blob[60] ^ 1]) + blob[61:], ChecksumMismatchError),
        ],
        ids=["bad-magic", "no-checksum", "cut-checksum", "cut-payload", "flipped-payload-byte"],
    )
    @pytest.mark.parametrize("method", (training.ORDINALCLIP, training.BASELINE))
    def test_damaged_file_is_rejected(self, tmp_path, method, damage, error):
        path = tmp_path / "ckpt.bin"
        training.save_state(_model(method), path)
        path.write_bytes(damage(path.read_bytes()))
        _assert_rejected(_model(method, init_seed=1), path, error)
