"""Model training: seeded determinism, the tune gates, fit's re-run prompt
tape against a fresh recording every step, the closed-form tail's flag
guard against a checked pass, the seeded reverse sweep of the prompt tape
against the unpruned reference, finite differences and the closed-form
oracle through the whole loss, the rank and order of the prototypes, the
flat Adam step against a textbook per-group one, and the checkpoint
file."""

import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    finite_difference_check,
    forward_loss_oracle,
    loss_and_gradients,
    prompt_oracle,
    prompt_oracle_gradient,
    prototypes_of,
    reference_backward,
)
from ordinalproto import data, diffcore, matching, prompt, training
from ordinalproto.diffcore import OP_KINDS, Tape
from ordinalproto.encoders import BlockFileError, fnv1a64, read_blocks
from ordinalproto.metrics import mae, ordinality_score, predict
from ordinalproto.prompt import INTERPOLATION_KINDS, LINEAR, PromptConfig

NUM_RANKS = 5
TEMPERATURE = 0.07
PROMPT_GROUPS = ("context", "base_ranks")
PROMPT_METHODS = (training.ORDINALCLIP, training.COOP)
GATES = ((True, True), (False, True), (True, False), (False, False))
# Every (method, tune_rank, tune_ctx): the baseline has no tune gates.
GATE_CASES = [(m, r, c) for m in PROMPT_METHODS for r, c in GATES] + [
    (training.BASELINE, True, True)
]


def _with_no_context(cases):
    """(method, tune_rank, tune_ctx, num_context) params: each case with
    _model's 2 context rows, under the case's plain id, then each prompt
    case again with a 0-row context."""
    def param(case, num_context, suffix=""):
        return pytest.param(*case, num_context, id="-".join(map(str, case)) + suffix)

    return ([param(case, 2) for case in cases]
            + [param(case, 0, "-no-context") for case in cases if case[0] != training.BASELINE])


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
    return {name: value.copy() for name, value in state.params.items()}


def _fit_config(seed=0, batch_size=16):
    # 40 samples in batches of 16 leave a remainder batch of 8.
    return training.TrainConfig(epochs=3, batch_size=batch_size, seed=seed, decay_epochs=(2,))


def _fit(state, seed=0):
    return training.fit(state, _dataset(), _fit_config(seed))


class TextbookAdam:
    """Adam per group in the textbook expressions, the oracle AdamState
    must match bitwise: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    p = p - rate*(m/bias1) / (sqrt(v/bias2) + eps), with rate = lr times
    the group's multiplier in lr_mults (1 when absent)."""

    def __init__(self, params, cfg, lr_mults=None):
        self.m = {name: np.zeros_like(value) for name, value in params.items()}
        self.v = {name: np.zeros_like(value) for name, value in params.items()}
        self.cfg, self.lr_mults, self.step = cfg, lr_mults or {}, 0

    def update(self, params, grads, lr):
        """Writes each new group into params[name] in place."""
        cfg = self.cfg
        self.step += 1
        bias1 = 1.0 - cfg.beta1**self.step
        bias2 = 1.0 - cfg.beta2**self.step
        for name, g in grads.items():
            self.m[name] = cfg.beta1 * self.m[name] + (1.0 - cfg.beta1) * g
            self.v[name] = cfg.beta2 * self.v[name] + (1.0 - cfg.beta2) * g * g
            rate = lr * self.lr_mults.get(name, 1.0)
            params[name][...] = params[name] - rate * (self.m[name] / bias1) / (
                np.sqrt(self.v[name] / bias2) + cfg.adam_eps
            )


def _last_layer_mults(state, mult):
    """The rate multipliers last_layer_lr_mult sets: the image encoder's
    last layer and, for the baseline, its head."""
    names = ["image.w2", "image.b2"]
    if state.method == training.BASELINE:
        names += ["head.weights", "head.bias"]
    return dict.fromkeys(names, mult)


def _eager_fit(state, ds, cfg):
    """fit as a plain loop over the model's own groups, with no flat
    vector: a fresh prompt tape every step, backward, a TextbookAdam step,
    then the finiteness check. Its loss trace rows."""
    rng = np.random.default_rng(cfg.seed)
    params = state.trainable_parameters()
    adam = TextbookAdam(params, cfg, _last_layer_mults(state, cfg.last_layer_lr_mult))
    rows, lr = [], cfg.learning_rate
    for epoch in range(cfg.epochs):
        if epoch in cfg.decay_epochs:
            lr *= cfg.lr_decay_factor
        perm = rng.permutation(len(ds))
        losses = []
        for start in range(0, len(ds), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            loss, grads = loss_and_gradients(state, ds.features[idx], ds.labels[idx],
                                             cfg.temperature)
            losses.append(loss)
            adam.update(params, grads, lr)
            assert all(np.isfinite(value).all() for value in params.values())
        rows.append((epoch, float(np.mean(losses)), lr))
    return rows


class TestTrainConfig:
    @pytest.mark.parametrize("decay_epochs", [(), (0,), (4,), (5,), (30,), (2, 99)])
    def test_decay_epochs_at_or_past_the_last_epoch_are_accepted(self, decay_epochs):
        """An epoch a 5-epoch fit never starts is allowed: the default
        decay epoch, 30, lies past every short fit's last one."""
        training.TrainConfig(epochs=5, decay_epochs=decay_epochs).validate()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"lr_decay_factor": -0.1}, "lr_decay_factor must be finite and >= 0, got -0.1"),
            ({"last_layer_lr_mult": -1.0}, "last_layer_lr_mult must be finite and >= 0"),
            ({"decay_epochs": (3, -1)}, "decay_epochs entries must be >= 0, got -1"),
        ],
    )
    def test_negative_decay_and_rate_multipliers_are_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            training.TrainConfig(**overrides).validate()

    @pytest.mark.parametrize("decay_epochs, epoch", [((0, 0), 0), ((3, 30, 3), 3)])
    def test_a_repeated_decay_epoch_is_rejected(self, decay_epochs, epoch):
        """fit decays once at a listed epoch however often it is listed,
        so a repeated entry would be lost without a word."""
        with pytest.raises(ValueError, match=f"^decay_epochs lists epoch {epoch} twice$"):
            training.TrainConfig(decay_epochs=decay_epochs).validate()

    @pytest.mark.parametrize("overrides", [{"lr_decay_factor": 0.0},
                                           {"last_layer_lr_mult": 0.0}])
    def test_a_zero_factor_is_accepted(self, overrides):
        training.TrainConfig(**overrides).validate()


class TestFit:
    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_same_seed_gives_bitwise_equal_parameters(self, method):
        runs = []
        for _ in range(2):
            state = _model(method)
            rows = _fit(state)
            runs.append((_all_parameters(state), rows))
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

    @pytest.mark.parametrize("method, tune_rank, tune_ctx", GATE_CASES)
    def test_trainable_groups_are_views_of_one_vector_and_frozen_ones_are_not(
        self, method, tune_rank, tune_ctx
    ):
        state = _model(method, tune_rank, tune_ctx)
        _fit(state)
        trainable = state.trainable_parameters()
        (vector,) = {id(value.base): value.base for value in trainable.values()}.values()
        assert vector.ndim == 1 and vector.flags.c_contiguous
        assert vector.size == sum(value.size for value in trainable.values())
        for name, value in state.params.items():
            assert np.shares_memory(value, vector) == (name in trainable), name

    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_a_step_that_leaves_one_group_non_finite_names_that_group(
        self, monkeypatch, method
    ):
        """A NaN in one entry of one gradient makes that group, and no
        other, non-finite after the Adam step; the error names it alone."""
        for name in _model(method).trainable_parameters():
            backward = training.backward_loss

            def poisoned(state, tape, kept, grads, _name=name):
                backward(state, tape, kept, grads)
                grads[_name][0, -1] = np.nan

            monkeypatch.setattr(training, "backward_loss", poisoned)
            with pytest.raises(training.TrainingDivergedError,
                               match=rf"after Adam step 1 in {re.escape(name)}; "):
                _fit(_model(method))
            monkeypatch.undo()

    def test_a_loss_that_overflows_on_finite_logits_raises_at_its_step_naming_the_loss(self):
        """Head biases of +-1e308 put the logits of alternate ranks 2e308
        apart, past the float64 range, so the first step's loss is
        infinite at the lower ranks' labels though every logit is finite.
        The fit raises at that step, naming the loss, as a recording of
        the loss did; it does not step Adam and fail at the epoch's end."""
        state = _model(training.BASELINE)
        state.params["head.bias"][...] = 1e308 * (-1.0) ** np.arange(NUM_RANKS)
        with pytest.raises(training.TrainingDivergedError) as raised:
            _fit(state)
        assert str(raised.value).startswith(
            "non-finite values in forward pass (non-finite values produced by op "
            "'softmax-xent'); ")

    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_fit_checks_the_groups_once(self, monkeypatch, method):
        """fit checks every group before its first step, and its steps then
        rely on the post-Adam check of the whole vector; a direct
        forward_loss checks them itself."""
        groups_finite, calls = training._groups_finite, []

        def counted(state):
            calls.append(state.method)
            return groups_finite(state)

        monkeypatch.setattr(training, "_groups_finite", counted)
        _fit(_model(method))
        assert calls == [method]
        training.forward_loss(_model(method), Tape(), *_batch(), TEMPERATURE)
        assert calls == [method] * 2

    @pytest.mark.parametrize("method", PROMPT_METHODS)
    @pytest.mark.parametrize("tune_rank, tune_ctx", GATES)
    def test_gated_groups_are_absent_from_backward(self, method, tune_rank, tune_ctx):
        """The prompt tape holds a gated group as a constant: its seeded
        sweep returns the trainable prompt groups alone."""
        state = _model(method, tune_rank, tune_ctx)
        tape = Tape()
        training.forward_loss(state, tape, *_batch(), TEMPERATURE)
        grads = tape.backward(np.ones((NUM_RANKS, 6)))
        assert ("base_ranks" in grads) == tune_rank
        assert ("context" in grads) == tune_ctx
        assert grads.keys() == state.trainable_parameters().keys() & set(PROMPT_GROUPS)


class TestRerunTapes:
    @pytest.mark.parametrize("method, tune_rank, tune_ctx, num_context",
                             _with_no_context(GATE_CASES))
    def test_fit_equals_recording_every_step_bitwise(self, method, tune_rank, tune_ctx,
                                                      num_context):
        """The baseline has no tune gates; its every group trains. The
        learning rate decays before the last epoch."""
        self._check_against_eager_fit(method, tune_rank, tune_ctx, _fit_config(), num_context)

    @pytest.mark.parametrize("method, tune_rank, tune_ctx", GATE_CASES)
    def test_fit_with_a_last_layer_lr_mult_equals_recording_every_step_bitwise(
        self, method, tune_rank, tune_ctx
    ):
        cfg = replace(_fit_config(), last_layer_lr_mult=0.5)
        self._check_against_eager_fit(method, tune_rank, tune_ctx, cfg)

    @staticmethod
    def _check_against_eager_fit(method, tune_rank, tune_ctx, cfg, num_context=2):
        fitted, eager = (_model(method, tune_rank, tune_ctx, num_context) for _ in range(2))
        rows = training.fit(fitted, _dataset(), cfg)
        assert rows == _eager_fit(eager, _dataset(), cfg)
        after, expected = _all_parameters(fitted), _all_parameters(eager)
        assert after.keys() == expected.keys()
        for name in after:
            np.testing.assert_array_equal(after[name], expected[name])

    @pytest.mark.parametrize("batch_size", [16, 8, 64])
    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_the_prompt_head_is_recorded_once_per_fit(self, monkeypatch, method, batch_size):
        """Whatever the batch row counts, a prompt model's fit records its
        prompt head once, inside its first step, and the baseline's none."""
        calls = []
        prompt_nodes, train_step = training._prompt_nodes, training.train_step

        def counted(state, tape):
            calls.append(steps[0])
            return prompt_nodes(state, tape)

        def stepped(*args):
            steps[0] += 1
            return train_step(*args)

        steps = [0]
        monkeypatch.setattr(training, "_prompt_nodes", counted)
        monkeypatch.setattr(training, "train_step", stepped)
        training.fit(_model(method), _dataset(), _fit_config(batch_size=batch_size))
        assert steps[0] == 3 * -(-40 // batch_size)
        assert calls == ([] if method == training.BASELINE else [1])


    @staticmethod
    def _rerun_checks(monkeypatch, method, groups_finite):
        """{C: shapes of the values all_finite checks in a re-run step's
        forward_loss, called with groups_finite}, at C = 6 and 20."""
        all_finite, checks = diffcore.all_finite, []

        def counted(value):
            checks.append(value.shape)
            return all_finite(value)

        monkeypatch.setattr(diffcore, "all_finite", counted)
        monkeypatch.setattr(training, "all_finite", counted)
        rng = np.random.default_rng(52)
        shapes = {}
        for num_ranks in (6, 20):
            labels = np.arange(16) % num_ranks
            state, tape = _model(method, num_ranks=num_ranks), Tape()
            training.forward_loss(state, tape, rng.normal(size=(16, 4)), labels, TEMPERATURE)
            checks.clear()
            training.forward_loss(state, tape, rng.normal(size=(16, 4)), labels, TEMPERATURE,
                                  groups_finite)
            shapes[num_ranks] = list(checks)
        return shapes

    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_a_rerun_step_checks_its_leaves_and_no_op_value(self, monkeypatch, method):
        """A re-run step's forward pass with no vouch makes one finiteness
        check per parameter group, the vouch both halves then share, and
        the loss's check of its scores, at any C: none per op. Each method
        has six groups."""
        counts = {c: len(shapes) for c, shapes in
                  self._rerun_checks(monkeypatch, method, None).items()}
        assert counts[6] == counts[20] == 7, counts

    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_a_vouched_rerun_step_checks_only_the_scores(self, monkeypatch, method):
        """With fit's vouch passed, a re-run step's forward pass checks the
        loss's B x C scores and nothing else: no leaf, no op."""
        shapes = self._rerun_checks(monkeypatch, method, True)
        assert shapes == {6: [(16, 6)], 20: [(16, 20)]}, shapes

    @pytest.mark.parametrize("method, group, op", [
        (training.ORDINALCLIP, "context", "concat-rows"),
        (training.ORDINALCLIP, "base_ranks", "matmul"),
        (training.COOP, "context", "concat-rows"),
        (training.COOP, "base_ranks", "concat-rows"),
    ])
    def test_a_prompt_group_gone_nan_in_place_raises_on_a_direct_rerun(self, method, group,
                                                                      op):
        """A direct forward_loss, which passes no vouch, on a recorded tape
        whose prompt group went NaN in place raises, naming the first op
        that reads the group: the interpolation's matmul for ordinalclip's
        base ranks, and otherwise the token table's concat."""
        state, tape = _model(method), Tape()
        training.forward_loss(state, tape, *_batch(), TEMPERATURE)
        state.params[group][0, -1] = np.nan
        with pytest.raises(FloatingPointError,
                           match=f"^non-finite values produced by op '{op}'$"):
            training.forward_loss(state, tape, *_batch(), TEMPERATURE)

    @pytest.mark.parametrize("op, groups", [
        ("matmul", {"image.w1": 1e308}),
        ("add", {"image.w1": 0.4e308, "image.b1": 1e308}),
        ("matmul", {"image.w1": 0.0, "image.b1": 1.0, "image.w2": 1e308}),
    ], ids=["first-product", "first-bias", "second-product"])
    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_a_non_finite_tail_op_on_a_rerun_step_names_the_op_of_a_first_step(
        self, method, op, groups
    ):
        """The groups are set in place, as Adam moves them, so that one op
        of the image encoder overflows on a batch of ones. A re-run step
        raises the TrainingDivergedError of a first step on a fresh tape,
        word for word, and names that op."""
        x, y = np.ones((8, 4)), np.arange(8) % NUM_RANKS
        errors = []
        for rerun in (True, False):
            state = _model(method)
            cfg = _fit_config()
            adam = training.AdamState(state.trainable_parameters(), cfg, {})
            state.params.update(adam.params)
            rate, tape = adam.mults * 0.0, Tape()
            with np.errstate(over="ignore", invalid="ignore"):
                if rerun:
                    training.train_step(state, x, y, cfg, adam, rate, tape)
                for name, value in groups.items():
                    state.params[name][...] = value
                with pytest.raises(training.TrainingDivergedError) as raised:
                    training.train_step(state, x, y, cfg, adam, rate, tape)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("non-finite values in forward pass "
                                    f"(non-finite values produced by op '{op}'); ")


    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_a_fractional_label_is_rejected_not_truncated(self, method):
        """A label that is not an integer rank would train on another rank
        if truncated. forward_loss, and a train_step that re-runs the prompt
        tape a first step recorded, raise ValueError naming the loss instead,
        and the rejected step moves no parameter."""
        state = _model(method)
        x, y = _batch()
        bad = y.astype(np.float64)
        bad[1] += 0.5
        op = "softmax-xent" if method == training.BASELINE else "clip-kl"
        message = rf"^{op}: labels must be integers in \[0, {NUM_RANKS}\)$"
        with pytest.raises(ValueError, match=message):
            training.forward_loss(state, Tape(), x, bad, TEMPERATURE)
        cfg = _fit_config()
        adam = training.AdamState(state.trainable_parameters(), cfg, {})
        state.params.update(adam.params)
        rate, tape = adam.mults * cfg.learning_rate, Tape()
        training.train_step(state, x, y, cfg, adam, rate, tape)
        before = adam.values.copy()
        with pytest.raises(ValueError, match=message):
            training.train_step(state, x, bad, cfg, adam, rate, tape)
        np.testing.assert_array_equal(adam.values, before)

    @pytest.mark.parametrize("entry", ["forward_loss", "train_step", "evaluate"])
    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_an_empty_batch_is_rejected_with_one_message(self, method, entry):
        """Every batch enters the image encoder through
        ImageEncoder.checked_batch, which rejects one with no rows before
        the encoder computes anything, for every method and entry point, an
        empty dataset's too."""
        state = _model(method)
        x, y = np.zeros((0, 4)), np.zeros(0, dtype=np.int64)
        cfg = _fit_config()
        adam = training.AdamState(state.trainable_parameters(), cfg, {})
        state.params.update(adam.params)
        calls = {
            "forward_loss": lambda: training.forward_loss(state, Tape(), x, y, TEMPERATURE),
            "train_step": lambda: training.train_step(
                state, x, y, cfg, adam, adam.mults * cfg.learning_rate, Tape()),
            "evaluate": lambda: training.evaluate(state, data.OrdinalDataset(x, y, NUM_RANKS)),
        }
        with pytest.raises(ValueError, match="^image batch has no rows$"):
            calls[entry]()


def _spanning(rng, shape, lo, hi):
    """Finite values whose entries are signed U(0.25, 1.5) draws times
    10**e, e drawn per entry from lo..hi: down into the subnormals at lo =
    -320, up to 1.5e308 at hi = 308."""
    signed = rng.uniform(0.25, 1.5, size=shape) * rng.choice((-1.0, 1.0), size=shape)
    return signed * 10.0 ** rng.integers(lo, hi + 1, size=shape)


class TestGuardedTail:
    """forward_loss runs the closed-form tail under diffcore.guarded: one
    pass with the floating-point flags raising and no value checked. On
    finite groups and batches spanning the float64 range it either raises
    what a pass checking every step raises, word for word, or gives its
    loss bitwise; the draws reach both."""

    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_the_guarded_tail_equals_a_checked_one_from_subnormals_to_1e308(self, method):
        outcomes = []

        @settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @given(data=st.data())
        def case(data):
            state = _model(method)
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            lo = data.draw(st.integers(-320, 308))
            hi = data.draw(st.integers(lo, 308))
            for name in set(state.params) - set(PROMPT_GROUPS):
                state.params[name] = _spanning(rng, state.params[name].shape, lo, hi)
            x = _spanning(rng, (6, 4), lo, hi)
            y = rng.integers(0, NUM_RANKS, size=6)
            prototypes = prototypes_of(state) if state.uses_prompts else None
            labels = matching.label_column(y)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                try:
                    scores, _ = training._graph(state, prototypes, x)
                    if state.uses_prompts:
                        expected, _ = matching.contrastive_loss(scores, labels, TEMPERATURE)
                    else:
                        expected, _ = matching.cross_entropy_loss(scores, labels)
                except (FloatingPointError, ValueError) as exc:
                    with pytest.raises(type(exc)) as raised:
                        training.forward_loss(state, Tape(), x, y, TEMPERATURE)
                    assert str(raised.value) == str(exc)
                    outcomes.append("raised")
                    return
                loss, _ = training.forward_loss(state, Tape(), x, y, TEMPERATURE)
            assert np.float64(loss).tobytes() == np.float64(expected).tobytes()
            outcomes.append("equal")

        case()
        assert set(outcomes) == {"raised", "equal"}, outcomes


class TestBackwardOnTheTrainingTape:
    @pytest.mark.parametrize("method, tune_rank, tune_ctx, num_context",
                             _with_no_context(GATE_CASES[:-1]))
    def test_matches_the_unpruned_sweep_bitwise(self, method, tune_rank, tune_ctx, num_context):
        """The prompt tape's sweep, seeded with the prototypes' adjoint a
        training step hands it, equals the unpruned sweep's bitwise."""
        state = _model(method, tune_rank, tune_ctx, num_context)
        tape = Tape()
        _, (loss_kept, (_, embeddings, _, prototypes_t)) = training.forward_loss(
            state, tape, *_batch(), TEMPERATURE)
        d_scores = matching.contrastive_loss_grad(loss_kept)
        _, seed = matching.similarity_grad(d_scores, embeddings, prototypes_t)
        expected = reference_backward(tape, seed)
        grads = tape.backward(seed)
        assert grads.keys() == expected.keys()
        for name in grads:
            np.testing.assert_array_equal(grads[name], expected[name])

    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_two_backward_calls_return_equal_unshared_arrays(self, method):
        state = _model(method)
        tape = Tape()
        _, kept = training.forward_loss(state, tape, *_batch(), TEMPERATURE)
        first, second = ({name: np.empty_like(value)
                          for name, value in state.trainable_parameters().items()}
                         for _ in range(2))
        training.backward_loss(state, tape, kept, first)
        training.backward_loss(state, tape, kept, second)
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
            state.params[name][...] = value
            return training.forward_loss(state, Tape(), batch_x, batch_y, TEMPERATURE)[0]

        point = state.trainable_parameters()[name].copy()
        analytic = loss_and_gradients(state, batch_x, batch_y, TEMPERATURE)[1][name]
        assert np.abs(analytic).max() > 0
        assert finite_difference_check(loss_at, point, analytic, h=1e-5) <= 1e-4

    @pytest.mark.parametrize("method", PROMPT_METHODS)
    @pytest.mark.parametrize("name", ["context", "base_ranks", "image.w1"])
    def test_gradient_matches_finite_differences(self, method, name):
        self._check(method, name)

    @pytest.mark.parametrize("name", ["head.weights", "head.bias", "image.w1", "image.b2"])
    def test_baseline_gradient_matches_finite_differences(self, name):
        self._check(training.BASELINE, name)


class TestCompactPrototypes:
    """An ordinalclip prototype matrix has rank at most C': every rank row
    is a convex combination of the C' base rows, and the prompt pipeline
    is affine up to a row scaling, so each prototype is a multiple of a
    convex combination of C' fixed vectors."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        num_ranks=st.integers(2, 40),
        data=st.data(),
        num_context=st.integers(0, 4),
        interpolation=st.sampled_from(INTERPOLATION_KINDS),
        scale=st.sampled_from([0.02, 1.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_numerical_rank_is_at_most_the_base_rank_count(
        self, num_ranks, data, num_context, interpolation, scale, seed
    ):
        num_base = data.draw(st.integers(2, min(num_ranks, 6)))
        cfg = PromptConfig(num_ranks, num_base_ranks=num_base, num_context=num_context,
                           word_dim=8, interpolation=interpolation)
        state = training.build_model(training.ORDINALCLIP, num_ranks, cfg, latent_dim=16,
                                     max_len=5, vocab_size=8, init_seed=seed % 1000)
        rng = np.random.default_rng(seed)
        for name in PROMPT_GROUPS:
            group = state.params[name]
            group[...] = rng.normal(0.0, scale, group.shape)
        singular = np.linalg.svd(prototypes_of(state), compute_uv=False)
        assert np.count_nonzero(singular > 1e-9 * singular[0]) <= num_base


class TestWellOrderedPrototypes:
    """With C' = 2 an ordinalclip model is well-ordered for every parameter
    value: each rank row lies on the segment between the two base rows,
    the pipeline is affine up to a row scaling, so the prototypes lie in
    order on a great-circle arc shorter than pi, and ordinality is exactly
    1. This needs word_dim >= 2: at word_dim = 1 every prompt is a
    multiple of one vector, the prototypes are +u or -u, and equal
    neighbours tie, so the score falls below 1."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        num_ranks=st.integers(2, 40),
        num_context=st.integers(0, 4),
        word_dim=st.integers(2, 8),
        interpolation=st.sampled_from(INTERPOLATION_KINDS),
        scale=st.sampled_from([0.02, 1.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_two_base_ranks_give_ordinality_exactly_one(
        self, num_ranks, num_context, word_dim, interpolation, scale, seed
    ):
        cfg = PromptConfig(num_ranks, num_base_ranks=2, num_context=num_context,
                           word_dim=word_dim, interpolation=interpolation)
        state = training.build_model(training.ORDINALCLIP, num_ranks, cfg, latent_dim=16,
                                     max_len=5, vocab_size=8, init_seed=seed % 1000)
        rng = np.random.default_rng(seed)
        for name in PROMPT_GROUPS:
            group = state.params[name]
            group[...] = rng.normal(0.0, scale, group.shape)
        assert ordinality_score(prototypes_of(state)) == 1.0


class TestGraphSize:
    """Nodes forward_loss puts on the prompt tape, the prompt head alone.
    A prompt model records two per rank, the rank's pooling row and its
    matmul on the token table (PseudoTextEncoder.encode), plus the one
    concat that builds the table (prompt.assemble_sequences). Everything
    else, the one folded mixing-projection matmul over all pooled rows
    included, is one fixed set of nodes, so no count depends on the batch,
    which the tape never sees, nor on the number of context rows: a 0-row
    context is a leaf and is concatenated like any other. The baseline
    records nothing."""

    @pytest.mark.parametrize(
        "method, num_ranks, expected, num_context",
        [
            pytest.param(training.ORDINALCLIP, 6, 21, 2, id="ordinalclip-6-21"),
            pytest.param(training.ORDINALCLIP, 20, 49, 2, id="ordinalclip-20-49"),
            pytest.param(training.COOP, 6, 19, 2, id="coop-6-19"),
            pytest.param(training.COOP, 20, 47, 2, id="coop-20-47"),
            pytest.param(training.BASELINE, 6, 0, 2, id="baseline-6-0"),
            pytest.param(training.BASELINE, 20, 0, 2, id="baseline-20-0"),
            pytest.param(training.ORDINALCLIP, 6, 21, 0, id="ordinalclip-6-21-no-context"),
            pytest.param(training.COOP, 6, 19, 0, id="coop-6-19-no-context"),
        ],
    )
    def test_node_count_is_fixed_and_independent_of_the_batch(self, method, num_ranks, expected,
                                                              num_context):
        state = _model(method, num_ranks=num_ranks, num_context=num_context)
        rng = np.random.default_rng(50)
        for batch in (4, 16):
            labels = np.arange(batch) % num_ranks
            tape = Tape()
            training.forward_loss(state, tape, rng.normal(size=(batch, 4)), labels, TEMPERATURE)
            assert len(tape) == expected, f"batch {batch}"

    def test_constants_of_a_ranks_100_tape_take_their_pinned_bytes(self):
        """The constant values one recorded ordinalclip prompt tape holds at
        C = 100 and m = 4 with the default dimensions (word_dim 32,
        latent_dim 64, C' = 3): 100 pooling rows of 104 entries (83,200
        bytes), the 32 x 64 mixing projection (16,384) and the 100 x 3
        interpolation matrix (2,400). Reading each prompt off the table
        through a dense (m + 1) x (m + C) selection matrix, then pooling it
        with one shared row, held 449,680 bytes here. The batch, its labels
        and the temperature are the closed-form tail's, off the tape."""
        state = training.build_model(training.ORDINALCLIP, 100, PromptConfig(100))
        rng = np.random.default_rng(51)
        tape = Tape()
        training.forward_loss(state, tape, rng.normal(size=(16, 16)), np.arange(16) * 6,
                              TEMPERATURE)
        constants = [node.value.nbytes for node in tape._nodes if node.op == "constant"]
        assert len(constants) == 102
        assert sum(constants) == 101_984


def _oracle_cases():
    """(method, C, C', kernel, m) params: ordinalclip at two C' values per C
    and both kernels; coop and zeroshot, which interpolate nothing, once."""
    for num_ranks in (2, 6, 20, 100):
        for num_context in (0, 2, 4):
            for num_base in sorted({2, min(5, num_ranks)}):
                for kernel in INTERPOLATION_KINDS:
                    case = (training.ORDINALCLIP, num_ranks, num_base, kernel, num_context)
                    yield pytest.param(*case, id="-".join(map(str, case)))
            for method in (training.COOP, training.ZEROSHOT):
                yield pytest.param(method, num_ranks, num_ranks, LINEAR, num_context,
                                   id=f"{method}-{num_ranks}-{num_context}")


@pytest.mark.parametrize("method, num_ranks, num_base, kernel, num_context", _oracle_cases())
def test_prototypes_match_the_closed_form_prompt_oracle(method, num_ranks, num_base, kernel,
                                                        num_context):
    """The prompt graph's prototypes equal conftest.prompt_oracle within
    1e-12 of each unit-norm row, at the model's default dimensions: at
    init, and with the context and base rank groups set to seeded random
    values."""
    cfg = PromptConfig(num_ranks, num_base_ranks=num_base, num_context=num_context,
                       interpolation=kernel)
    state = training.build_model(method, num_ranks, cfg)
    np.testing.assert_allclose(prototypes_of(state), prompt_oracle(state), rtol=0, atol=1e-12)
    rng = np.random.default_rng(num_ranks * 10 + num_context)
    for name in PROMPT_GROUPS:
        state.params[name] = rng.normal(size=state.params[name].shape)
    np.testing.assert_allclose(prototypes_of(state), prompt_oracle(state), rtol=0, atol=1e-12)


def _inner_product(tape: Tape, node: int, weights: np.ndarray) -> int:
    """<weights, value of node> as a 1x1 node: each row of the node is
    read by a one-hot matmul and dotted with that row of weights, and the
    row products are stacked and summed by a ones row."""
    rows = weights.shape[0]
    identity = np.eye(rows)
    products = [
        tape.matmul(tape.matmul(tape.constant(identity[i : i + 1]), node),
                    tape.constant(weights[i : i + 1].T))
        for i in range(rows)
    ]
    return tape.matmul(tape.constant(np.ones((1, rows))), tape.concat_rows(products))


@pytest.mark.parametrize("method, num_ranks, num_base, kernel, num_context", _oracle_cases())
def test_prompt_gradients_match_the_closed_form_oracle(method, num_ranks, num_base, kernel,
                                                       num_context):
    """The tape's gradients of <G, prototypes> in the context and base rank
    groups, for a seeded random G, equal conftest.prompt_oracle_gradient
    within 1e-12 of each gradient's largest entry, with both groups set to
    seeded random values: both the sweep from the 1x1 node <G, prototypes>
    written on the tape and the sweep seeded with G, a training step's."""
    cfg = PromptConfig(num_ranks, num_base_ranks=num_base, num_context=num_context,
                       interpolation=kernel)
    state = training.build_model(method, num_ranks, cfg)
    rng = np.random.default_rng(num_ranks * 10 + num_context)
    for name in PROMPT_GROUPS:
        state.params[name] = rng.normal(size=state.params[name].shape)
    adjoint = rng.normal(size=(num_ranks, state.text_encoder.mixed_projection.shape[1]))
    tape = Tape()
    prototypes = training._prompt_nodes(state, tape)
    seeded = tape.backward(adjoint.copy())
    _inner_product(tape, prototypes, adjoint)
    grads = tape.backward(np.ones((1, 1)))
    expected = prompt_oracle_gradient(state, adjoint)
    for name, oracle in zip(PROMPT_GROUPS, expected):
        bound = 1e-12 * np.abs(oracle).max(initial=0.0)
        for found in (grads[name], seeded[name]):
            assert found.shape == oracle.shape
            assert np.abs(found - oracle).max(initial=0.0) <= bound, name


@pytest.mark.parametrize("method, num_context", [(training.ORDINALCLIP, 2),
                                                 (training.ORDINALCLIP, 0), (training.COOP, 2)])
def test_the_seeded_prompt_sweep_matches_finite_differences_and_the_oracle(method, num_context):
    """Tape.backward(G) from the prototypes, as a training step runs it,
    gives the gradients of <G, prototypes> in both prompt groups: within
    1e-4 of central differences of that inner product, and within 1e-12
    of conftest.prompt_oracle_gradient."""
    state = _model(method, num_context=num_context)
    rng = np.random.default_rng(53)
    for name in PROMPT_GROUPS:
        state.params[name][...] = rng.normal(size=state.params[name].shape)
    seed = rng.normal(size=(NUM_RANKS, 6))
    tape = Tape()
    training._prompt_nodes(state, tape)
    grads = tape.backward(seed.copy())
    for name, oracle in zip(PROMPT_GROUPS, prompt_oracle_gradient(state, seed)):
        np.testing.assert_allclose(grads[name], oracle, rtol=0,
                                   atol=1e-12 * np.abs(oracle).max(initial=1.0))
        point = state.params[name].copy()

        def inner(value, name=name):
            state.params[name][...] = value
            return float((seed * prototypes_of(state)).sum())

        if point.size:
            assert finite_difference_check(inner, point, grads[name], h=1e-5) <= 1e-4, name
        state.params[name][...] = point


def _whole_loss_cases():
    """(method, C, m, tune_rank, tune_ctx, B) params: each prompt method
    under every tune gate and m in {0, 4}, and the baseline, at C in
    {2, 6, 20} and B in {1, 5, 16}."""
    for num_ranks in (2, 6, 20):
        for batch in (1, 5, 16):
            cases = [(method, num_ranks, num_context, tune_rank, tune_ctx, batch)
                     for method in PROMPT_METHODS for num_context in (0, 4)
                     for tune_rank, tune_ctx in GATES]
            for case in cases + [(training.BASELINE, num_ranks, 0, True, True, batch)]:
                yield pytest.param(*case, id="-".join(map(str, case)))


@pytest.mark.parametrize("method, num_ranks, num_context, tune_rank, tune_ctx, batch",
                         _whole_loss_cases())
def test_whole_loss_gradients_match_the_closed_form_oracle(method, num_ranks, num_context,
                                                           tune_rank, tune_ctx, batch):
    """forward_loss's value, and backward_loss's gradient in every trainable
    group, equal conftest.forward_loss_oracle within 1e-12 of the loss and
    of each gradient's largest entry, at the model's default dimensions,
    with every group moved off its initial value by seeded noise."""
    cfg = None
    if method != training.BASELINE:
        cfg = PromptConfig(num_ranks, num_base_ranks=min(3, num_ranks), num_context=num_context,
                           tune_rank=tune_rank, tune_ctx=tune_ctx)
    state = training.build_model(method, num_ranks, cfg)
    _check_whole_loss_oracle(state, batch, num_ranks * 100 + num_context * 10 + batch)


def _check_whole_loss_oracle(state, batch, seed):
    """Move every group of state off its value by seeded noise, draw a
    batch of `batch` rows and labels, and hold forward_loss's value and
    backward_loss's gradient in every trainable group to forward_loss_oracle,
    within 1e-12 of the loss and of each gradient's largest entry."""
    rng = np.random.default_rng(seed)
    for name, value in state.params.items():
        state.params[name] = value + 0.1 * rng.normal(size=value.shape)
    batch_x = rng.normal(size=(batch, 16))
    batch_y = rng.integers(0, state.num_ranks, size=batch)
    loss, grads = loss_and_gradients(state, batch_x, batch_y, TEMPERATURE)
    value, expected = forward_loss_oracle(state, batch_x, batch_y, TEMPERATURE)
    assert abs(loss - value) <= 1e-12 * abs(value)
    assert grads.keys() == state.trainable_parameters().keys()
    for name, grad in grads.items():
        assert grad.shape == expected[name].shape
        error = np.abs(grad - expected[name]).max(initial=0.0)
        assert error <= 1e-12 * np.abs(expected[name]).max(initial=0.0), name


@pytest.mark.parametrize("method, kernel", [
    *((training.ORDINALCLIP, kernel) for kernel in INTERPOLATION_KINDS),
    (training.COOP, LINEAR),
    (training.BASELINE, LINEAR),
])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    num_ranks=st.integers(2, 40),
    data=st.data(),
    num_context=st.integers(0, 4),
    gates=st.sampled_from(GATES),
    batch=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_drawn_models_match_the_closed_form_whole_loss_oracle(method, kernel, num_ranks, data,
                                                            num_context, gates, batch, seed):
    """The whole-loss oracle check for each method and, for ordinalclip,
    each kernel (coop interpolates nothing, and the baseline reads no
    prompt key), over drawn C, C' in [2, C], m, tune gates, batch size and
    seed. Method and kernel are parameters, not draws, so that every pair
    runs."""
    cfg = None
    if method != training.BASELINE:
        cfg = PromptConfig(num_ranks, num_base_ranks=data.draw(st.integers(2, num_ranks)),
                           num_context=num_context, interpolation=kernel,
                           tune_rank=gates[0], tune_ctx=gates[1])
    state = training.build_model(method, num_ranks, cfg, init_seed=seed % 1000)
    _check_whole_loss_oracle(state, batch, seed)


@pytest.mark.parametrize("method", (training.COOP, training.ZEROSHOT))
def test_template_ids_stay_clear_of_the_rank_ids_in_a_small_vocabulary(method):
    """At num_ranks + num_context = 9 > vocab_size = 4 the vocabulary
    grows to 9 tokens: init_ctx copies the top 3, none a rank's, and the
    base rows are the first 6, the same rows as in a large vocabulary."""
    cfg = PromptConfig(6, num_base_ranks=3, num_context=3, word_dim=6, init_ctx=True)

    def build(vocab_size):
        return training.build_model(method, 6, cfg, input_dim=4, latent_dim=6, max_len=4,
                                    vocab_size=vocab_size)

    state = build(4)
    table = state.text_encoder.token_table
    template = prompt.template_token_ids(3, table.shape[0])
    assert table.shape[0] == 9
    assert set(template).isdisjoint(range(6))
    np.testing.assert_array_equal(state.params["context"], table[list(template)])
    np.testing.assert_array_equal(state.params["base_ranks"], table[:6])
    np.testing.assert_array_equal(state.params["base_ranks"], build(64).params["base_ranks"])


def test_the_model_records_every_op_kind_and_no_other(monkeypatch):
    """The op kinds forward_loss records over the three trained methods are
    exactly diffcore.OP_KINDS: a kind no model records is dead code. The
    prompt head records them all; the baseline records none."""
    recorded = set()
    record = Tape.record

    def spy(self, op_kind, inputs):
        recorded.add(op_kind)
        return record(self, op_kind, inputs)

    monkeypatch.setattr(Tape, "record", spy)
    for method in PROMPT_METHODS + (training.BASELINE,):
        training.forward_loss(_model(method), Tape(), *_batch(), TEMPERATURE)
    assert recorded == set(OP_KINDS) == {"matmul", "concat-rows", "l2-normalize-rows"}


@pytest.mark.parametrize("method", training.METHODS)
def test_evaluate_scores_through_the_training_graph(monkeypatch, method):
    """evaluate scores through the graph fit trains: it records the prompt
    head forward_loss records, op for op, and passes the same prototypes
    to the same forward half, _graph, as forward_loss does."""
    ops, graphs = [], []
    record, graph = Tape.record, training._graph

    def spy(self, op_kind, inputs):
        ops.append((op_kind, tuple(map(int, inputs))))
        return record(self, op_kind, inputs)

    def graph_spy(state, prototypes, *args):
        graphs.append(None if prototypes is None else prototypes.copy())
        return graph(state, prototypes, *args)

    monkeypatch.setattr(Tape, "record", spy)
    monkeypatch.setattr(training, "_graph", graph_spy)
    state = _model(method)
    training.forward_loss(state, Tape(), *_batch(), TEMPERATURE)
    expected, ops[:] = list(ops), []
    training.evaluate(state, _dataset())
    assert ops == expected
    assert bool(expected) == state.uses_prompts
    assert len(graphs) == 2
    if method == training.BASELINE:
        assert graphs == [None, None]
    else:
        assert graphs[0].tobytes() == graphs[1].tobytes()


def test_the_baseline_expectation_reads_its_logits_at_temperature_1():
    """The baseline's cross-entropy trains its logits at temperature 1, so
    evaluate reads them at 1 whatever temperature it is given. After this
    fit the expectation at TEMPERATURE predicts other ranks than at 1."""
    state = _model(training.BASELINE)
    ds = _dataset()
    training.fit(state, ds, training.TrainConfig(epochs=20, batch_size=16, learning_rate=0.01))
    logits, _ = training._graph(state, None, ds.features)
    at = {t: mae(predict(logits, "expectation", t), ds.labels) for t in (1.0, TEMPERATURE)}
    assert at[1.0] != at[TEMPERATURE]
    report, _ = training.evaluate(state, ds, rule="expectation", temperature=TEMPERATURE)
    assert report.mae == at[1.0]


class TestAdam:
    def test_flat_update_matches_the_textbook_per_group_expressions_bitwise(self):
        """Groups of three shapes, one at half the rate, and a rate that
        decays after the third step."""
        rng = np.random.default_rng(40)
        cfg = training.TrainConfig(beta1=0.85, beta2=0.995, adam_eps=1e-7)
        shapes = {"a": (3, 4), "b": (1, 4), "c": (2, 5)}
        groups = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        mults = {"b": 0.5}
        expected = {name: value.copy() for name, value in groups.items()}
        oracle = TextbookAdam(expected, cfg, mults)
        adam = training.AdamState(groups, cfg, mults)
        for step in range(1, 7):
            lr = 0.01 if step <= 3 else 0.001
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            for name, g in grads.items():
                adam.grads[name][...] = g
            adam.update(adam.mults * lr)
            oracle.update(expected, grads, lr)
            for name in shapes:
                np.testing.assert_array_equal(adam.params[name], expected[name])
            np.testing.assert_array_equal(
                adam.m, np.concatenate([oracle.m[name].ravel() for name in shapes]))
            np.testing.assert_array_equal(
                adam.v, np.concatenate([oracle.v[name].ravel() for name in shapes]))

    def test_groups_become_consecutive_views_of_one_vector(self):
        groups = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([[7.0, 8.0]])}
        adam = training.AdamState(groups, training.TrainConfig(), {})
        assert adam.values.flags.c_contiguous and adam.values.shape == (8,)
        np.testing.assert_array_equal(adam.values, np.arange(9.0)[[0, 1, 2, 3, 4, 5, 7, 8]])
        for name, value in groups.items():
            assert adam.params[name].shape == adam.grads[name].shape == value.shape
            assert np.shares_memory(adam.params[name], adam.values)
            assert np.shares_memory(adam.grads[name], adam.grad)
            assert not np.shares_memory(value, adam.values)


class TestCheckpointFile:
    @pytest.mark.parametrize("method", PROMPT_METHODS + (training.BASELINE,))
    def test_round_trip_restores_every_group_bitwise(self, tmp_path, method):
        """The blocks of a trained model's checkpoint, copied into the
        parameter groups of a fresh model, give it bitwise every group."""
        trained = _model(method)
        _fit(trained)
        training.save_state(trained, tmp_path / "ckpt.bin")
        fresh = _model(method, init_seed=1)
        magic, names = training._checkpoint_blocks(fresh)
        path = tmp_path / "ckpt.bin"
        blocks = dict(zip(names, read_blocks(path, path.read_bytes(), magic, len(names)),
                          strict=True))
        np.testing.assert_array_equal(blocks.pop("num_ranks"), [[float(NUM_RANKS)]])
        for group, array in fresh.params.items():
            assert array.shape == blocks[group].shape
            array[...] = blocks[group]
        saved, loaded = _all_parameters(trained), _all_parameters(fresh)
        assert saved.keys() == loaded.keys() == blocks.keys()
        for name in saved:
            np.testing.assert_array_equal(saved[name], loaded[name])

    @pytest.mark.parametrize(
        "saved, target",
        [(training.BASELINE, training.ORDINALCLIP), (training.ORDINALCLIP, training.BASELINE)],
    )
    def test_a_checkpoint_of_the_other_family_is_rejected(self, tmp_path, saved, target):
        path = tmp_path / "ckpt.bin"
        training.save_state(_model(saved), path)
        magic, names = training._checkpoint_blocks(_model(target))
        with pytest.raises(BlockFileError, match="bad magic"):
            read_blocks(path, path.read_bytes(), magic, len(names))

    @pytest.mark.parametrize(
        "method, magic, groups",
        [
            (training.ORDINALCLIP, b"OPRM3", ("context", "base_ranks")),
            (training.COOP, b"OPRM3", ("context", "base_ranks")),
            (training.BASELINE, b"OPBH3", ("head.weights", "head.bias")),
        ],
    )
    def test_file_is_magic_then_blocks_then_checksum(self, tmp_path, method, magic, groups):
        """The family magic, num_ranks as a 1x1 block, the family's groups,
        the image encoder, then FNV-1a over every byte before it."""
        state = _model(method)
        blocks = [np.array([[float(NUM_RANKS)]])]
        blocks += [state.params[name] for name in groups]
        blocks += [state.params[name] for name in ("image.w1", "image.b1", "image.w2", "image.b2")]
        body = magic + b"".join(struct.pack("<2Q", *b.shape) + b.astype("<f8").tobytes()
                                for b in blocks)
        expected = body + struct.pack("<Q", fnv1a64(body))
        training.save_state(state, tmp_path / "ckpt.bin")
        assert (tmp_path / "ckpt.bin").read_bytes() == expected

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda blob: b"XXXXX" + blob[5:], "bad magic b'XXXXX'"),
            (lambda blob: blob[:-8], "checksum truncated"),
            (lambda blob: blob[:-1], "checksum truncated"),
            (lambda blob: blob[:40], "header of block 1 truncated"),
            (lambda blob: blob[:60] + bytes([blob[60] ^ 1]) + blob[61:],
             r": checksum mismatch$"),
        ],
        ids=["bad-magic", "no-checksum", "cut-checksum", "cut-payload", "flipped-payload-byte"],
    )
    @pytest.mark.parametrize("method", (training.ORDINALCLIP, training.BASELINE))
    def test_damaged_file_is_rejected(self, tmp_path, method, damage, message):
        """read_blocks reads every block of an intact checkpoint and raises
        on each kind of damage to it."""
        path = tmp_path / "ckpt.bin"
        state = _model(method)
        training.save_state(state, path)
        magic, blocks = training._checkpoint_blocks(state)
        for array, expected in zip(read_blocks(path, path.read_bytes(), magic, len(blocks)),
                                   blocks.values(), strict=True):
            np.testing.assert_array_equal(array, expected)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(BlockFileError, match=message):
            read_blocks(path, path.read_bytes(), magic, len(blocks))
