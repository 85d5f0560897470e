"""Properties of each closed-form step of the training tail (the image
encoder, the scores, the baseline's logits and the two losses) over
random small shapes: gradients against central differences, a backward
that changes nothing it reads and returns unshared arrays, a NaN operand
named by the op that reads it, and diffcore.guarded's one unchecked pass
against a pass checking every step, from subnormals to 1e308. These are
the checks test_diffcore.py's op properties make of the tape's op kinds,
for the steps that run off the tape."""

import re
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference_check
from ordinalproto.diffcore import check_finite, guarded
from ordinalproto.encoders import ImageEncoder
from ordinalproto.matching import (
    baseline_logits,
    baseline_logits_grad,
    contrastive_loss,
    contrastive_loss_grad,
    cross_entropy_loss,
    cross_entropy_loss_grad,
    label_column,
    similarity,
    similarity_grad,
)

H = 1e-5
FD_TOL = 1e-4
PROPERTY_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)
STEPS = ("image-encoder", "similarity", "baseline-logits", "clip-kl", "softmax-xent")

_dims = st.integers(1, 4)
_NAN_BATCH = (ValueError, "image batch contains non-finite values")


def _produced_by(op):
    return FloatingPointError, f"non-finite values produced by op '{op}'"


class _Step(NamedTuple):
    """One closed-form step on drawn operands {name: matrix}.

    forward(operands, check) returns (value, kept) and backward(operands,
    kept, upstream) returns {name: gradient} for each name in
    `differentiated`. A loss's value is a float, and its upstream gradient
    a float that scales it. nan_raises[name] is the (exception type,
    message) a NaN entry of that operand raises, checked at every step.
    """

    operands: dict
    differentiated: tuple
    forward: Callable
    backward: Callable
    nan_raises: dict


def _signed(rng, shape):
    return rng.uniform(0.25, 1.5, size=shape) * rng.choice((-1.0, 1.0), size=shape)


def _spanning(rng, shape, lo, hi):
    """Finite values whose entries are _signed ones times 10**e, e drawn
    per entry from lo..hi: down into the subnormals at lo = -320, up to
    1.5e308 at hi = 308."""
    return _signed(rng, shape) * 10.0 ** rng.integers(lo, hi + 1, size=shape)


def _loss_labels(draw, rng):
    """(B rank indices, C) for the losses, each batch one of: B > C, so
    some rank is repeated; B < C, so some rank is absent; or B = 1."""
    kind = draw(st.sampled_from(["repeated", "absent", "one row"]))
    cols = draw(_dims)
    rows = {"repeated": cols + draw(_dims), "absent": cols, "one row": 1}[kind]
    if kind == "absent":
        cols += draw(_dims)
    return rng.integers(0, cols, size=rows), cols


def _encoder_backward(operands, kept, upstream):
    grads = {name: np.empty_like(operands[name]) for name in ImageEncoder.NAMES}
    ImageEncoder.backward(operands, kept, upstream, grads)
    return grads


@st.composite
def _steps(draw, kind):
    """A _Step of one kind, its operands drawn by _signed: away from zero,
    and with the encoder's weights scaled so that tanh stays off its flat
    tails, where central differences lose their digits."""
    rows, cols = draw(_dims), draw(_dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "image-encoder":
        hidden, latent = draw(_dims), draw(_dims)
        shapes = {"batch": (rows, cols), "image.w1": (cols, hidden), "image.b1": (1, hidden),
                  "image.w2": (hidden, latent), "image.b2": (1, latent)}
        operands = {name: _signed(rng, shape) for name, shape in shapes.items()}
        operands["image.w1"] /= cols
        return _Step(
            operands, ImageEncoder.NAMES,
            lambda ops, check: ImageEncoder.encode(ops, ops["batch"], check),
            _encoder_backward,
            {"batch": _NAN_BATCH, "image.w1": _produced_by("matmul"),
             "image.b1": _produced_by("add"), "image.w2": _produced_by("matmul"),
             "image.b2": _produced_by("add")},
        )
    if kind == "similarity":
        shapes = {"embeddings": (rows, cols), "prototypes": (draw(_dims), cols)}
        return _Step(
            {name: _signed(rng, shape) for name, shape in shapes.items()},
            ("embeddings", "prototypes"),
            lambda ops, check: similarity(ops["embeddings"], ops["prototypes"], check),
            lambda ops, kept, upstream: dict(zip(
                ("embeddings", "prototypes"), similarity_grad(upstream, ops["embeddings"], kept))),
            {"embeddings": _produced_by("matmul"), "prototypes": _produced_by("matmul")},
        )
    if kind == "baseline-logits":
        ranks = draw(_dims)
        shapes = {"weights": (ranks, cols), "bias": (1, ranks), "features": (rows, cols)}
        return _Step(
            {name: _signed(rng, shape) for name, shape in shapes.items()},
            ("features", "weights", "bias"),
            lambda ops, check: baseline_logits(ops["weights"], ops["bias"], ops["features"], check),
            lambda ops, kept, upstream: dict(zip(
                ("features", "weights", "bias"),
                baseline_logits_grad(upstream, ops["features"], kept))),
            {"weights": _produced_by("matmul"), "bias": _produced_by("add"),
             "features": _produced_by("matmul")},
        )
    labels, ranks = _loss_labels(draw, rng)
    y = label_column(labels)
    if kind == "clip-kl":
        temperature = draw(st.floats(0.5, 2.0))
        forward = lambda ops, check: contrastive_loss(ops["scores"], y, temperature, check)
        grad = contrastive_loss_grad
    else:
        forward = lambda ops, check: cross_entropy_loss(ops["scores"], y, check)
        grad = cross_entropy_loss_grad
    return _Step(
        {"scores": _signed(rng, (len(labels), ranks))}, ("scores",), forward,
        lambda ops, kept, upstream: {"scores": upstream * grad(kept)},
        {"scores": _produced_by(kind)},
    )


def _reduced(value, seed):
    """(scalar, its gradient in value) of fixed weights drawn from U(0.5,
    1.5): u value v for a matrix value, w value for a loss."""
    rng = np.random.default_rng(seed)
    if isinstance(value, float):
        w = rng.uniform(0.5, 1.5)
        return w * value, w
    u = rng.uniform(0.5, 1.5, (1, value.shape[0]))
    v = rng.uniform(0.5, 1.5, (value.shape[1], 1))
    return u.dot(value).dot(v)[0, 0], u.T.dot(v.T)


def _arrays(kept):
    """Every array in what a forward kept: an array, or nested tuples."""
    if isinstance(kept, np.ndarray):
        return [kept]
    if isinstance(kept, tuple):
        return [a for item in kept for a in _arrays(item)]
    return []


@pytest.mark.parametrize("kind", STEPS)
class TestTailStepProperties:
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_backward_agrees_with_finite_differences(self, kind, data):
        step = data.draw(_steps(kind))
        seed = data.draw(st.integers(0, 99))
        value, kept = step.forward(step.operands, check_finite)
        grads = step.backward(step.operands, kept, _reduced(value, seed)[1])
        assert grads.keys() == set(step.differentiated)
        for name in step.differentiated:

            def f(point, name=name):
                moved = step.operands | {name: point}
                return _reduced(step.forward(moved, check_finite)[0], seed)[0]

            err = finite_difference_check(f, step.operands[name], grads[name], h=H)
            assert err <= FD_TOL, f"{name}: relative error {err}"

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_backward_changes_nothing_it_reads_and_its_gradients_are_unshared(self, kind, data):
        """A second backward returns the same gradients bitwise; the
        operands, the value and every array forward kept are as they were;
        and no gradient shares memory with another gradient or with any of
        those arrays."""
        step = data.draw(_steps(kind))
        value, kept = step.forward(step.operands, check_finite)
        upstream = _reduced(value, data.draw(st.integers(0, 99)))[1]
        held = list(step.operands.values()) + _arrays(value) + _arrays(kept)
        before = [a.copy() for a in held]
        grads = step.backward(step.operands, kept, upstream)
        again = step.backward(step.operands, kept, upstream)
        for name in grads:
            assert again[name].tobytes() == grads[name].tobytes(), name
        for a, b in zip(held, before):
            assert a.tobytes() == b.tobytes()
        arrays = list(grads.values())
        for i, g in enumerate(arrays):
            assert not any(np.shares_memory(g, other) for other in arrays[i + 1:])
            assert not any(np.shares_memory(g, x) for x in held)

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_a_nan_operand_raises_naming_the_op_that_reads_it(self, kind, data):
        step = data.draw(_steps(kind))
        name = data.draw(st.sampled_from(sorted(step.operands)))
        bad = step.operands[name].copy()
        rows, cols = bad.shape
        bad[data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))] = np.nan
        error, message = step.nan_raises[name]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            step.forward(step.operands | {name: bad}, check_finite)

    def test_a_guarded_pass_equals_a_checked_one_from_subnormals_to_1e308(self, kind):
        """On finite operands spanning the float64 range, diffcore.guarded
        either raises what a pass checking every step raises, word for
        word, or returns its value bitwise. The draws reach a pass that
        raises no flag, and one whose flag re-runs the step and raises.
        A loss that overflows at a label raises naming the loss; one whose
        only overflow is in an entry no label reads re-runs and returns
        the finite loss (fixed scores, as the draws need not reach it)."""
        outcomes = Counter()

        @settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @given(data=st.data())
        def case(data):
            step = data.draw(_steps(kind))
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            # The last two bands put every entry within a few decades of
            # the largest double, or in its decade, where a loss can
            # overflow on its own.
            band = data.draw(st.sampled_from([(-320, 308), (300, 308), (308, 308)]))
            lo = data.draw(st.integers(*band))
            hi = data.draw(st.integers(lo, 308) | st.just(308))
            operands = {name: _spanning(rng, v.shape, lo, hi) for name, v in step.operands.items()}
            outcomes[_guarded_outcome(lambda check: step.forward(operands, check))] += 1

        case()
        flagged = {"raised"}
        if kind in LOSSES:
            scores = np.array([[1.5e308, -1.5e308]])
            for label, expected in ((1, "raised"), (0, "re-run")):
                outcome = _guarded_outcome(
                    lambda check: LOSSES[kind](scores, label_column([label]), check))
                assert outcome == expected, label
                outcomes[outcome] += 1
            flagged.add("re-run")
        assert outcomes.keys() == {"one pass"} | flagged, outcomes


# Each loss at temperature 1, on (scores, label column, check).
LOSSES = {
    "clip-kl": lambda scores, labels, check: contrastive_loss(scores, labels, 1.0, check),
    "softmax-xent": cross_entropy_loss,
}


def _guarded_outcome(forward):
    """How diffcore.guarded(forward, True) ends, after checking it against
    forward(check_finite): it raises what that raises ("raised"), or
    returns its value bitwise after one pass ("one pass") or two
    ("re-run")."""
    passes = []

    def counted(check):
        passes.append(check)
        return forward(check)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            expected, _ = counted(check_finite)
        except FloatingPointError as exc:
            with pytest.raises(FloatingPointError) as raised:
                guarded(counted, True)
            assert str(raised.value) == str(exc)
            return "raised"
        passes.clear()
        value, _ = guarded(counted, True)
    assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()
    return "one pass" if len(passes) == 1 else "re-run"
