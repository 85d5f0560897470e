"""Tape primitives: forward values, exact adjoints, and the gradient
checker itself. Every primitive's analytic gradient is compared against
central finite differences on seeded inputs."""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import reference_backward, sum_all, unfused_clip_kl, unfused_softmax_xent
from ordinalproto import diffcore
from ordinalproto.diffcore import OP_KINDS, Tape, finite_difference_check

H = 1e-5
FD_TOL = 1e-4


def _scalarize(tape, node, rng):
    """Reduce a node X to the 1x1 node u @ X @ v, with fixed random
    weights u and v drawn from U(0.5, 1.5)."""
    rows, cols = tape.value(node).shape
    u = tape.constant(rng.uniform(0.5, 1.5, size=(1, rows)))
    v = tape.constant(rng.uniform(0.5, 1.5, size=(cols, 1)))
    return tape.matmul(tape.matmul(u, node), v)


class TestForwardValues:
    def test_add_ones(self):
        tape = Tape()
        a = tape.constant(np.ones((2, 2)))
        b = tape.constant(np.ones((2, 2)))
        out = tape.record("add", (a, b))
        np.testing.assert_array_equal(tape.value(out), np.full((2, 2), 2.0))

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(2, 5))
        tape = Tape()
        out = tape.matmul(tape.constant(np.eye(2)), tape.constant(m))
        np.testing.assert_array_equal(tape.value(out), m)

    def test_row_softmax_direct_evaluation(self):
        # softmax([0, ln 3]) = [1, 3] / 4
        out = diffcore.softmax(np.array([[0.0, np.log(3.0)]]), axis=1)
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_row_softmax_rows_sum_to_one(self):
        # cosine-scale inputs: the operating range of the similarity tables
        rng = np.random.default_rng(1)
        value = diffcore.softmax(rng.uniform(-1, 1, size=(6, 8)) / 0.07, axis=1)
        np.testing.assert_allclose(value.sum(axis=1), 1.0, atol=1e-12)
        assert (value > 0).all() and (value < 1).all()

    def test_col_softmax_cols_sum_to_one(self):
        rng = np.random.default_rng(2)
        value = diffcore.softmax(rng.normal(size=(6, 8)) / 0.5, axis=0)
        np.testing.assert_allclose(value.sum(axis=0), 1.0, atol=1e-12)

    def test_l2_normalize_unit_rows(self):
        rng = np.random.default_rng(3)
        tape = Tape()
        out = tape.l2_normalize_rows(tape.constant(rng.normal(size=(5, 7))))
        np.testing.assert_allclose(
            np.linalg.norm(tape.value(out), axis=1), 1.0, atol=1e-12
        )

    def test_kl_of_identical_distributions_is_zero(self):
        """softmax-xent against targets equal to the softmax of its logits:
        zero loss and zero gradient, up to rounding."""
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(3, 4))
        tape = Tape()
        s = tape.parameter(logits, "s")
        loss = tape.softmax_xent(s, diffcore.softmax(logits, axis=1))
        assert abs(tape.value(loss)[0, 0]) < 1e-15
        np.testing.assert_allclose(tape.backward(loss)["s"], 0.0, atol=1e-15)

    def test_kl_zero_rows_contribute_nothing(self):
        """An all-zero target row adds nothing to the KL sum and gets an
        exact-zero gradient; it still counts in the mean over rows."""
        p = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = np.array([[0.3, 0.7], [0.5, 0.5]])
        tape = Tape()
        s = tape.parameter(np.log(q), "s")
        loss = tape.softmax_xent(s, p)
        assert tape.value(loss)[0, 0] == pytest.approx(np.log(2.0) / 2, abs=1e-15)
        np.testing.assert_array_equal(tape.backward(loss)["s"][0], [0.0, 0.0])

    def test_fused_losses_stay_finite_where_the_softmax_underflows(self):
        """At t = 1e-4 the row softmax of [1, -1] is exp(-2e4) = 0 on the
        label, where log(softmax) is -inf. The log-sum-exp form gives the
        exact loss."""
        tape = Tape()
        s = tape.parameter([[1.0, -1.0]], "s")
        loss = tape.clip_kl(s, [[0.0, 1.0]], 1e-4)
        assert tape.value(loss)[0, 0] == 1e4  # 0.5 * 2e4 + 0.5 * 0
        np.testing.assert_allclose(tape.backward(loss)["s"], [[5e3, -5e3]], rtol=1e-15)

        tape = Tape()
        logits = tape.parameter([[1000.0, -1000.0]], "logits")
        loss = tape.softmax_xent(logits, [[0.0, 1.0]])
        assert tape.value(loss)[0, 0] == 2000.0
        np.testing.assert_array_equal(tape.backward(loss)["logits"], [[1.0, -1.0]])


class TestRecordContract:
    def test_unknown_op_kind_rejected(self):
        tape = Tape()
        a = tape.constant(np.ones((2, 2)))
        with pytest.raises(ValueError, match="unknown op kind"):
            tape.record("outer-product", (a, a))

    @pytest.mark.parametrize("bad", [-1, 1, 7])
    def test_input_off_the_tape_rejected_before_recording(self, bad):
        tape = Tape()
        a = tape.constant(np.ones((2, 2)))
        with pytest.raises(ValueError, match=rf"^input node {bad} not on tape$"):
            tape.add(a, bad)
        assert len(tape) == 1

    def test_shape_mismatch_reports_shapes(self):
        tape = Tape()
        a = tape.constant(np.ones((2, 3)))
        b = tape.constant(np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"\(2, 3\)"):
            tape.matmul(a, b)

    def test_zero_row_normalization_rejected_with_index(self):
        tape = Tape()
        a = tape.constant(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="row 1"):
            tape.l2_normalize_rows(a)

    @pytest.mark.parametrize("temperature", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_nonpositive_temperature_rejected(self, temperature):
        tape = Tape()
        a = tape.constant(np.ones((2, 2)))
        with pytest.raises(ValueError, match="temperature must be positive"):
            tape.clip_kl(a, np.eye(2), temperature)
        assert len(tape) == 1

    def test_all_listed_op_kinds_are_recordable(self):
        assert set(OP_KINDS) == set(diffcore._FORWARD) == set(diffcore._BACKWARD) == {
            "matmul", "add", "l2-normalize-rows", "concat-rows", "transpose", "tanh",
            "clip-kl", "softmax-xent",
        }


class TestBackward:
    def test_sum_gradient_is_ones(self):
        rng = np.random.default_rng(5)
        tape = Tape()
        p = tape.parameter(rng.normal(size=(2, 3)), "p")
        grads = tape.backward(sum_all(tape, p))
        np.testing.assert_array_equal(grads["p"], np.ones((2, 3)))

    def test_half_squared_norm_gradient_equals_parameter(self):
        """0.5 * p @ p.T for a row p: the two matmul operands each carry
        half of the gradient p, one of them back through transpose."""
        rng = np.random.default_rng(6)
        value = rng.normal(size=(1, 9))
        tape = Tape()
        p = tape.parameter(value, "p")
        loss = tape.matmul(tape.constant([[0.5]]), tape.matmul(p, tape.transpose(p)))
        np.testing.assert_allclose(tape.backward(loss)["p"], value, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        p = tape.parameter(np.ones((2, 2)), "p")
        with pytest.raises(ValueError, match="1x1"):
            tape.backward(p)

    def test_unreached_parameter_gets_zero_gradient(self):
        tape = Tape()
        p = tape.parameter(np.ones((2, 2)), "used")
        q = tape.parameter(np.ones((3, 4)), "unused")
        grads = tape.backward(sum_all(tape, p))
        np.testing.assert_array_equal(grads["unused"], np.zeros((3, 4)))
        assert grads["unused"].shape == tape.value(q).shape

    def test_backward_is_linear_in_the_loss(self):
        """grad(a + b) == grad(a) + grad(b) entrywise within 1e-12."""
        rng = np.random.default_rng(7)
        value = rng.normal(size=(4, 4))

        def grads_of(which):
            tape = Tape()
            p = tape.parameter(value, "p")
            loss_a = sum_all(tape, tape.matmul(p, p))
            loss_b = sum_all(tape, tape.tanh(p))
            if which == "a":
                return tape.backward(loss_a)["p"]
            if which == "b":
                return tape.backward(loss_b)["p"]
            return tape.backward(tape.add(loss_a, loss_b))["p"]

        np.testing.assert_allclose(
            grads_of("sum"), grads_of("a") + grads_of("b"), atol=1e-12
        )

    def test_kl_of_softmax_gradient_matches_finite_differences(self):
        """clip-kl of one-hot labels at t = 0.5, at logits peaked toward
        the labels."""
        labels = np.array([0, 2, 1])
        y = np.zeros((3, 3))
        y[np.arange(3), labels] = 1.0
        logits = 2.0 * y

        def loss_of(p):
            tape = Tape()
            return tape.value(tape.clip_kl(tape.parameter(p, "p"), y, 0.5))[0, 0]

        tape = Tape()
        loss = tape.clip_kl(tape.parameter(logits, "p"), y, 0.5)
        analytic = tape.backward(loss)["p"]
        assert finite_difference_check(loss_of, logits, analytic, h=H) <= FD_TOL


class TestFiniteCheck:
    @pytest.mark.parametrize(
        "row", [[1.0, np.inf], [-np.inf, 2.0], [np.nan, 0.0], [np.inf, -np.inf]]
    )
    def test_non_finite_output_names_the_op(self, row):
        tape = Tape()
        a = tape.constant([row])
        message = "non-finite values produced by op 'transpose'"
        with pytest.raises(FloatingPointError, match=message):
            tape.transpose(a)

    def test_single_nan_in_a_large_value_is_caught(self):
        values = np.ones((16, 16))
        values[11, 5] = np.nan
        tape = Tape()
        with pytest.raises(FloatingPointError, match="'add'"):
            tape.add(tape.constant(values), tape.constant(np.ones((16, 16))))

    def test_l2_normalize_rows_whose_sum_of_squares_overflows_or_underflows(self):
        """Rows whose sum of squares overflows to inf or underflows to 0 are
        normalized after scaling by their largest entry, without a warning;
        the norm of every other row is the plain one, bitwise."""
        a = np.array([[1e200, 1e200], [3.0, 4.0], [1e-200, -1e-200], [1.7e308, 1.7e308]])
        tape = Tape()
        p = tape.parameter(a, "p")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = tape.l2_normalize_rows(p)
            grads = tape.backward(_scalarize(tape, out, np.random.default_rng(0)))
        half = np.sqrt(0.5)
        np.testing.assert_allclose(tape.value(out), [[half, half], [0.6, 0.8], [half, -half],
                                                     [half, half]], rtol=1e-15)
        np.testing.assert_array_equal(tape.value(out)[1], a[1] / np.linalg.norm(a[1]))
        assert np.isfinite(grads["p"]).all()

    def test_zero_row_after_a_rescaled_row_is_named(self):
        tape = Tape()
        a = tape.constant(np.array([[1e-200, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="row 1 is the zero vector"):
            tape.l2_normalize_rows(a)

    def test_finite_value_whose_sum_overflows_is_accepted(self):
        tape = Tape()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = tape.transpose(tape.constant([[1e308, 1e308]]))
        np.testing.assert_array_equal(tape.value(out), [[1e308], [1e308]])


def _count_backward_rules(monkeypatch):
    """Wrap every backward rule; returns (calls per op kind, call log)."""
    calls = Counter()
    log = []
    for kind, rule in list(diffcore._BACKWARD.items()):

        def counted(g, out, ins, meta, wants, rule=rule, kind=kind):
            calls[kind] += 1
            contribs = rule(g, out, ins, meta, wants)
            log.append((kind, wants, contribs))
            return contribs

        monkeypatch.setitem(diffcore._BACKWARD, kind, counted)
    return calls, log


class TestPrunedBackward:
    def test_no_rule_runs_for_a_node_no_parameter_reaches(self, monkeypatch):
        rng = np.random.default_rng(30)
        tape = Tape()
        p = tape.parameter(rng.normal(size=(3, 4)), "p")
        frozen = tape.tanh(tape.transpose(tape.constant(rng.normal(size=(4, 3)))))
        loss = sum_all(tape, tape.add(p, frozen))
        calls, log = _count_backward_rules(monkeypatch)
        tape.backward(loss)
        assert calls == {"matmul": 2, "add": 1}
        for kind, wants, contribs in log:
            assert [c is not None for c in contribs] == list(wants), kind

    def test_loss_no_parameter_reaches_runs_no_rule(self, monkeypatch):
        tape = Tape()
        p = tape.parameter(np.ones((2, 2)), "p")
        loss = sum_all(tape, tape.tanh(tape.constant(np.ones((2, 2)))))
        calls, _ = _count_backward_rules(monkeypatch)
        grads = tape.backward(loss)
        assert not calls
        np.testing.assert_array_equal(grads["p"], np.zeros((2, 2)))
        assert not np.shares_memory(grads["p"], tape.value(p))

    def test_constant_operands_get_no_gradient_formed(self, monkeypatch):
        rng = np.random.default_rng(31)
        tape = Tape()
        x = tape.constant(rng.normal(size=(5, 3)))
        w = tape.parameter(rng.normal(size=(3, 2)), "w")
        loss = tape.softmax_xent(tape.matmul(x, w), np.full((5, 2), 0.5))
        _, log = _count_backward_rules(monkeypatch)
        tape.backward(loss)
        wants = {kind: w for kind, w, _ in log}
        assert wants == {"matmul": (False, True), "softmax-xent": (True,)}

    def test_aliased_adjoints_match_the_unpruned_sweep_bitwise(self):
        """add hands one upstream buffer to both of its inputs. p then
        takes a second contribution from tanh: accumulating in place would
        change q's gradient too. a and b share their buffer to the end."""
        rng = np.random.default_rng(32)
        tape = Tape()
        p, q, a, b = (tape.parameter(rng.normal(size=(3, 3)), n) for n in "pqab")
        r = tape.tanh(p)
        total = tape.add(tape.add(tape.add(p, q), r), tape.add(a, b))
        loss = _scalarize(tape, total, rng)
        grads = tape.backward(loss)
        expected = reference_backward(tape, loss)
        for name in "pqab":
            np.testing.assert_array_equal(grads[name], expected[name])
        arrays = list(grads.values())
        for i, x in enumerate(arrays):
            for y in arrays[i + 1:]:
                assert not np.shares_memory(x, y)

    def test_gradient_of_a_parameter_loss_is_a_fresh_array(self):
        tape = Tape()
        p = tape.parameter(np.array([[2.0]]), "p")
        grads = tape.backward(p)
        np.testing.assert_array_equal(grads["p"], [[1.0]])
        assert not np.shares_memory(grads["p"], tape.value(p))


def _fd_case(name, build, shapes, seed):
    """Check one primitive's adjoint, w.r.t. each input in turn."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=shape) for shape in shapes]
    for target in range(len(values)):

        def assemble(target_value):
            tape = Tape()
            nodes = []
            for i, v in enumerate(values):
                if i == target:
                    nodes.append(tape.parameter(target_value, "p"))
                else:
                    nodes.append(tape.constant(v))
            out = build(tape, nodes)
            reduced = _scalarize(tape, out, np.random.default_rng(seed + 99))
            return tape, reduced

        tape, loss = assemble(values[target])
        analytic = tape.backward(loss)["p"]

        def f(p):
            t, l = assemble(p)
            return t.value(l)[0, 0]

        err = finite_difference_check(f, values[target], analytic, h=H)
        assert err <= FD_TOL, f"{name} input {target}: relative error {err}"


class TestPrimitiveGradients:
    """Analytic Jacobian-vector products vs central differences, sizes
    up to 8x8, h = 1e-5, relative error <= 1e-4."""

    def test_matmul(self):
        _fd_case("matmul", lambda t, n: t.matmul(n[0], n[1]), [(4, 8), (8, 3)], 10)

    def test_add_same_shape(self):
        _fd_case("add", lambda t, n: t.add(n[0], n[1]), [(5, 6), (5, 6)], 11)

    def test_add_broadcast_bias(self):
        _fd_case("add-bias", lambda t, n: t.add(n[0], n[1]), [(7, 4), (1, 4)], 12)

    def test_l2_normalize_rows(self):
        _fd_case("l2-normalize", lambda t, n: t.l2_normalize_rows(n[0]), [(6, 8)], 16)

    def test_concat_rows(self):
        _fd_case(
            "concat", lambda t, n: t.concat_rows([n[0], n[1], n[2]]),
            [(2, 5), (3, 5), (1, 5)], 18,
        )

    def test_transpose(self):
        _fd_case("transpose", lambda t, n: t.transpose(n[0]), [(3, 7)], 20)

    def test_tanh(self):
        _fd_case("tanh", lambda t, n: t.tanh(n[0]), [(8, 8)], 21)

    def test_clip_kl(self):
        # label 5 is empty: a zero column, left out of the column term
        targets = np.eye(8)[[0, 2, 2, 7, 1, 3]]
        _fd_case("clip-kl", lambda t, n: t.clip_kl(n[0], targets, 0.7), [(6, 8)], 22)

    def test_softmax_xent(self):
        rng = np.random.default_rng(23)
        targets = rng.uniform(0.0, 1.0, size=(4, 5))
        targets[0, :] = 0.0  # an all-zero target row must stay differentiable
        _fd_case("softmax-xent", lambda t, n: t.softmax_xent(n[0], targets), [(4, 5)], 24)


# ---------------------------------------------------------------------------
# property tests: every op kind over random small shapes, input roles and
# op parameters. Hypothesis draws the structure; a seeded generator draws
# the values, well away from zero and from the kinks of each op's domain,
# so the finite-difference comparison stays well conditioned.

PROPERTY_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)

_dims = st.integers(1, 4)


def _signed(rng, shape):
    return rng.uniform(0.25, 1.5, size=shape) * rng.choice((-1.0, 1.0), size=shape)


def _loss_targets(draw, rng):
    """B x C targets for the fused losses: one-hot labels, one-hot labels
    with B < C (so some label columns are empty), or soft non-negative
    targets whose rows need not sum to 1, some of them all zero."""
    kind = draw(st.sampled_from(["one-hot", "one-hot, B < C", "soft"]))
    rows = draw(_dims)
    cols = rows + draw(_dims) if kind == "one-hot, B < C" else draw(_dims)
    if kind == "soft":
        targets = rng.uniform(0.25, 1.0, size=(rows, cols)) * (rng.random((rows, cols)) < 0.6)
        targets[0, 0] = 1.0  # no loss is defined on all-zero targets
    else:
        targets = np.zeros((rows, cols))
        targets[np.arange(rows), rng.integers(0, cols, size=rows)] = 1.0
    return targets


@st.composite
def _op_cases(draw, kind):
    """(build, input values) for one op kind; build(tape, nodes) -> node."""
    rows, cols = draw(_dims), draw(_dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "matmul":
        shapes = [(rows, cols), (cols, draw(_dims))]
        build = lambda t, n: t.matmul(*n)
    elif kind == "add":
        shapes = [(rows, cols), draw(st.sampled_from([(rows, cols), (1, cols)]))]
        build = lambda t, n: t.add(*n)
    elif kind == "l2-normalize-rows":
        shapes = [(rows, cols)]
        build = lambda t, n: t.l2_normalize_rows(n[0])
    elif kind == "concat-rows":
        shapes = [(draw(_dims), cols) for _ in range(draw(st.integers(1, 3)))]
        build = lambda t, n: t.concat_rows(n)
    elif kind in ("clip-kl", "softmax-xent"):
        targets = _loss_targets(draw, rng)
        shapes = [targets.shape]
        if kind == "clip-kl":
            temperature = draw(st.floats(0.5, 2.0))
            build = lambda t, n: t.clip_kl(n[0], targets, temperature)
        else:
            build = lambda t, n: t.softmax_xent(n[0], targets)
    elif kind == "transpose":
        shapes = [(rows, cols)]
        build = lambda t, n: t.transpose(n[0])
    elif kind == "tanh":
        shapes = [(rows, cols)]
        build = lambda t, n: t.tanh(n[0])
    else:
        raise AssertionError(f"no property case for op kind {kind!r}")
    return build, [_signed(rng, shape) for shape in shapes]


def _wiring(draw, values):
    """For each input, the leaf it reads: itself, or an earlier input of the
    same shape (one leaf feeding several operands, so adjoints accumulate);
    and for each leaf, whether it is a parameter. At least one is."""
    sources = []
    for i, v in enumerate(values):
        same = [j for j in range(i) if values[j].shape == v.shape and sources[j] == j]
        shared = same and draw(st.booleans())
        sources.append(draw(st.sampled_from(same)) if shared else i)
    leaves = sorted(set(sources))
    params = [leaf for leaf in leaves if draw(st.booleans())] or [draw(st.sampled_from(leaves))]
    return sources, params


def _property_tape(build, values, sources, params, weight_seed):
    """Leaf i is parameter p{i} or a constant; the op output is reduced to a
    1x1 loss through fixed positive weights."""
    tape = Tape()
    leaf = {
        i: tape.parameter(values[i], f"p{i}") if i in params else tape.constant(values[i])
        for i in sorted(set(sources))
    }
    out = build(tape, [leaf[i] for i in sources])
    return tape, _scalarize(tape, out, np.random.default_rng(weight_seed))


@pytest.mark.parametrize("kind", OP_KINDS)
class TestOpProperties:
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_backward_matches_the_unpruned_sweep_bitwise(self, kind, data):
        build, values = data.draw(_op_cases(kind))
        sources, params = _wiring(data.draw, values)
        tape, loss = _property_tape(build, values, sources, params, data.draw(st.integers(0, 99)))
        grads = tape.backward(loss)
        expected = reference_backward(tape, loss)
        assert grads.keys() == expected.keys()
        for name in grads:
            np.testing.assert_array_equal(grads[name], expected[name])

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_backward_agrees_with_finite_differences(self, kind, data):
        build, values = data.draw(_op_cases(kind))
        sources, params = _wiring(data.draw, values)
        weight_seed = data.draw(st.integers(0, 99))
        tape, loss = _property_tape(build, values, sources, params, weight_seed)
        grads = tape.backward(loss)
        for target in params:

            def f(point, target=target):
                moved = list(values)
                moved[target] = point
                t, l = _property_tape(build, moved, sources, params, weight_seed)
                return t.value(l)[0, 0]

            err = finite_difference_check(f, values[target], grads[f"p{target}"], h=H)
            assert err <= FD_TOL, f"input {target}: relative error {err}"

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_backward_leaves_the_tape_unchanged_and_its_gradients_unshared(self, kind, data):
        """A second sweep returns the same gradients bitwise, every tape
        value is as recorded, and no gradient shares memory with another
        gradient or with any tape value."""
        build, values = data.draw(_op_cases(kind))
        sources, params = _wiring(data.draw, values)
        tape, loss = _property_tape(build, values, sources, params, data.draw(st.integers(0, 99)))
        recorded = [tape.value(i).copy() for i in range(len(tape))]
        grads = tape.backward(loss)
        again = tape.backward(loss)
        for name in grads:
            np.testing.assert_array_equal(again[name], grads[name])
        for i, value in enumerate(recorded):
            np.testing.assert_array_equal(tape.value(i), value)
        arrays = list(grads.values())
        for i, g in enumerate(arrays):
            assert not any(np.shares_memory(g, other) for other in arrays[i + 1:])
            assert not any(np.shares_memory(g, tape.value(j)) for j in range(len(tape)))

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_a_nan_input_raises_naming_the_op_and_records_nothing(self, kind, data):
        build, values = data.draw(_op_cases(kind))
        which = data.draw(st.integers(0, len(values) - 1))
        rows, cols = values[which].shape
        values[which][data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))] = np.nan
        tape = Tape()
        nodes = [tape.constant(v) for v in values]
        with pytest.raises(FloatingPointError, match=f"non-finite values produced by op '{kind}'"):
            build(tape, nodes)
        assert len(tape) == len(values)


_finite = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
    elements=st.floats(-1e6, 1e6, allow_subnormal=False),
)


class TestForwardFormulas:
    """The forward rules against the plain numpy formulas they replace,
    bitwise, on arbitrary finite values."""

    @PROPERTY_SETTINGS
    @given(a=_finite)
    def test_l2_normalize_equals_linalg_norm(self, a):
        norms = np.linalg.norm(a, axis=1, keepdims=True)
        assume((norms > 0).all())
        tape = Tape()
        out = tape.l2_normalize_rows(tape.constant(a))
        np.testing.assert_array_equal(tape.value(out), a / norms)

    @PROPERTY_SETTINGS
    @given(parts=st.lists(_finite, min_size=1, max_size=3))
    def test_concat_rows_equals_vstack(self, parts):
        parts = [p[:, :1] for p in parts]
        tape = Tape()
        out = tape.concat_rows([tape.constant(p) for p in parts])
        np.testing.assert_array_equal(tape.value(out), np.vstack(parts))

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_kl_equals_the_two_gather_formula(self, data):
        """softmax-xent: the KL sum gathered on the targets' support, with
        log-probabilities in log-sum-exp form, over the B rows."""
        shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=5))
        y = data.draw(hnp.arrays(np.float64, shape,
                                 elements=st.floats(0.0, 1.0, allow_subnormal=False)))
        x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-30.0, 30.0)))
        shifted = x - x.max(axis=1, keepdims=True)
        log_q = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        s = y > 0
        expected = float(np.sum(y[s] * (np.log(y[s]) - log_q[s]))) * (1.0 / shape[0])
        tape = Tape()
        out = tape.softmax_xent(tape.constant(x), y)
        assert tape.value(out)[0, 0] == expected


class TestFusedLosses:
    """clip-kl and softmax-xent against the plain-numpy chains they fuse
    (tests/conftest.py): value and gradient within 1e-12, and the
    closed-form gradient against central differences."""

    @pytest.mark.parametrize("kind", ["clip-kl", "softmax-xent"])
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_fused_loss_matches_the_unfused_chain(self, kind, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        targets = _loss_targets(data.draw, rng)
        scores = _signed(rng, targets.shape)
        temperature = data.draw(st.floats(0.5, 2.0))

        def loss(point):
            tape = Tape()
            s = tape.parameter(point, "s")
            if kind == "clip-kl":
                return tape, tape.clip_kl(s, targets, temperature)
            return tape, tape.softmax_xent(s, targets)

        if kind == "clip-kl":
            ref_value, ref_grad = unfused_clip_kl(scores, targets, temperature)
        else:
            ref_value, ref_grad = unfused_softmax_xent(scores, targets)
        tape, node = loss(scores)
        assert len(tape) == 2
        assert abs(tape.value(node)[0, 0] - ref_value) <= 1e-12
        grad = tape.backward(node)["s"]
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)

        def f(point):
            t, n = loss(point)
            return t.value(n)[0, 0]

        assert finite_difference_check(f, scores, grad, h=H) <= FD_TOL

    def test_bad_targets_or_temperature_are_rejected_before_recording(self):
        tape = Tape()
        s = tape.constant(np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"clip-kl: incompatible shapes \(\(2, 3\), \(3, 2\)\)"):
            tape.clip_kl(s, np.zeros((3, 2)), 1.0)
        with pytest.raises(ValueError, match="softmax-xent: targets must be finite and non-negative"):
            tape.softmax_xent(s, -np.ones((2, 3)))
        with pytest.raises(ValueError, match="clip-kl: targets are all zero"):
            tape.clip_kl(s, np.zeros((2, 3)), 1.0)
        with pytest.raises(ValueError, match="temperature must be positive"):
            tape.clip_kl(s, np.ones((2, 3)), 0.0)
        assert len(tape) == 1


class TestFiniteDifferenceCheck:
    def test_sum_of_squares_closed_form(self):
        """Analytic gradient of sum(P^2) is 2P; error <= 1e-6."""
        rng = np.random.default_rng(0)
        p = rng.normal(size=(4, 4))
        err = finite_difference_check(lambda m: float((m * m).sum()), p, 2.0 * p, h=H)
        assert err <= 1e-6

    def test_constant_function_has_zero_error(self):
        p = np.ones((3, 3))
        err = finite_difference_check(lambda m: 7.0, p, np.zeros((3, 3)), h=H)
        assert err == 0.0

    def test_wrong_gradient_is_caught(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=(3, 3))
        err = finite_difference_check(lambda m: float((m * m).sum()), p, 3.0 * p, h=H)
        assert err > 0.1

    def test_non_finite_value_reported_with_entry(self):
        p = np.zeros((2, 2))

        def f(m):
            return float("nan") if m[1, 1] != 0 else 0.0

        with pytest.raises(FloatingPointError, match=r"\(1, 1\)"):
            finite_difference_check(f, p, np.zeros((2, 2)), h=H)
