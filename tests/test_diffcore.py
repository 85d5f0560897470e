"""Tape primitives: forward values, exact adjoints, seeded sweeps, the
flag guard, and the gradient checker itself. Every primitive's analytic
gradient is compared against central finite differences on seeded
inputs."""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import finite_difference_check, reference_backward, sum_all
from ordinalproto import diffcore
from ordinalproto.diffcore import OP_KINDS, Tape

H = 1e-5
FD_TOL = 1e-4


def _scalarize(tape, node, rng):
    """Reduce a node X to the 1x1 node u @ X @ v, with fixed random
    weights u and v drawn from U(0.5, 1.5)."""
    rows, cols = tape.value(node).shape
    u = tape.constant(rng.uniform(0.5, 1.5, size=(1, rows)))
    v = tape.constant(rng.uniform(0.5, 1.5, size=(cols, 1)))
    return tape.matmul(tape.matmul(u, node), v)


def _sweep(tape, loss):
    """tape.backward from the 1x1 node `loss`, the tape's last: the
    gradients of the loss."""
    assert loss == len(tape) - 1
    return tape.backward(np.ones((1, 1)))


def _ops(tape):
    """The op kinds on the tape, in recorded order; leaves are left out."""
    return [node.op for _, node, _, _ in tape._schedule]


class TestForwardValues:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(2, 5))
        tape = Tape()
        out = tape.matmul(tape.constant(np.eye(2)), tape.constant(m))
        np.testing.assert_array_equal(tape.value(out), m)

    def test_l2_normalize_unit_rows(self):
        rng = np.random.default_rng(3)
        tape = Tape()
        out = tape.l2_normalize_rows(tape.constant(rng.normal(size=(5, 7))))
        np.testing.assert_allclose(
            np.linalg.norm(tape.value(out), axis=1), 1.0, atol=1e-12
        )

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
            tape.matmul(a, bad)
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

    def test_all_listed_op_kinds_are_recordable(self):
        assert set(OP_KINDS) == set(diffcore._FORWARD) == set(diffcore._BACKWARD) == {
            "matmul", "l2-normalize-rows", "concat-rows",
        }


class TestBackward:
    def test_sum_gradient_is_ones(self):
        rng = np.random.default_rng(5)
        tape = Tape()
        p = tape.parameter(rng.normal(size=(2, 3)), "p")
        grads = _sweep(tape, sum_all(tape, p))
        np.testing.assert_array_equal(grads["p"], np.ones((2, 3)))

    def test_unreached_parameter_gets_zero_gradient(self):
        tape = Tape()
        p = tape.parameter(np.ones((2, 2)), "used")
        q = tape.parameter(np.ones((3, 4)), "unused")
        grads = _sweep(tape, sum_all(tape, p))
        np.testing.assert_array_equal(grads["unused"], np.zeros((3, 4)))
        assert grads["unused"].shape == tape.value(q).shape

    def test_backward_is_linear_in_the_loss(self):
        """grad(a + b) == grad(a) + grad(b) entrywise within 1e-12: the two
        losses are stacked in the last node, and each seed picks one or
        both."""
        rng = np.random.default_rng(7)
        tape = Tape()
        p = tape.parameter(rng.normal(size=(4, 4)), "p")
        loss_a = sum_all(tape, tape.matmul(p, p))
        loss_b = sum_all(tape, tape.l2_normalize_rows(p))
        tape.concat_rows([loss_a, loss_b])

        def grads_of(a, b):
            return tape.backward(np.array([[a], [b]]))["p"]

        np.testing.assert_allclose(
            grads_of(1.0, 1.0), grads_of(1.0, 0.0) + grads_of(0.0, 1.0), atol=1e-12
        )

class TestSeededBackward:
    """backward(G) gives the gradients of <G, value of the last node>,
    the loss code off the tape differentiates, for a node of any shape."""

    @staticmethod
    def _graph(tape, p, q):
        """normalize(concat(p, q) @ w) for parameters p, q and a constant w."""
        w = tape.constant(np.random.default_rng(60).normal(size=(4, 5)))
        return tape.l2_normalize_rows(tape.matmul(tape.concat_rows([p, q]), w))

    def test_a_seed_gives_the_gradients_of_its_inner_product_with_the_node(self):
        """The seeded sweep equals the unpruned one from the same seed
        bitwise, and the sweep of the 1x1 node u @ (G * out) @ 1 written on
        the tape within 1e-15, and central differences."""
        rng = np.random.default_rng(61)
        p0, q0 = rng.normal(size=(2, 4)), rng.normal(size=(3, 4))
        seed = rng.normal(size=(5, 5))
        tape = Tape()
        out = self._graph(tape, tape.parameter(p0, "p"), tape.parameter(q0, "q"))
        assert out == len(tape) - 1
        grads = tape.backward(seed.copy())
        expected = reference_backward(tape, seed)
        for name in "pq":
            assert grads[name].tobytes() == expected[name].tobytes(), name
        rows = [tape.matmul(tape.matmul(tape.constant(np.eye(5)[i:i + 1]), out),
                            tape.constant(seed[i:i + 1].T)) for i in range(5)]
        inner = tape.matmul(tape.constant(np.ones((1, 5))), tape.concat_rows(rows))
        unseeded = _sweep(tape, inner)
        for name in "pq":
            np.testing.assert_allclose(grads[name], unseeded[name], rtol=0, atol=1e-15)

        def f(point):
            t = Tape()
            value = t.value(self._graph(t, t.constant(point), t.constant(q0)))
            return float((seed * value).sum())

        assert finite_difference_check(f, p0, grads["p"], h=H) <= FD_TOL

    def test_a_seed_of_another_shape_is_rejected(self):
        tape = Tape()
        tape.l2_normalize_rows(tape.parameter(np.ones((2, 3)), "p"))
        with pytest.raises(ValueError, match=r"^seed has shape \(3, 2\); the last node has \(2, 3\)$"):
            tape.backward(np.ones((3, 2)))


class TestFiniteCheck:
    @pytest.mark.parametrize(
        "row", [[1.0, np.inf], [-np.inf, 2.0], [np.nan, 0.0], [np.inf, -np.inf]]
    )
    def test_non_finite_output_names_the_op(self, row):
        tape = Tape()
        a = tape.constant([row])
        message = "non-finite values produced by op 'concat-rows'"
        with pytest.raises(FloatingPointError, match=message):
            tape.concat_rows([a])

    def test_single_nan_in_a_large_value_is_caught(self):
        values = np.ones((16, 16))
        values[11, 5] = np.nan
        tape = Tape()
        with pytest.raises(FloatingPointError, match="'concat-rows'"):
            tape.concat_rows([tape.constant(np.ones((1, 16))), tape.constant(values)])

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
            grads = _sweep(tape, _scalarize(tape, out, np.random.default_rng(0)))
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
            out = tape.concat_rows([tape.constant([[1e308, 1e308]])])
        np.testing.assert_array_equal(tape.value(out), [[1e308, 1e308]])


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
        frozen = tape.l2_normalize_rows(tape.concat_rows([tape.constant(rng.normal(size=(1, 4)))]))
        loss = sum_all(tape, tape.concat_rows([p, frozen]))
        calls, log = _count_backward_rules(monkeypatch)
        _sweep(tape, loss)
        assert calls == {"matmul": 2, "concat-rows": 1}
        for kind, wants, contribs in log:
            assert [c is not None for c in contribs] == list(wants), kind

    def test_loss_no_parameter_reaches_runs_no_rule(self, monkeypatch):
        tape = Tape()
        p = tape.parameter(np.ones((2, 2)), "p")
        loss = sum_all(tape, tape.l2_normalize_rows(tape.constant(np.ones((2, 2)))))
        calls, _ = _count_backward_rules(monkeypatch)
        grads = _sweep(tape, loss)
        assert not calls
        np.testing.assert_array_equal(grads["p"], np.zeros((2, 2)))
        assert not np.shares_memory(grads["p"], tape.value(p))

    def test_constant_operands_get_no_gradient_formed(self, monkeypatch):
        rng = np.random.default_rng(31)
        tape = Tape()
        x = tape.constant(rng.normal(size=(5, 3)))
        w = tape.parameter(rng.normal(size=(3, 2)), "w")
        loss = _scalarize(tape, tape.matmul(x, w), rng)
        _, log = _count_backward_rules(monkeypatch)
        _sweep(tape, loss)
        assert [(kind, wants) for kind, wants, _ in log] == [
            ("matmul", (True, False)), ("matmul", (False, True)), ("matmul", (False, True))]

    def test_aliased_adjoints_match_the_unpruned_sweep_bitwise(self):
        """concat-rows hands each input a view of its own upstream buffer.
        p borrows a slice of the outer concat's buffer through an inner
        concat, a the next rows, q the next slice, and p then takes a
        second contribution from l2-normalize-rows, added into that view
        in place. The gradients equal the unpruned sweep's bitwise and
        share no memory."""
        rng = np.random.default_rng(32)
        tape = Tape()
        p, q = (tape.parameter(rng.normal(size=(3, 3)), n) for n in "pq")
        a = tape.parameter(rng.normal(size=(1, 3)), "a")
        r = tape.l2_normalize_rows(p)
        total = tape.concat_rows([tape.concat_rows([p, a]), q, r])
        loss = _scalarize(tape, total, rng)
        grads = _sweep(tape, loss)
        expected = reference_backward(tape, np.ones((1, 1)))
        for name in "pqa":
            np.testing.assert_array_equal(grads[name], expected[name])
        arrays = list(grads.values())
        for i, x in enumerate(arrays):
            for y in arrays[i + 1:]:
                assert not np.shares_memory(x, y)

    def test_gradient_of_a_parameter_loss_is_a_fresh_array(self):
        tape = Tape()
        p = tape.parameter(np.array([[2.0]]), "p")
        grads = _sweep(tape, p)
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
        analytic = _sweep(tape, loss)["p"]

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

    def test_l2_normalize_rows(self):
        _fd_case("l2-normalize", lambda t, n: t.l2_normalize_rows(n[0]), [(6, 8)], 16)

    def test_concat_rows(self):
        _fd_case(
            "concat", lambda t, n: t.concat_rows([n[0], n[1], n[2]]),
            [(2, 5), (3, 5), (1, 5)], 18,
        )

# ---------------------------------------------------------------------------
# property tests: every op kind over random small shapes and input roles.
# Hypothesis draws the structure; a seeded generator draws
# the values, well away from zero and from the kinks of each op's domain,
# so the finite-difference comparison stays well conditioned.

PROPERTY_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)

_dims = st.integers(1, 4)


def _signed(rng, shape):
    return rng.uniform(0.25, 1.5, size=shape) * rng.choice((-1.0, 1.0), size=shape)


@st.composite
def _op_cases(draw, kind):
    """(build, input values) for one op kind; build(tape, nodes) -> node."""
    rows, cols = draw(_dims), draw(_dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "matmul":
        shapes = [(rows, cols), (cols, draw(_dims))]
        build = lambda t, n: t.matmul(*n)
    elif kind == "l2-normalize-rows":
        shapes = [(rows, cols)]
        build = lambda t, n: t.l2_normalize_rows(n[0])
    elif kind == "concat-rows":
        shapes = [(draw(_dims), cols) for _ in range(draw(st.integers(1, 3)))]
        build = lambda t, n: t.concat_rows(n)
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


def _meta_arrays(meta):
    """The arrays a forward rule left in its node's meta: None, or
    l2-normalize-rows's array of row norms."""
    return [] if meta is None else [meta]


def _property_tape(build, values, sources, params):
    """Leaf i is parameter p{i}, holding the array values[i] itself, or a
    constant; the tape ends at the op's output."""
    tape = Tape()
    leaf = {i: tape.parameter(values[i], f"p{i}") if i in params else tape.constant(values[i])
            for i in sorted(set(sources))}
    build(tape, [leaf[i] for i in sources])
    return tape


def _seed(tape, weight_seed):
    """Fixed positive weights W of the last node's shape, drawn from
    U(0.5, 1.5): the seed of the loss <W, output>."""
    shape = tape.value(len(tape) - 1).shape
    return np.random.default_rng(weight_seed).uniform(0.5, 1.5, shape)


def _vouch(arrays):
    """Whether every array is finite: the vouch forward_loss computes over
    the groups when its caller gives none."""
    return all(diffcore.all_finite(a) for a in arrays)


def _spanning(rng, shape, lo, hi):
    """Finite values whose entries are _signed ones times 10**e, e drawn
    per entry from lo..hi: down into the subnormals at lo = -320, up to
    1.5e308 at hi = 308."""
    return _signed(rng, shape) * 10.0 ** rng.integers(lo, hi + 1, size=shape)


def _reduced(tape, u, v):
    """Append the 1x1 node u @ X @ v of the tape's last node X, for
    parameters "u" and "v" holding the arrays u and v themselves, so that
    a re-run can overflow after any op kind; returns the tape."""
    out = len(tape) - 1
    tape.matmul(tape.matmul(tape.parameter(u, "u"), out), tape.parameter(v, "v"))
    return tape


def _guarded_rerun_case(kind, data):
    """Write values drawn by _spanning into every parameter in place, the
    reduction weights u and v included, re-run the tape, and compare it
    with a recording on them: "raised" if both raise the same
    FloatingPointError, "equal" if the values and gradients are bitwise
    the recording's. A constant is fixed, so it holds its drawn value
    from the start, and every parameter is first recorded at 1e-300 times
    a _signed value, whose products with the constants cannot overflow."""
    build, values = data.draw(_op_cases(kind))
    sources, params = _wiring(data.draw, values)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    lo = data.draw(st.integers(-320, 308))
    hi = data.draw(st.integers(lo, 308))
    moved = [_spanning(rng, v.shape, lo, hi) for v in values]
    held = [v * 1e-300 if i in params else moved[i] for i, v in enumerate(values)]
    tape = _property_tape(build, held, sources, params)
    rows, cols = tape.value(len(tape) - 1).shape
    weights = [np.full((1, rows), 1e-300), np.full((cols, 1), 1e-300)]
    _reduced(tape, *weights)
    moved_weights = [_spanning(rng, w.shape, lo, hi) for w in weights]
    for i in params:
        held[i][...] = moved[i]
    for w, moved_w in zip(weights, moved_weights):
        w[...] = moved_w
    # fit's setting, under which overflow and invalid do not warn; the
    # guarded pass sets its own.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            expected = _reduced(_property_tape(build, moved, sources, params), *moved_weights)
        except FloatingPointError as exc:
            with pytest.raises(FloatingPointError) as raised:
                tape.rerun(_vouch(held + weights))
            assert str(raised.value) == str(exc)
            return "raised"
        tape.rerun(_vouch(held + weights))
        assert len(tape) == len(expected)
        for i in range(len(tape)):
            np.testing.assert_array_equal(tape.value(i), expected.value(i))
        grads, want = tape.backward(_seed(tape, 0)), expected.backward(_seed(expected, 0))
    assert grads.keys() == want.keys()
    for name in grads:
        np.testing.assert_array_equal(grads[name], want[name])
    return "equal"


@pytest.mark.parametrize("kind", OP_KINDS)
class TestOpProperties:
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_backward_matches_the_unpruned_sweep_bitwise(self, kind, data):
        build, values = data.draw(_op_cases(kind))
        sources, params = _wiring(data.draw, values)
        weight_seed = data.draw(st.integers(0, 99))
        tape = _property_tape(build, values, sources, params)
        grads = tape.backward(_seed(tape, weight_seed))
        expected = reference_backward(tape, _seed(tape, weight_seed))
        assert grads.keys() == expected.keys()
        for name in grads:
            np.testing.assert_array_equal(grads[name], expected[name])

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_backward_agrees_with_finite_differences(self, kind, data):
        build, values = data.draw(_op_cases(kind))
        sources, params = _wiring(data.draw, values)
        tape = _property_tape(build, values, sources, params)
        weights = _seed(tape, data.draw(st.integers(0, 99)))
        grads = tape.backward(weights.copy())
        for target in params:

            def f(point, target=target):
                moved = list(values)
                moved[target] = point
                t = _property_tape(build, moved, sources, params)
                return float((weights * t.value(len(t) - 1)).sum())

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
        weight_seed = data.draw(st.integers(0, 99))
        tape = _property_tape(build, values, sources, params)
        recorded = [tape.value(i).copy() for i in range(len(tape))]
        grads = tape.backward(_seed(tape, weight_seed))
        again = tape.backward(_seed(tape, weight_seed))
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
    def test_backward_rules_return_contributions_that_share_no_memory(self, kind, data):
        """What backward's in-place accumulation rests on: for every op
        node on the tape, the gradients its rule forms, asked for every
        input, share no memory with one another, nor with any tape value
        or meta array. They may view the upstream gradient."""
        build, values = data.draw(_op_cases(kind))
        sources, params = _wiring(data.draw, values)
        tape = _property_tape(build, values, sources, params)
        nodes = tape._nodes
        held = [n.value for n in nodes] + [m for n in nodes for m in _meta_arrays(n.meta)]
        rng = np.random.default_rng(data.draw(st.integers(0, 99)))
        for _, node, ins, _ in tape._schedule:
            rule = diffcore._BACKWARD[node.op]
            contribs = rule(rng.normal(size=node.value.shape), node.value,
                            [n.value for n in ins], node.meta, (True,) * len(ins))
            formed = [c for c in contribs if c is not None]
            for i, c in enumerate(formed):
                assert not any(np.shares_memory(c, other) for other in formed[i + 1:]), node.op
                assert not any(np.shares_memory(c, x) for x in held), node.op

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
        assert _ops(tape) == []


    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_rerun_on_fresh_leaves_equals_a_fresh_recording_bitwise(self, kind, data):
        """A tape re-run after fresh values are written into its parameter
        arrays in place, as Adam writes a fit's groups, holds bitwise the
        node values and seeded gradients of a tape recorded on them, after
        a sweep of the old; its constants keep their values."""
        build, values = data.draw(_op_cases(kind))
        sources, params = _wiring(data.draw, values)
        weight_seed = data.draw(st.integers(0, 99))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        fresh = [_signed(rng, v.shape) if i in params else v for i, v in enumerate(values)]
        tape = _property_tape(build, values, sources, params)
        tape.backward(_seed(tape, weight_seed))
        for i in params:
            values[i][...] = fresh[i]
        tape.rerun(_vouch(values))
        expected = _property_tape(build, fresh, sources, params)
        assert len(tape) == len(expected)
        for i in range(len(tape)):
            np.testing.assert_array_equal(tape.value(i), expected.value(i))
        grads = tape.backward(_seed(tape, weight_seed))
        want = expected.backward(_seed(expected, weight_seed))
        assert grads.keys() == want.keys()
        for name in grads:
            np.testing.assert_array_equal(grads[name], want[name])

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_a_nan_leaf_on_rerun_raises_naming_the_op(self, kind, data):
        """A NaN written into a parameter in place: the vouch computed over
        the parameters fails, and the checked re-run names the op."""
        build, values = data.draw(_op_cases(kind))
        tape = Tape()
        build(tape, [tape.parameter(v, f"p{i}") for i, v in enumerate(values)])
        which = data.draw(st.integers(0, len(values) - 1))
        rows, cols = values[which].shape
        values[which][data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))] = np.nan
        with pytest.raises(FloatingPointError, match=f"non-finite values produced by op '{kind}'"):
            tape.rerun(_vouch(values))

    def test_a_guarded_rerun_equals_a_checked_recording_from_subnormals_to_1e308(self, kind):
        """A re-run on finite leaves whose magnitudes span the float64
        range either raises what a recording on them raises, or holds
        bitwise its values and gradients; the draws reach both."""
        outcomes = Counter()

        @PROPERTY_SETTINGS
        @given(data=st.data())
        def case(data):
            outcomes[_guarded_rerun_case(kind, data)] += 1

        case()
        assert outcomes.keys() == {"raised", "equal"}, outcomes


class TestRerun:
    def test_a_parameter_name_registered_twice_is_rejected(self):
        tape = Tape()
        tape.parameter(np.ones((1, 1)), "x")
        with pytest.raises(ValueError, match="^parameter 'x' registered twice on this tape$"):
            tape.parameter(np.ones((1, 1)), "x")

    def test_a_parameter_set_to_nan_in_place_raises_at_the_first_op_that_reads_it(self):
        """A parameter that is a view into a flat vector, as Adam's are,
        goes NaN in place. NaN passes through matmul and concat-rows with
        no floating-point flag, so only the vouch, computed over the
        parameters as forward_loss computes it over the groups, sends the
        re-run to the checked loop."""
        flat = np.linspace(0.5, 1.0, 6)
        tape = Tape()
        x = tape.concat_rows([tape.constant(np.ones((2, 3)))])
        tape.concat_rows([tape.matmul(x, tape.parameter(flat.reshape(3, 2), "w"))])
        flat[4] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite values produced by op 'matmul'"):
            tape.rerun(_vouch([flat]))

    def test_a_flag_raised_on_finite_values_changes_nothing(self, monkeypatch):
        """A rule that raises an overflow flag on a product it throws away
        sends the re-run to the checked loop, which gives bitwise the
        values and gradients of a recording, and the caller's numpy error
        settings are as they were."""
        rng = np.random.default_rng(3)
        x0, x1, w = (rng.normal(size=shape) for shape in ((4, 3), (4, 3), (3, 5)))

        def record(x):
            tape = Tape()
            h = tape.l2_normalize_rows(tape.matmul(tape.parameter(x, "x"), tape.parameter(w, "w")))
            tape.concat_rows([h])
            return tape

        expected = record(x1)
        tape = record(x0)
        concat, calls = diffcore._FORWARD["concat-rows"], []

        def flagging_concat(vals):
            calls.append(len(calls))
            np.multiply(np.full(2, 1e300), 1e300)  # overflows; thrown away
            return concat(vals)

        monkeypatch.setitem(diffcore._FORWARD, "concat-rows", flagging_concat)
        x0[...] = x1
        with np.errstate(over="ignore", invalid="ignore"):
            caller = np.geterr()
            tape.rerun(True)
            assert np.geterr() == caller
        assert len(calls) == 2  # the guarded pass, then the checked one
        for i in range(len(tape)):
            np.testing.assert_array_equal(tape.value(i), expected.value(i))
        grads, want = tape.backward(np.ones((4, 5))), expected.backward(np.ones((4, 5)))
        for name in "xw":
            np.testing.assert_array_equal(grads[name], want[name])

    def test_an_overflow_in_a_product_too_large_to_trust_its_flags_raises(self):
        """A BLAS may compute part of a large product on another thread,
        whose floating-point flags numpy never sees; with OpenBLAS on two
        threads, this product overflowing in its last entry alone raises
        none, and the guarded pass checks no op's value, so only the
        product's check of its own value names it."""
        n = 128
        assert n**3 > diffcore._SERIAL_PRODUCT
        w = np.full((n, n), 0.01)
        w[:, -1] = 1e154
        x = np.full((n, n), 0.01)
        tape = Tape()
        tape.matmul(tape.parameter(x, "x"), tape.parameter(w, "w"))
        x[-1] = 1e154
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match="produced by op 'matmul'"):
                tape.rerun(_vouch([x, w]))

    @staticmethod
    def _skipping_matmul(vals):
        """A one-row product that skips a's zero multipliers, standing in
        for a BLAS that does, as reference DGEMV does."""
        a, b = vals
        kept = a[0] != 0.0
        return a[:, kept].dot(b[kept]), None

    def test_a_non_finite_constant_makes_every_rerun_checked(self, monkeypatch):
        """A BLAS that skips zero multipliers, as reference DGEMV does,
        records a finite product of a fixed constant's inf row under a
        zero entry of a. A re-run whose a is nonzero there makes inf with
        no flag (inf times a finite nonzero is exact), so such a tape
        re-runs through the checked loop, though its caller vouches for
        every parameter. The patched product stands in for that BLAS."""
        monkeypatch.setitem(diffcore._FORWARD, "matmul", self._skipping_matmul)
        a = np.array([[1.0, 0.0]])
        tape = Tape()
        tape.matmul(tape.parameter(a, "a"), tape.constant(np.array([[1.0, 2.0], [np.inf, 3.0]])))
        a[...] = 1.0
        with pytest.raises(FloatingPointError, match="produced by op 'matmul'"):
            tape.rerun(_vouch([a]))

    @pytest.mark.parametrize("hidden", [np.nan, -np.inf], ids=["nan", "-inf"])
    def test_a_hidden_nan_or_minus_inf_constant_is_named_on_rerun(self, monkeypatch, hidden):
        """The guard holds for every non-finite constant, not inf alone: a
        quiet NaN propagates through a product with no flag, and -inf
        plus a finite value is exact, so a NaN or -inf row hidden under a
        zero multiplier at recording reaches the re-run's value unflagged
        unless the re-run takes the checked loop."""
        monkeypatch.setitem(diffcore._FORWARD, "matmul", self._skipping_matmul)
        a = np.array([[1.0, 0.0]])
        tape = Tape()
        tape.matmul(tape.parameter(a, "a"), tape.constant(np.array([[1.0, 2.0], [hidden, 3.0]])))
        np.testing.assert_array_equal(tape.value(len(tape) - 1), [[1.0, 2.0]])
        a[...] = 1.0
        with pytest.raises(FloatingPointError, match="produced by op 'matmul'"):
            tape.rerun(_vouch([a]))

    @staticmethod
    def _head(tape, x, w):
        """normalize(x @ w) for parameters "x" and "w"."""
        return tape.l2_normalize_rows(tape.matmul(tape.parameter(x, "x"), tape.parameter(w, "w")))

    @staticmethod
    def _tail(tape, h, v):
        """h @ v for a parameter "v"."""
        return tape.matmul(h, tape.parameter(v, "v"))

    def test_ops_recorded_after_a_rerun_are_rerun_and_differentiated(self):
        """Recording, not the first re-run, schedules an op: a tape that
        records more ops after a re-run re-runs them too, and backward
        reaches their parameters, bitwise as a fresh recording."""
        rng = np.random.default_rng(8)
        x, x1, x2 = (rng.normal(size=(4, 3)) for _ in range(3))
        w, v = rng.normal(size=(3, 5)), rng.normal(size=(5, 6))
        seed = rng.normal(size=(4, 6))
        tape = Tape()
        h = self._head(tape, x, w)
        x[...] = x1
        tape.rerun(True)
        self._tail(tape, h, v)
        x[...] = x2
        tape.rerun(True)
        fresh = Tape()
        self._tail(fresh, self._head(fresh, x2, w), v)
        assert len(tape) == len(fresh)
        for i in range(len(tape)):
            assert tape.value(i).tobytes() == fresh.value(i).tobytes(), i
        grads, expected = tape.backward(seed.copy()), fresh.backward(seed.copy())
        assert grads.keys() == expected.keys() == {"x", "w", "v"}
        for name in grads:
            assert grads[name].tobytes() == expected[name].tobytes(), name

    def test_leaves_not_written_keep_their_recorded_values(self):
        """Only x is written in place; w, a parameter, and the constant
        keep their recorded values."""
        x = np.array([[1.0, 2.0]])
        tape = Tape()
        w = tape.parameter(np.array([[3.0, 1.0], [4.0, 1.0]]), "w")
        scores = tape.matmul(tape.parameter(x, "x"), w)
        loss = tape.matmul(scores, tape.constant(np.array([[2.0], [0.5]])))
        x[...] = [[5.0, 6.0]]
        tape.rerun(True)
        np.testing.assert_array_equal(tape.value(scores), [[5.0 * 3.0 + 6.0 * 4.0, 11.0]])
        np.testing.assert_array_equal(tape.value(loss), [[39.0 * 2.0 + 11.0 * 0.5]])


class TestGuarded:
    """diffcore.guarded, the flag guard of closed-form code off the tape."""

    def test_finite_operands_take_one_pass_that_checks_nothing(self):
        checks = []

        def forward(check):
            checks.append(check)
            check(np.array([[np.nan]]), "matmul")  # the guarded pass checks nothing
            return "value"

        assert diffcore.guarded(forward, True) == "value"
        assert len(checks) == 1

    def test_a_raised_flag_runs_the_checked_pass_under_the_callers_settings(self):
        """A flag raised on finite values costs a second, checked pass and
        changes nothing: its result is returned, and the caller's numpy
        error settings are as they were."""
        passes = []

        def forward(check):
            passes.append(np.geterr()["over"])
            product = np.multiply(np.full(2, 1e300), 1e300)  # overflows
            check(np.ones((1, 1)), "matmul")
            return product

        with np.errstate(over="ignore", invalid="ignore"):
            caller = np.geterr()
            np.testing.assert_array_equal(diffcore.guarded(forward, True), [np.inf, np.inf])
            assert np.geterr() == caller
        assert passes == ["raise", "ignore"]

    def test_operands_not_vouched_finite_are_checked_at_the_first_non_finite_step(self):
        def forward(check):
            a = np.array([[1.0, np.nan]])
            check(a, "add")
            raise AssertionError("the check should have raised")

        with pytest.raises(FloatingPointError, match="^non-finite values produced by op 'add'$"):
            diffcore.guarded(forward, operands_finite=False)


_finite = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=5),
    elements=st.floats(-1e6, 1e6, allow_subnormal=False),
)


class TestForwardFormulas:
    """The forward rules against the plain numpy formulas they replace,
    bitwise, on arbitrary finite values."""

    @pytest.mark.parametrize("b_transposed", (False, True), ids=["b", "b-transposed"])
    @pytest.mark.parametrize("a_transposed", (False, True), ids=["a", "a-transposed"])
    @pytest.mark.parametrize(
        "shape, zeros",
        ((None, False), ((1, 100, 32), False), ((100, 1, 32), False), ((64, 64, 20), False),
         ((1, 40, 8), True)),
        ids=["small", "1x100x32", "100x1x32", "64x64x20", "1x40x8-with-zeros"],
    )
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_matmul_and_its_gradients_equal_the_at_operator(self, shape, zeros, a_transposed,
                                                            b_transposed, data):
        """The matmul rules use ndarray.dot. The value and both gradients
        of an (m x k)(k x n) product equal a @ b, g @ b.T and a.T @ g
        bitwise, for m, k, n in 1..8 and for the model's rank-selector,
        outer-product and similarity shapes, each operand C-contiguous or
        a transposed view. Every product takes the same dense path: a
        one-row a with exact zeros, the shape of a text-encoder pooling
        row, equals a @ b too. The sweep is seeded with the product's
        adjoint under the loss u @ (a @ b) @ v, g = u.T @ v.T."""
        m, k, n = shape or data.draw(st.tuples(*[st.integers(1, 8)] * 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def operand(rows, cols, transposed):
            return rng.normal(size=(cols, rows)).T if transposed else rng.normal(size=(rows, cols))

        a, b = operand(m, k, a_transposed), operand(k, n, b_transposed)
        if zeros:
            a[0, rng.permutation(k)[: rng.integers(1, k + 1)]] = 0.0
        u, v = rng.normal(size=(1, m)), rng.normal(size=(n, 1))
        g = u.T @ v.T
        tape = Tape()
        product = tape.matmul(tape.parameter(a, "a"), tape.parameter(b, "b"))
        grads = tape.backward(g.copy())
        np.testing.assert_array_equal(tape.value(product), a @ b)
        np.testing.assert_array_equal(grads["a"], g @ b.T)
        np.testing.assert_array_equal(grads["b"], a.T @ g)

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
