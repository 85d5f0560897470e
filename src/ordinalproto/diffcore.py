"""Reverse-mode automatic differentiation over dense float64 matrices.

Everything is a 2-D matrix (scalars are 1x1). A :class:`Tape` records
primitive operations in topological order as they are evaluated; forward
values are computed eagerly and kept on the tape. :meth:`Tape.backward`
walks the record once, in reverse, and returns gradients of a scalar loss
for every named parameter.

The tape does only the work a parameter gradient needs:

- Pruning. Each node records whether any parameter reaches it. The
  reverse sweep runs a backward rule only for such an op node that holds
  an adjoint, and tells the rule which of its inputs want a gradient, so
  a rule never forms the gradient of a constant operand.
- In-place adjoints. A node's first contribution is adopted as is, and
  each later one is added into it in place: no backward rule returns two
  contributions that share memory, or one that shares a tape value's,
  and one that views the rule's upstream gradient views the adjoint of a
  node the sweep has passed. Each parameter's gradient is then written
  into its own output array, the caller's (a training step passes views
  of one flat gradient vector) or a fresh one, so returned gradients
  never alias one another or any buffer of the tape.
- Cheap recording. `Tape.record` finds the forward rule with one dict
  lookup, checks each input index while gathering the input nodes, and
  stores no per-node metadata an op does not produce.
- One schedule. `Tape.record` also appends each op to the tape's
  schedule: its index, its node, its input nodes, and the position and
  index of each input that wants a gradient. Both passes of `Tape.rerun`
  and the reverse sweep of `Tape.backward` walk the schedule, so they
  visit no leaf, look up no input by index, and touch no input that
  wants no gradient. Each rule is still looked up by op kind when it
  runs. Recording builds the schedule, so an op recorded after a re-run
  is re-run and differentiated too.
- A closed-form tail. The image encoder, the scores and the losses are
  fixed numpy functions off the tape (encoders, matching), and a training
  step differentiates them by hand. `Tape.backward` takes their adjoint
  of the tape's last value as its seed, so the tape holds only the prompt
  head, the graph the prompt methods learn.
- Finiteness. Recording checks every value it records with one BLAS
  sum of squares, tested as a Python float with `math.isfinite`; the
  sum is non-finite whenever an entry is. Only a non-finite sum, from
  such an entry or from overflow on huge finite entries, pays for the
  full entrywise scan, so an op raises exactly when its value has a
  non-finite entry. A re-run checks its named
  leaves, the only values that can have changed, and then runs every op
  once with numpy's overflow, invalid and divide-by-zero flags set to
  raise, checking no op's value but a large product's (_SERIAL_PRODUCT).
  That is sound: every operand of the pass is then finite, and from
  finite operands an op makes a non-finite value only by raising one of
  those flags. Recording checks op values, not an unnamed constant, and
  an op can make a finite value of a non-finite operand: a BLAS that
  skips zero multipliers, as reference DGEMV does, never forms 0 x inf.
  So each unnamed constant, which is fixed, is checked once, when it is
  recorded. A non-finite leaf, or a raised flag, sends the re-run back
  to the top with recording's check after every op, so it raises exactly
  where and what recording would; a flag raised on finite values costs
  that second pass and changes no value. `guarded` runs the two passes,
  for a re-run and for code off the tape such as the closed-form tail.

None of this changes a forward value or a parameter gradient, bitwise.

Every value an op reads is an input node, so a node's value is a function
of its inputs' values alone, and a recorded tape can be run again:
`Tape.rerun` rebinds named leaves and re-evaluates every op in place, in
recorded order, giving bitwise the values and gradients of a tape recorded
on the new values. A tape is single-threaded; distinct tapes share no
mutable state and may live on distinct threads.
"""

from __future__ import annotations

import math

import numpy as np

def _as_matrix(array) -> np.ndarray:
    a = np.asarray(array, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def all_finite(value: np.ndarray) -> bool:
    """Whether every entry of value is finite."""
    # vdot sets no numpy floating-point flag, so an overflowing sum of
    # finite entries neither warns nor raises; it only falls through to
    # the exact scan. Its result is a float64 scalar, which math.isfinite
    # tests without a ufunc call.
    return math.isfinite(np.vdot(value, value)) or bool(np.isfinite(value).all())


def check_finite(value, op: str) -> None:
    """Raise FloatingPointError naming `op` unless every entry of value, an
    array or a loss's float, is finite: recording's check of each op
    value."""
    if not all_finite(value):
        raise FloatingPointError(f"non-finite values produced by op '{op}'")


class _Node:
    """One tape entry.

    `wants[k]` is whether input k needs a gradient (a parameter reaches
    it); `needs_grad` is whether this node does. `meta` is whatever the
    forward rule returned for its backward rule, or None. An op node's
    inputs are held by its entry in the tape's schedule.
    """

    __slots__ = ("op", "value", "meta", "wants", "needs_grad")

    def __init__(self, op, value, meta=None, wants=(), needs_grad=False):
        self.op = op
        self.value = value
        self.meta = meta
        self.wants = wants
        self.needs_grad = needs_grad


class Tape:
    """Forward evaluation record supporting one reverse sweep.

    Node references are plain integer indices into the tape, which makes
    the topological-order invariant automatic: an op can only consume
    indices that already exist.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        # One (index, node, input nodes, (position, input index) of each
        # input that wants a gradient) per op, in recorded order: what
        # rerun and backward walk.
        self._schedule: list[tuple] = []
        self._params: dict[str, int] = {}
        # Every named leaf, parameter or constant, by name: what rerun rebinds.
        self._leaves: dict[str, int] = {}
        # Whether every unnamed constant is finite: rerun's flag guard needs it.
        self._constants_finite = True

    def __len__(self) -> int:
        return len(self._nodes)

    # -- leaves ----------------------------------------------------------

    def constant(self, array, name: str | None = None) -> int:
        """A node that never receives a gradient; a named one can be rebound
        by rerun, and an unnamed one is fixed. An unnamed one is checked
        for finiteness once, here, for rerun's flag guard: an op's
        recorded value need not show that its operand is non-finite (see
        rerun)."""
        value = _as_matrix(array)
        if name is None and not all_finite(value):
            self._constants_finite = False
        return self._append(_Node("constant", value), name)

    def parameter(self, array, name: str) -> int:
        """A trainable leaf; its gradient appears in backward() under `name`."""
        idx = self._append(_Node("parameter", _as_matrix(array), needs_grad=True), name)
        self._params[name] = idx
        return idx

    def value(self, node: int) -> np.ndarray:
        return self._nodes[node].value

    def _append(self, node: _Node, name: str | None) -> int:
        idx = len(self._nodes)
        if name is not None:
            if name in self._leaves:
                raise ValueError(f"leaf {name!r} registered twice on this tape")
            self._leaves[name] = idx
        self._nodes.append(node)
        return idx

    # -- recording -------------------------------------------------------

    def record(self, op_kind: str, inputs) -> int:
        """Record one primitive, computing and storing its forward value.

        `inputs` is a sequence of node references, and the op reads nothing
        else: a fixed operand, such as a pooling row, is a constant.
        """
        forward = _FORWARD.get(op_kind)
        if forward is None:
            raise ValueError(f"unknown op kind {op_kind!r}; valid kinds: {OP_KINDS}")
        nodes = self._nodes
        idx = len(nodes)
        in_nodes, wanted = [], []
        for k, i in enumerate(map(int, inputs)):
            if not 0 <= i < idx:
                raise ValueError(f"input node {i} not on tape")
            in_nodes.append(nodes[i])
            if nodes[i].needs_grad:
                wanted.append((k, i))
        value, meta = forward([n.value for n in in_nodes])
        check_finite(value, op_kind)
        node = _Node(op_kind, value, meta, tuple([n.needs_grad for n in in_nodes]), bool(wanted))
        nodes.append(node)
        self._schedule.append((idx, node, tuple(in_nodes), tuple(wanted)))
        return idx

    def rerun(self, leaves: dict) -> None:
        """Evaluate the recorded ops again, in place, on new leaf values.

        `leaves` maps leaf names (parameters, named constants) to values of
        the recorded shapes; every other leaf keeps its value. Each op
        reruns the forward rule of `record`, in recorded order, on its
        inputs' values, which are all it reads, and the re-run ends with
        the values, or raises the error, of a recording on these leaves:

        - If every named leaf is finite, and every unnamed constant was
          when recorded, one pass runs the rules with numpy's overflow,
          invalid and divide-by-zero flags raising, and checks no value.
          Its operands are all finite, and from finite operands an op
          makes a non-finite value only by raising one of those flags
          (a product too large to trust them for checks its own value,
          see _SERIAL_PRODUCT). The leaves are checked because NaN
          passes through `dot` with no flag, and because a parameter may
          have changed in place, as a training step's Adam views do. The
          unnamed constants are checked too, because a recorded op may
          have hidden a non-finite one: a BLAS that skips zero
          multipliers, as reference DGEMV does, records a finite product
          of an inf row that the re-run's multiplier then reads, and
          inf times a finite nonzero raises no flag.
        - Otherwise, or when that pass raises FloatingPointError, the ops
          run again from the top with recording's finiteness check after
          each, which names the first op whose value is non-finite. A flag
          raised on finite values costs only that second pass.

        These are `guarded`'s two passes.

        A failed re-run leaves the tape part-updated. The graph is
        unchanged, so backward needs no change.
        """
        nodes = self._nodes
        for name, array in leaves.items():
            node, value = nodes[self._leaves[name]], _as_matrix(array)
            if value.shape != node.value.shape:
                raise ValueError(f"leaf {name!r} has shape {value.shape}; "
                                 f"the tape recorded {node.value.shape}")
            node.value = value

        def forward(check):
            for _, node, ins, _ in self._schedule:
                node.value, node.meta = _FORWARD[node.op]([n.value for n in ins])
                check(node.value, node.op)

        guarded(forward, self._constants_finite
                and all(all_finite(nodes[i].value) for i in self._leaves.values()))

    # Convenience wrappers, one per primitive.

    def matmul(self, a: int, b: int) -> int:
        return self.record("matmul", (a, b))

    def l2_normalize_rows(self, a: int) -> int:
        return self.record("l2-normalize-rows", (a,))

    def concat_rows(self, nodes) -> int:
        return self.record("concat-rows", tuple(nodes))

    # -- reverse sweep ----------------------------------------------------

    def backward(self, loss_node: int, out: dict[str, np.ndarray] | None = None,
                 seed: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. every registered parameter.

        Parameters the loss does not reach get exact-zero gradients of the
        parameter's shape. One walk down the schedule runs the rule of each
        op node that a parameter reaches and that holds an adjoint, forming
        only the gradients its `wants` flags ask for; adjoints accumulate
        in place (the module docstring says why). `loss_node` may be any
        1x1 node, not only the last op.

        With `seed`, an array of the node's shape, `loss_node` may have any
        shape: the gradients are those of <seed, value of loss_node>, the
        loss a caller off the tape differentiates with adjoint `seed` of
        that value. The seed becomes the node's adjoint, and the sweep may
        add into it, so the caller passes an array it no longer needs.

        Each gradient is written into `out[name]`, an array of the
        parameter's shape (a training step passes views of one flat
        gradient vector), and `out` is returned. Without `out` the arrays
        are fresh, so the returned gradients are the caller's own.
        """
        nodes = self._nodes
        shape = nodes[loss_node].value.shape
        if seed is None and shape != (1, 1):
            raise ValueError(f"loss node must be 1x1, got shape {shape}")
        if seed is not None and seed.shape != shape:
            raise ValueError(f"seed has shape {seed.shape}; the loss node has {shape}")
        adjoint: list[np.ndarray | None] = [None] * len(nodes)
        adjoint[loss_node] = np.ones((1, 1)) if seed is None else seed
        # An op after the loss node holds no adjoint: each adjoint flows to
        # inputs, which precede their op.
        for idx, node, ins, wanted in reversed(self._schedule):
            g = adjoint[idx]
            if g is None or not wanted:
                continue
            contribs = _BACKWARD[node.op](g, node.value, [n.value for n in ins], node.meta,
                                          node.wants)
            for k, inp in wanted:
                contrib = contribs[k]
                if contrib is None:
                    continue
                if adjoint[inp] is None:
                    adjoint[inp] = contrib
                else:
                    adjoint[inp] += contrib
        if out is None:
            out = {name: np.empty_like(nodes[idx].value) for name, idx in self._params.items()}
        for name, idx in self._params.items():
            g = adjoint[idx]
            out[name][...] = 0.0 if g is None else g
        return out


# ---------------------------------------------------------------------------
# forward rules: input values -> (value, meta), and the closed-form
# functions off the tape that share them


def _shape_err(op, shapes):
    return ValueError(f"{op}: incompatible shapes {shapes}")


# A BLAS may split a product across threads, and a floating-point flag
# raised on another thread never reaches numpy. With OpenBLAS 0.3.31 on two
# threads, an overflow confined to the last entries of a one-row or
# one-column product of 5.0e5 multiply-adds, or of a 115 x 115 x 115
# product (1.5e6), raised no flag. A product of more multiply-adds than
# this bound, several times below those, checks its own value, so no
# product escapes the flag guard of Tape.rerun or `guarded`.
_SERIAL_PRODUCT = 1 << 16


def _fwd_matmul(vals):
    a, b = vals
    if a.shape[1] != b.shape[0]:
        raise _shape_err("matmul", (a.shape, b.shape))
    # ndarray.dot is the same BLAS product as @, bitwise, with less dispatch
    # on tiny operands; the backward rule below uses it for the same reason.
    value = a.dot(b)
    if a.size * b.shape[1] > _SERIAL_PRODUCT:
        check_finite(value, "matmul")
    return value, None


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as the matmul op computes it, its shape and large-product
    checks included, for the closed-form code off the tape."""
    return _fwd_matmul((a, b))[0]


def add_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b for a 1 x k row b, broadcast over the rows of a, added into a
    in place: a bias, in closed-form code off the tape."""
    if b.shape != (1, a.shape[1]):
        raise _shape_err("add", (a.shape, b.shape))
    a += b
    return a


def l2_normalize_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a with each row scaled to unit norm, the row norms): the value and
    meta of the l2-normalize-rows op. A zero row raises ValueError."""
    # What np.linalg.norm(a, axis=1, keepdims=True) computes for real
    # input, without its dispatch. A row whose sum of squares overflows to
    # inf, or underflows to 0 without being zero, is redone below; the
    # norm of every other row is exactly this one.
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(a * a, axis=1, keepdims=True))
    if norms.min() > 0.0 and norms.max() < np.inf:
        return a / norms, norms
    bad = np.flatnonzero((norms.ravel() == 0.0) | (norms.ravel() == np.inf))
    rows = a[bad]
    scale = np.abs(rows).max(axis=1, keepdims=True)
    zero = np.flatnonzero(scale.ravel() == 0.0)
    if zero.size:
        raise ValueError(f"l2-normalize-rows: row {bad[zero[0]]} is the zero vector")
    rows = rows / scale
    unit_norms = np.sqrt(np.add.reduce(rows * rows, axis=1, keepdims=True))
    with np.errstate(over="ignore"):
        norms[bad] = scale * unit_norms  # inf when the norm itself overflows
    out = a / norms
    out[bad] = rows / unit_norms
    return out, norms


def l2_normalize_rows_grad(g: np.ndarray, y: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The gradient of l2_normalize_rows's input, for upstream gradient g,
    output y and row norms `norms`: (g - rowsum(g * y) y) / norms."""
    inner = (g * y).sum(axis=1, keepdims=True)
    return (g - inner * y) / norms


def _fwd_l2_normalize_rows(vals):
    return l2_normalize_rows(vals[0])


def _fwd_concat_rows(vals):
    cols = {v.shape[1] for v in vals}
    if len(vals) == 0 or len(cols) != 1:
        raise _shape_err("concat-rows", [v.shape for v in vals])
    return np.concatenate(vals), None


_FORWARD = {
    "matmul": _fwd_matmul,
    "l2-normalize-rows": _fwd_l2_normalize_rows,
    "concat-rows": _fwd_concat_rows,
}

# Op kinds accepted by Tape.record: the ones the prompt head records. A
# test records the prompt head of each method and checks that the kinds it
# records are exactly these.
OP_KINDS = tuple(_FORWARD)


def _unchecked(value, op) -> None:
    pass


def guarded(forward, operands_finite: bool):
    """forward(check) under the flag guard: Tape.rerun's passes, and those
    of closed-form code off the tape. `forward` calls check(value, op)
    after each step that can make a non-finite value of finite operands,
    naming the op the step computes.

    If the caller vouches that every operand is finite, one pass runs
    with numpy's overflow, invalid and divide-by-zero flags raising and a
    check that checks nothing; a product past _SERIAL_PRODUCT still
    checks its own value (matmul). Otherwise, or when that pass raises
    FloatingPointError, forward runs again under the caller's settings
    with recording's finiteness check, so it raises naming the first
    non-finite step, as a tape recording them would. Returns what forward
    returns.
    """
    if operands_finite:
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return forward(_unchecked)
        except FloatingPointError:
            pass
    return forward(check_finite)


# ---------------------------------------------------------------------------
# backward rules: (upstream grad, forward value, input values, meta, wants)
#   -> one gradient (or None) per input. wants[k] says whether input k
#   needs one; a rule forms no gradient for an input that does not. A
#   rule runs only for a node that needs a gradient, so a single-input
#   rule's input always does. Returned gradients share no memory with each
#   other or any tape value.


def _bwd_matmul(g, out, ins, meta, wants):
    a, b = ins
    return (g.dot(b.T) if wants[0] else None, a.T.dot(g) if wants[1] else None)


def _bwd_l2_normalize_rows(g, y, ins, meta, wants):
    return (l2_normalize_rows_grad(g, y, meta),)


def _bwd_concat_rows(g, out, ins, meta, wants):
    grads, start = [], 0
    for part, want in zip(ins, wants):
        grads.append(g[start:start + len(part)] if want else None)
        start += len(part)
    return tuple(grads)


_BACKWARD = {
    "matmul": _bwd_matmul,
    "l2-normalize-rows": _bwd_l2_normalize_rows,
    "concat-rows": _bwd_concat_rows,
}
