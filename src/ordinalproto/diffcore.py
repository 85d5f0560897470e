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
- Fused losses. The two training objectives are single op kinds with
  closed-form gradients; the tape has no softmax, KL or scale node.
  `clip-kl` is CLIP's symmetric image-text objective with KL in place of
  cross-entropy; `softmax-xent` is the cross-entropy. Both read a B x 1
  column of rank indices, not a one-hot matrix: a one-hot matrix's support
  in row-major order is [rows, labels], so a rule that gathers there adds
  the one-hot formula's terms in its order, and equals it bitwise. Both take
  log-probabilities as `shifted - log(sum(exp(shifted)))`, at the labelled
  entries only, which is finite wherever the scores are, so no probability
  that underflows to zero can make the loss undefined. They keep the
  exponentials and their sums; the backward rules form the probabilities.
- Finiteness. Recording checks every value it records with one BLAS
  sum of squares, tested as a Python float with `math.isfinite`; the
  sum is non-finite whenever an entry is. Only a non-finite sum, from
  such an entry or from overflow on huge finite entries, pays for the
  full entrywise scan, so an op raises exactly when its value has a
  non-finite entry. The fused losses check their scores the same way:
  a non-finite score in a column no label reads can leave the loss
  finite but make its gradient NaN. A re-run checks its named
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
  that second pass and changes no value.

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


def _check_finite(value: np.ndarray, op: str) -> None:
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
        else: a fixed operand, such as a loss's labels, is a constant.
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
        _check_finite(value, op_kind)
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
        if self._constants_finite and all(all_finite(nodes[i].value) for i in self._leaves.values()):
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    for _, node, ins, _ in self._schedule:
                        node.value, node.meta = _FORWARD[node.op]([n.value for n in ins])
                return
            except FloatingPointError:
                pass
        for _, node, ins, _ in self._schedule:
            node.value, node.meta = _FORWARD[node.op]([n.value for n in ins])
            _check_finite(node.value, node.op)

    # Convenience wrappers, one per primitive.

    def matmul(self, a: int, b: int) -> int:
        return self.record("matmul", (a, b))

    def add(self, a: int, b: int) -> int:
        """a + b for a 1 x k row b, broadcast over the rows of a."""
        return self.record("add", (a, b))

    def l2_normalize_rows(self, a: int) -> int:
        return self.record("l2-normalize-rows", (a,))

    def concat_rows(self, nodes) -> int:
        return self.record("concat-rows", tuple(nodes))

    def transpose(self, a: int) -> int:
        return self.record("transpose", (a,))

    def tanh(self, a: int) -> int:
        return self.record("tanh", (a,))

    def clip_kl(self, scores: int, labels: int, temperature: int) -> int:
        """Symmetric KL loss of a B x C score table, a 1x1 node.

        0.5/B * sum_i KL(Y_i || softmax_row(S/t)_i)
          + 0.5/nz * sum_j KL(Yc_j || softmax_col(S/t)_j)

        over the B rows and the nz labelled columns, where Y is the one-hot
        matrix of the B x 1 `labels` node of rank indices, Yc is Y with each
        labelled column scaled to sum 1, and t is the 1x1 `temperature`
        node; only S gets a gradient.
        """
        return self.record("clip-kl", (scores, labels, temperature))

    def softmax_xent(self, logits: int, labels: int) -> int:
        """Mean over the B rows of -log softmax(L_i) at the row's label, for
        a B x 1 `labels` node as in clip_kl, a 1x1 node: the cross-entropy.
        Only the logits get a gradient."""
        return self.record("softmax-xent", (logits, labels))

    # -- reverse sweep ----------------------------------------------------

    def backward(self, loss_node: int, out: dict[str, np.ndarray] | None = None
                 ) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. every registered parameter.

        Parameters the loss does not reach get exact-zero gradients of the
        parameter's shape. One walk down the schedule runs the rule of each
        op node that a parameter reaches and that holds an adjoint, forming
        only the gradients its `wants` flags ask for; adjoints accumulate
        in place (the module docstring says why). `loss_node` may be any
        1x1 node, not only the last op.

        Each gradient is written into `out[name]`, an array of the
        parameter's shape (a training step passes views of one flat
        gradient vector), and `out` is returned. Without `out` the arrays
        are fresh, so the returned gradients are the caller's own.
        """
        nodes = self._nodes
        loss = nodes[loss_node]
        if loss.value.shape != (1, 1):
            raise ValueError(f"loss node must be 1x1, got shape {loss.value.shape}")
        adjoint: list[np.ndarray | None] = [None] * len(nodes)
        adjoint[loss_node] = np.ones((1, 1))
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
# forward rules: input values -> (value, meta)


def _shape_err(op, shapes):
    return ValueError(f"{op}: incompatible shapes {shapes}")


# A BLAS may split a product across threads, and a floating-point flag
# raised on another thread never reaches numpy. With OpenBLAS 0.3.31 on two
# threads, an overflow confined to the last entries of a one-row or
# one-column product of 5.0e5 multiply-adds, or of a 115 x 115 x 115
# product (1.5e6), raised no flag. A product of more multiply-adds than
# this bound, several times below those, checks its own value, so no
# product escapes Tape.rerun's flag guard.
_SERIAL_PRODUCT = 1 << 16


def _fwd_matmul(vals):
    a, b = vals
    if a.shape[1] != b.shape[0]:
        raise _shape_err("matmul", (a.shape, b.shape))
    # ndarray.dot is the same BLAS product as @, bitwise, with less dispatch
    # on tiny operands; the backward rule below uses it for the same reason.
    value = a.dot(b)
    if a.size * b.shape[1] > _SERIAL_PRODUCT:
        _check_finite(value, "matmul")
    return value, None


def _fwd_add(vals):
    a, b = vals
    if b.shape != (1, a.shape[1]):
        raise _shape_err("add", (a.shape, b.shape))
    return a + b, None


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of a plain array along `axis`: the probabilities the fused
    losses' backward rules form, and the one softmax the package computes."""
    _, e, total = _exp_shifted(x, axis)
    return e / total


def _exp_shifted(x, axis):
    """(shifted, exp(shifted), its sum) along `axis`, shifted = x less its
    max. The log-softmax is shifted - log(sum), the log taken of the sum
    only, so it is finite wherever x is, even where the softmax e / sum
    itself underflows to zero."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=axis, keepdims=True)


def _fwd_l2_normalize_rows(vals):
    (a,) = vals
    # What np.linalg.norm(a, axis=1, keepdims=True) computes for real
    # input, without its dispatch. A row whose sum of squares overflows to
    # inf, or underflows to 0 without being zero, is redone below; the
    # norm of every other row is exactly this one.
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce(a * a, axis=1, keepdims=True))
    if norms.min() > 0.0 and norms.max() < np.inf:
        return a / norms, {"norms": norms}
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
    return out, {"norms": norms}


def _check_labels(op, scores, labels):
    """(rows, rank index per row) of B x C scores and a B x 1 label column
    of integers in [0, C), after the scores' finiteness check."""
    _check_finite(scores, op)
    rows, ranks = scores.shape
    if labels.shape != (rows, 1) or rows == 0:
        raise _shape_err(op, (scores.shape, labels.shape))
    lab = labels.ravel()
    # NaN and +-inf fail the range test, so the cast sees only finite values.
    if not ((lab >= 0.0).all() and (lab < ranks).all() and (lab == np.floor(lab)).all()):
        raise ValueError(f"{op}: labels must be integers in [0, {ranks})")
    return np.arange(rows), lab.astype(np.intp)


def _fwd_clip_kl(vals):
    """See Tape.clip_kl. Gradient with respect to the scores S:

        (0.5/(B t)) (P_row - Y) + (0.5/(nz t)) (P_col * mask - Yc)

    where mask marks the labelled columns. Y and Yc (1 / the label's row
    count) are nonzero only at [rows, lab], so the rules touch only those.
    """
    s, labels, temperature = vals
    t = temperature.item()  # raises unless the node is 1x1
    if not t > 0:
        raise ValueError(f"softmax temperature must be positive, got {t}")
    rows, lab = _check_labels("clip-kl", s, labels)
    counts = np.bincount(lab, minlength=s.shape[1])
    mask = counts[None] > 0
    yc = 1.0 / counts[lab]
    z = s / t
    shifted_row, e_row, sum_row = _exp_shifted(z, axis=1)
    shifted_col, e_col, sum_col = _exp_shifted(z, axis=0)
    # The log-probabilities at the labels alone: entry [i, lab[i]] of
    # shifted - log(sum), bitwise.
    log_row = shifted_row[rows, lab] - np.log(sum_row).ravel()
    log_col = shifted_col[rows, lab] - np.log(sum_col).ravel()[lab]
    w_row = 0.5 / s.shape[0]
    w_col = 0.5 / np.count_nonzero(mask)
    # Each KL sum adds y * (log y - log q) at the labels, log 1 being 0.0.
    # Both weights are at most 1/2, so this sum of two finite Python floats
    # cannot overflow: Tape.rerun's flag guard needs no flag from it.
    total = (w_row * float(np.sum(0.0 - log_row))
             + w_col * float(np.sum(yc * (np.log(yc) - log_col))))
    meta = (t, w_row, w_col, rows, lab, yc, mask, e_row, sum_row, e_col, sum_col)
    return np.array([[total]]), meta


def _fwd_softmax_xent(vals):
    """See Tape.softmax_xent. Gradient: (P - Y) / B, Y the one-hot labels."""
    logits, labels = vals
    rows, lab = _check_labels("softmax-xent", logits, labels)
    shifted, e, total = _exp_shifted(logits, axis=1)
    log_p = shifted[rows, lab] - np.log(total).ravel()  # as in _fwd_clip_kl
    weight = 1.0 / logits.shape[0]
    return np.array([[float(np.sum(0.0 - log_p)) * weight]]), (weight, rows, lab, e, total)


def _fwd_concat_rows(vals):
    cols = {v.shape[1] for v in vals}
    if len(vals) == 0 or len(cols) != 1:
        raise _shape_err("concat-rows", [v.shape for v in vals])
    return np.concatenate(vals), None


def _fwd_transpose(vals):
    return vals[0].T.copy(), None


def _fwd_tanh(vals):
    return np.tanh(vals[0]), None


_FORWARD = {
    "matmul": _fwd_matmul,
    "add": _fwd_add,
    "l2-normalize-rows": _fwd_l2_normalize_rows,
    "concat-rows": _fwd_concat_rows,
    "transpose": _fwd_transpose,
    "tanh": _fwd_tanh,
    "clip-kl": _fwd_clip_kl,
    "softmax-xent": _fwd_softmax_xent,
}

# Op kinds accepted by Tape.record. "tanh" and "transpose" extend the core
# matrix set: the first for the image-encoder nonlinearity, the second so a
# similarity of the form X @ Y.T is expressible. "clip-kl" and
# "softmax-xent" are whole losses, each one node with a closed-form
# gradient (see _fwd_clip_kl and _fwd_softmax_xent). Every kind is one the
# model records; a test runs forward_loss for each method and checks that
# the kinds it records are exactly these.
OP_KINDS = tuple(_FORWARD)


# ---------------------------------------------------------------------------
# backward rules: (upstream grad, forward value, input values, meta, wants)
#   -> one gradient (or None) per input. wants[k] says whether input k
#   needs one; a rule forms no gradient for an input that does not. A
#   rule runs only for a node that needs a gradient, so a single-input
#   rule's input always does. A loss gives its labels and temperature None.
#   Returned gradients share no memory with each other or any tape value.


def _bwd_matmul(g, out, ins, meta, wants):
    a, b = ins
    return (g.dot(b.T) if wants[0] else None, a.T.dot(g) if wants[1] else None)


def _bwd_add(g, out, ins, meta, wants):
    return (g if wants[0] else None, g.sum(axis=0, keepdims=True) if wants[1] else None)


def _bwd_l2_normalize_rows(g, y, ins, meta, wants):
    norms = meta["norms"]
    inner = (g * y).sum(axis=1, keepdims=True)
    return ((g - inner * y) / norms,)


def _bwd_clip_kl(g, out, ins, meta, wants):
    t, w_row, w_col, rows, lab, yc, mask, e_row, sum_row, e_col, sum_col = meta
    scale = g[0, 0] / t
    row = e_row / sum_row
    row[rows, lab] -= 1.0
    col = e_col / sum_col * mask
    col[rows, lab] -= yc
    return ((scale * w_row) * row + (scale * w_col) * col, None, None)


def _bwd_softmax_xent(g, out, ins, meta, wants):
    weight, rows, lab, e, total = meta
    grad = e / total
    grad[rows, lab] -= 1.0
    grad *= g[0, 0] * weight
    return (grad, None)


def _bwd_concat_rows(g, out, ins, meta, wants):
    grads, start = [], 0
    for part, want in zip(ins, wants):
        grads.append(g[start:start + len(part)] if want else None)
        start += len(part)
    return tuple(grads)


def _bwd_transpose(g, out, ins, meta, wants):
    return (g.T.copy(),)


def _bwd_tanh(g, y, ins, meta, wants):
    return (g * (1.0 - y * y),)


_BACKWARD = {
    "matmul": _bwd_matmul,
    "add": _bwd_add,
    "l2-normalize-rows": _bwd_l2_normalize_rows,
    "concat-rows": _bwd_concat_rows,
    "transpose": _bwd_transpose,
    "tanh": _bwd_tanh,
    "clip-kl": _bwd_clip_kl,
    "softmax-xent": _bwd_softmax_xent,
}
