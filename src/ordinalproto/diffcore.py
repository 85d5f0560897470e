"""Reverse-mode automatic differentiation over dense float64 matrices.

Everything is a 2-D matrix (scalars are 1x1). A :class:`Tape` records
primitive operations in topological order as they are evaluated; forward
values are computed eagerly and kept on the tape. :meth:`Tape.backward`
walks the record once, in reverse, and returns gradients of a scalar loss
for every named parameter.

The tape does only the work a parameter gradient needs:

- Pruning. Each node records whether any parameter reaches it. The
  reverse sweep visits only such nodes, and tells each backward rule
  which of its inputs want a gradient, so a rule never forms the
  gradient of a constant operand.
- Borrowed adjoints. The first contribution to a node's adjoint is
  adopted as is; a copy is made only when a second contribution is
  accumulated into a borrowed buffer. Returned gradients never alias
  one another or any buffer of the tape.
- Cheap recording. `Tape.record` finds the forward rule with one dict
  lookup, checks each input index while gathering the input nodes, and
  stores no per-node metadata an op does not produce.
- Fused losses. The two training objectives are single op kinds with
  closed-form gradients, not chains of softmax, KL and scale nodes.
  `clip-kl` is CLIP's symmetric image-text objective with KL in place of
  cross-entropy; `softmax-xent` is the mean row-wise KL of a softmax
  against targets, which for one-hot targets is the cross-entropy. Both
  take log-probabilities as `shifted - log(sum(exp(shifted)))`, which is
  finite wherever the scores are, so no probability that underflows to
  zero can make the loss undefined.
- Finiteness. Every recorded value is checked with one BLAS sum of
  squares, tested as a Python float with `math.isfinite`; the sum is
  non-finite whenever an entry is. Only a non-finite sum, from such an
  entry or from overflow on huge finite entries, pays for the full
  entrywise scan, so an op raises exactly when its value has a
  non-finite entry.

None of this changes a forward value or a parameter gradient, bitwise.

A tape is single-threaded and is rebuilt for every forward pass. Distinct
tapes share no mutable state and may live on distinct threads.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

__all__ = ["Tape", "OP_KINDS", "finite_difference_check", "softmax"]

# Op kinds accepted by Tape.record. "tanh" and "transpose" extend the core
# matrix set: the first for the image-encoder nonlinearity, the second so a
# similarity of the form X @ Y.T is expressible. "clip-kl" and
# "softmax-xent" are whole losses, each one node with a closed-form
# gradient (see _fwd_clip_kl and _fwd_softmax_xent). No package path
# records the softmax, KL, scalar-scale or weighted-sum kinds; the tests
# build the unfused loss chains, their oracle, from them.
OP_KINDS = (
    "matmul",
    "add",
    "elementwise-mul",
    "row-softmax-with-temperature",
    "col-softmax-with-temperature",
    "l2-normalize-rows",
    "kl-divergence-rows",
    "scalar-scale",
    "concat-rows",
    "weighted-sum",
    "transpose",
    "tanh",
    "clip-kl",
    "softmax-xent",
)

def _as_matrix(array) -> np.ndarray:
    a = np.asarray(array, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def _check_finite(value: np.ndarray, op: str) -> None:
    # vdot sets no numpy floating-point flag, so an overflowing sum of
    # finite entries neither warns nor raises; it only falls through to
    # the exact scan. Its result is a float64 scalar, which math.isfinite
    # tests without a ufunc call.
    if not math.isfinite(np.vdot(value, value)) and not np.isfinite(value).all():
        raise FloatingPointError(f"non-finite values produced by op '{op}'")


class _Node:
    """One tape entry.

    `wants[k]` is whether input k needs a gradient (a parameter reaches
    it); `needs_grad` is whether this node does. `meta` is whatever the
    forward rule returned for its backward rule, or None.
    """

    __slots__ = ("op", "inputs", "value", "meta", "name", "wants", "needs_grad")

    def __init__(self, op, inputs, value, meta=None, name=None, wants=(), needs_grad=False):
        self.op = op
        self.inputs = inputs
        self.value = value
        self.meta = meta
        self.name = name
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
        self._params: dict[str, int] = {}
        # Indices of the op nodes some parameter reaches, ascending: the
        # only nodes the reverse sweep visits.
        self._grad_ops: list[int] = []

    def __len__(self) -> int:
        return len(self._nodes)

    # -- leaves ----------------------------------------------------------

    def constant(self, array) -> int:
        """A node that never receives a gradient."""
        return self._append(_Node("constant", (), _as_matrix(array)))

    def parameter(self, array, name: str) -> int:
        """A trainable leaf; its gradient appears in backward() under `name`."""
        if name in self._params:
            raise ValueError(f"parameter {name!r} registered twice on this tape")
        idx = self._append(
            _Node("parameter", (), _as_matrix(array), name=name, needs_grad=True)
        )
        self._params[name] = idx
        return idx

    def value(self, node: int) -> np.ndarray:
        return self._nodes[node].value

    def _append(self, node: _Node) -> int:
        self._nodes.append(node)
        return len(self._nodes) - 1

    # -- recording -------------------------------------------------------

    def record(self, op_kind: str, inputs, **params) -> int:
        """Record one primitive, computing and storing its forward value.

        `inputs` is a sequence of node references. Extra op parameters:
        temperature (softmaxes, clip-kl), factor (scalar-scale), weights
        (weighted-sum), targets (clip-kl, softmax-xent).
        """
        forward = _FORWARD.get(op_kind)
        if forward is None:
            raise ValueError(f"unknown op kind {op_kind!r}; valid kinds: {OP_KINDS}")
        nodes = self._nodes
        idx = len(nodes)
        inputs = tuple(map(int, inputs))
        in_nodes = []
        for i in inputs:
            if not 0 <= i < idx:
                raise ValueError(f"input node {i} not on tape")
            in_nodes.append(nodes[i])
        value, meta = forward([n.value for n in in_nodes], params)
        _check_finite(value, op_kind)
        wants = tuple([n.needs_grad for n in in_nodes])
        needs_grad = True in wants
        nodes.append(_Node(op_kind, inputs, value, meta, None, wants, needs_grad))
        if needs_grad:
            self._grad_ops.append(idx)
        return idx

    # Convenience wrappers, one per primitive.

    def matmul(self, a: int, b: int) -> int:
        return self.record("matmul", (a, b))

    def add(self, a: int, b: int) -> int:
        return self.record("add", (a, b))

    def mul(self, a: int, b: int) -> int:
        return self.record("elementwise-mul", (a, b))

    def row_softmax(self, a: int, temperature: float) -> int:
        return self.record("row-softmax-with-temperature", (a,), temperature=temperature)

    def col_softmax(self, a: int, temperature: float) -> int:
        return self.record("col-softmax-with-temperature", (a,), temperature=temperature)

    def l2_normalize_rows(self, a: int) -> int:
        return self.record("l2-normalize-rows", (a,))

    def kl_div(self, target: int, prediction: int) -> int:
        """Total KL divergence, a 1x1 node.

        Sums p * log(p / q) over all entries with the 0 * log 0 = 0
        convention, so all-zero rows (or columns) of the target contribute
        nothing. Summing over entries makes the same primitive serve both
        row-wise and column-wise divergence terms.
        """
        return self.record("kl-divergence-rows", (target, prediction))

    def scale(self, a: int, factor: float) -> int:
        return self.record("scalar-scale", (a,), factor=factor)

    def concat_rows(self, nodes) -> int:
        return self.record("concat-rows", tuple(nodes))

    def weighted_sum(self, nodes, weights) -> int:
        return self.record("weighted-sum", tuple(nodes), weights=tuple(float(w) for w in weights))

    def transpose(self, a: int) -> int:
        return self.record("transpose", (a,))

    def tanh(self, a: int) -> int:
        return self.record("tanh", (a,))

    def clip_kl(self, scores: int, targets, temperature: float) -> int:
        """Symmetric KL loss of a score table against targets, a 1x1 node.

        0.5/B * sum_i KL(Y_i || softmax_row(S/t)_i)
          + 0.5/nz * sum_j KL(Yc_j || softmax_col(S/t)_j)

        over the B rows and the nz non-zero columns of the non-negative
        B x C `targets` Y, where Yc is Y with each non-zero column scaled
        to sum 1. Targets are a fixed matrix, not a tape node.
        """
        return self.record("clip-kl", (scores,), targets=targets, temperature=temperature)

    def softmax_xent(self, logits: int, targets) -> int:
        """Mean over the B rows of KL(Y_i || softmax(L_i)), a 1x1 node; the
        cross-entropy when every target row is one-hot."""
        return self.record("softmax-xent", (logits,), targets=targets)

    # -- reverse sweep ----------------------------------------------------

    def backward(self, loss_node: int) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. every registered parameter.

        Parameters the loss does not reach get exact-zero gradients of the
        parameter's shape. Only op nodes some parameter reaches are
        visited, each exactly once, and each backward rule forms only the
        input gradients its node's `wants` flags ask for. An adjoint
        adopts its first contribution without a copy and is copied on the
        first accumulation into it; a gradient still borrowed at the end
        is copied, so the returned arrays are the caller's own.
        """
        nodes = self._nodes
        loss = nodes[loss_node]
        if loss.value.shape != (1, 1):
            raise ValueError(f"loss node must be 1x1, got shape {loss.value.shape}")
        adjoint: list[np.ndarray | None] = [None] * len(nodes)
        adjoint[loss_node] = np.ones((1, 1))
        owned = {loss_node}
        ops = self._grad_ops
        for idx in reversed(ops[:bisect_right(ops, loss_node)]):
            g = adjoint[idx]
            if g is None:
                continue
            node = nodes[idx]
            in_vals = [nodes[i].value for i in node.inputs]
            contribs = _BACKWARD[node.op](g, node.value, in_vals, node.meta, node.wants)
            for inp, contrib in zip(node.inputs, contribs):
                if contrib is None:
                    continue
                prev = adjoint[inp]
                if prev is None:
                    adjoint[inp] = contrib
                elif inp in owned:
                    prev += contrib
                else:
                    adjoint[inp] = prev + contrib
                    owned.add(inp)
        grads = {}
        for name, idx in self._params.items():
            g = adjoint[idx]
            if g is None:
                g = np.zeros_like(nodes[idx].value)
            elif idx not in owned:
                g = g.copy()
            grads[name] = g
        return grads


# ---------------------------------------------------------------------------
# forward rules: (input values, params) -> (value, meta)


def _shape_err(op, shapes):
    return ValueError(f"{op}: incompatible shapes {shapes}")


def _fwd_matmul(vals, params):
    a, b = vals
    if a.shape[1] != b.shape[0]:
        raise _shape_err("matmul", (a.shape, b.shape))
    return a @ b, None


def _fwd_add(vals, params):
    a, b = vals
    # Same shape, or a 1 x k bias row broadcast over the rows of a.
    if a.shape == b.shape:
        return a + b, None
    if b.shape == (1, a.shape[1]):
        return a + b, {"broadcast": True}
    raise _shape_err("add", (a.shape, b.shape))


def _fwd_mul(vals, params):
    a, b = vals
    if a.shape != b.shape:
        raise _shape_err("elementwise-mul", (a.shape, b.shape))
    return a * b, None


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of a plain array along `axis`, as the softmax ops compute it."""
    shifted = x - x.max(axis=axis, keepdims=True)  # overflow guard, value-identical
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax(x, axis):
    """(log softmax, softmax) along `axis`. The log is taken of the sum
    only, so it is finite wherever x is, even where the softmax itself
    underflows to zero; the softmax is the same array softmax returns."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=axis, keepdims=True)
    return shifted - np.log(total), e / total


def _temperature(params):
    t = float(params["temperature"])
    if t <= 0:
        raise ValueError(f"softmax temperature must be positive, got {t}")
    return t


def _fwd_row_softmax(vals, params):
    t = _temperature(params)
    return softmax(vals[0] / t, axis=1), {"temperature": t}


def _fwd_col_softmax(vals, params):
    t = _temperature(params)
    return softmax(vals[0] / t, axis=0), {"temperature": t}


def _fwd_l2_normalize_rows(vals, params):
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


def _fwd_kl(vals, params):
    p, q = vals
    if p.shape != q.shape:
        raise _shape_err("kl-divergence-rows", (p.shape, q.shape))
    if (p < 0).any():
        raise ValueError("kl-divergence-rows: target has negative entries")
    support = p > 0
    p_s = p[support]
    q_s = q[support]
    if (q_s <= 0).any():
        raise ValueError("kl-divergence-rows: prediction is zero on the target support")
    total = float(np.sum(p_s * (np.log(p_s) - np.log(q_s))))
    return np.array([[total]]), {"support": support}


def _targets(op, params, scores):
    y = _as_matrix(params["targets"])
    if y.shape != scores.shape:
        raise _shape_err(op, (scores.shape, y.shape))
    if not np.isfinite(y).all() or (y < 0).any():
        raise ValueError(f"{op}: targets must be finite and non-negative")
    return y


def _kl_total(y, log_q):
    """sum of y * (log y - log_q) over the entries where y > 0."""
    support = y > 0
    y_s = y[support]
    return float(np.sum(y_s * (np.log(y_s) - log_q[support])))


def _fwd_clip_kl(vals, params):
    """See Tape.clip_kl. Gradient with respect to the scores S:

        (0.5/(B t)) (P_row * r - Y) + (0.5/(nz t)) (P_col * mask - Yc)

    where r holds the row sums of Y (1 for one-hot rows) and mask marks
    the non-zero columns, whose Yc columns sum to 1.
    """
    (s,) = vals
    t = _temperature(params)
    y = _targets("clip-kl", params, s)
    col_sums = y.sum(axis=0, keepdims=True)
    mask = col_sums > 0
    nonzero_cols = int(np.count_nonzero(mask))
    if nonzero_cols == 0:
        raise ValueError("clip-kl: targets are all zero")
    y_col = np.divide(y, col_sums, out=np.zeros_like(y), where=mask)
    z = s / t
    log_row, p_row = _log_softmax(z, axis=1)
    log_col, p_col = _log_softmax(z, axis=0)
    w_row = 0.5 / s.shape[0]
    w_col = 0.5 / nonzero_cols
    total = w_row * _kl_total(y, log_row) + w_col * _kl_total(y_col, log_col)
    meta = (t, w_row, w_col, y, y_col, mask, p_row, p_col)
    return np.array([[total]]), meta


def _fwd_softmax_xent(vals, params):
    """See Tape.softmax_xent. Gradient: (P * r - Y) / B, r the row sums of Y."""
    (logits,) = vals
    y = _targets("softmax-xent", params, logits)
    log_p, p = _log_softmax(logits, axis=1)
    weight = 1.0 / logits.shape[0]
    return np.array([[_kl_total(y, log_p) * weight]]), (weight, y, p)


def _fwd_scale(vals, params):
    return vals[0] * float(params["factor"]), {"factor": float(params["factor"])}


def _fwd_concat_rows(vals, params):
    cols = {v.shape[1] for v in vals}
    if len(vals) == 0 or len(cols) != 1:
        raise _shape_err("concat-rows", [v.shape for v in vals])
    return np.concatenate(vals), {"row_counts": [v.shape[0] for v in vals]}


def _fwd_weighted_sum(vals, params):
    weights = params["weights"]
    if len(weights) != len(vals) or not vals:
        raise ValueError("weighted-sum: need one weight per input")
    if len({v.shape for v in vals}) != 1:
        raise _shape_err("weighted-sum", [v.shape for v in vals])
    out = np.zeros_like(vals[0])
    for w, v in zip(weights, vals):
        out += w * v
    return out, {"weights": weights}


def _fwd_transpose(vals, params):
    return vals[0].T.copy(), None


def _fwd_tanh(vals, params):
    return np.tanh(vals[0]), None


_FORWARD = {
    "matmul": _fwd_matmul,
    "add": _fwd_add,
    "elementwise-mul": _fwd_mul,
    "row-softmax-with-temperature": _fwd_row_softmax,
    "col-softmax-with-temperature": _fwd_col_softmax,
    "l2-normalize-rows": _fwd_l2_normalize_rows,
    "kl-divergence-rows": _fwd_kl,
    "scalar-scale": _fwd_scale,
    "concat-rows": _fwd_concat_rows,
    "weighted-sum": _fwd_weighted_sum,
    "transpose": _fwd_transpose,
    "tanh": _fwd_tanh,
    "clip-kl": _fwd_clip_kl,
    "softmax-xent": _fwd_softmax_xent,
}


# ---------------------------------------------------------------------------
# backward rules: (upstream grad, forward value, input values, meta, wants)
#   -> one gradient (or None) per input. wants[k] says whether input k
#   needs one; a rule forms no gradient for an input that does not. A
#   rule runs only for a node that needs a gradient, so a single-input
#   rule's input always does.


def _bwd_matmul(g, out, ins, meta, wants):
    a, b = ins
    return (g @ b.T if wants[0] else None, a.T @ g if wants[1] else None)


def _bwd_add(g, out, ins, meta, wants):
    if meta and meta.get("broadcast"):
        return (g if wants[0] else None, g.sum(axis=0, keepdims=True) if wants[1] else None)
    return (g if wants[0] else None, g if wants[1] else None)


def _bwd_mul(g, out, ins, meta, wants):
    a, b = ins
    return (g * b if wants[0] else None, g * a if wants[1] else None)


def _bwd_row_softmax(g, s, ins, meta, wants):
    t = meta["temperature"]
    inner = (g * s).sum(axis=1, keepdims=True)
    return (s * (g - inner) / t,)


def _bwd_col_softmax(g, s, ins, meta, wants):
    t = meta["temperature"]
    inner = (g * s).sum(axis=0, keepdims=True)
    return (s * (g - inner) / t,)


def _bwd_l2_normalize_rows(g, y, ins, meta, wants):
    norms = meta["norms"]
    inner = (g * y).sum(axis=1, keepdims=True)
    return ((g - inner * y) / norms,)


def _bwd_kl(g, out, ins, meta, wants):
    p, q = ins
    support = meta["support"]
    scalar = g[0, 0]
    dp = dq = None
    if wants[0]:
        # d/dp is only defined on the target's support; elsewhere the 0*log 0
        # convention makes the contribution identically zero.
        dp = np.zeros_like(p)
        dp[support] = scalar * (np.log(p[support]) - np.log(q[support]) + 1.0)
    if wants[1]:
        dq = np.zeros_like(q)
        dq[support] = -scalar * p[support] / q[support]
    return (dp, dq)


def _bwd_clip_kl(g, out, ins, meta, wants):
    t, w_row, w_col, y, y_col, mask, p_row, p_col = meta
    scale = g[0, 0] / t
    row = p_row * y.sum(axis=1, keepdims=True)
    row -= y
    col = p_col * mask
    col -= y_col
    return ((scale * w_row) * row + (scale * w_col) * col,)


def _bwd_softmax_xent(g, out, ins, meta, wants):
    weight, y, p = meta
    grad = p * y.sum(axis=1, keepdims=True)
    grad -= y
    grad *= g[0, 0] * weight
    return (grad,)


def _bwd_scale(g, out, ins, meta, wants):
    return (g * meta["factor"],)


def _bwd_concat_rows(g, out, ins, meta, wants):
    grads = []
    start = 0
    for count, want in zip(meta["row_counts"], wants):
        grads.append(g[start:start + count] if want else None)
        start += count
    return tuple(grads)


def _bwd_weighted_sum(g, out, ins, meta, wants):
    return tuple(w * g if want else None for w, want in zip(meta["weights"], wants))


def _bwd_transpose(g, out, ins, meta, wants):
    return (g.T.copy(),)


def _bwd_tanh(g, y, ins, meta, wants):
    return (g * (1.0 - y * y),)


_BACKWARD = {
    "matmul": _bwd_matmul,
    "add": _bwd_add,
    "elementwise-mul": _bwd_mul,
    "row-softmax-with-temperature": _bwd_row_softmax,
    "col-softmax-with-temperature": _bwd_col_softmax,
    "l2-normalize-rows": _bwd_l2_normalize_rows,
    "kl-divergence-rows": _bwd_kl,
    "scalar-scale": _bwd_scale,
    "concat-rows": _bwd_concat_rows,
    "weighted-sum": _bwd_weighted_sum,
    "transpose": _bwd_transpose,
    "tanh": _bwd_tanh,
    "clip-kl": _bwd_clip_kl,
    "softmax-xent": _bwd_softmax_xent,
}


# ---------------------------------------------------------------------------


def finite_difference_check(f, point, analytic, h: float = 1e-5) -> float:
    """Max relative error between `analytic` and central differences of `f`.

    `f` maps a matrix to a scalar; `analytic` is the gradient to check,
    with the same shape as `point`. The error for each entry is
    |analytic - central| / (|central| + 1e-12); the max over entries is
    returned. A non-finite value of `f` at a perturbed point is an error,
    reported with the entry being perturbed.
    """
    point = _as_matrix(point)
    analytic = _as_matrix(analytic)
    if analytic.shape != point.shape:
        raise ValueError(f"gradient shape {analytic.shape} != parameter shape {point.shape}")
    if not h > 0:
        raise ValueError(f"step h must be positive, got {h}")
    worst = 0.0
    perturbed = point.copy()
    for i in range(point.shape[0]):
        for j in range(point.shape[1]):
            orig = perturbed[i, j]
            perturbed[i, j] = orig + h
            f_plus = float(f(perturbed))
            perturbed[i, j] = orig - h
            f_minus = float(f(perturbed))
            perturbed[i, j] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise FloatingPointError(
                    f"f returned a non-finite value when perturbing entry ({i}, {j})"
                )
            central = (f_plus - f_minus) / (2.0 * h)
            err = abs(analytic[i, j] - central) / (abs(central) + 1e-12)
            worst = max(worst, err)
    return worst
