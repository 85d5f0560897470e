"""Helpers shared by the tests. The package itself does not need them.

`unfused_clip_kl` and `unfused_softmax_xent` are the oracle for the two
losses: plain numpy over the one-hot rows of the labels the losses read
as a column of rank indices, each returning (value, gradient).
`finite_difference_check` is the central-difference gradient check.
`encode_images` and `prototypes_of` give the embeddings and prototypes
the package otherwise forms only inside a training step or evaluate, and
`loss_and_gradients` runs one step's forward_loss and backward_loss into
fresh arrays. `prompt_oracle` is the prototypes' closed form
in plain numpy, the oracle for the prompt graph, and
`prompt_oracle_gradient` its hand-derived gradient in the two prompt
groups. `forward_loss_oracle` extends both to the whole training loss:
its value and its hand-derived gradient in every parameter group.
`fnv1a64_reference` is the per-byte FNV-1a loop, the oracle for the
package's chunked numpy hash."""

import numpy as np

from ordinalproto import diffcore, training
from ordinalproto.diffcore import Tape, l2_normalize_rows
from ordinalproto.encoders import ImageEncoder


def fnv1a64_reference(data: bytes) -> int:
    """64-bit FNV-1a, one byte at a time in Python ints."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def sum_all(tape: Tape, node: int) -> int:
    """Sum of all entries as a 1x1 node (derived: two matmuls with ones)."""
    rows, cols = tape.value(node).shape
    left = tape.constant(np.ones((1, rows)))
    right = tape.constant(np.ones((cols, 1)))
    return tape.matmul(tape.matmul(left, node), right)


def encode_text(encoder, sequences) -> np.ndarray:
    """Prototype matrix for plain ndarray sequences (throwaway tape): the
    sequences stacked into one token table, each read as its own rows."""
    tape = Tape()
    sequences = [np.asarray(s, dtype=np.float64) for s in sequences]
    table = tape.constant(np.concatenate(sequences))
    ends = np.cumsum([len(s) for s in sequences])
    prompts = [range(end - len(s), end) for s, end in zip(sequences, ends)]
    return tape.value(encoder.encode(tape, table, prompts)).copy()


def encode_images(params, batch) -> tuple[np.ndarray, np.ndarray]:
    """(features, unit-norm embeddings) of a plain ndarray batch, with the
    image weights params[name] (ImageEncoder.NAMES)."""
    features, _ = ImageEncoder.encode(params, batch)
    return features, l2_normalize_rows(features)[0]


def prototypes_of(state) -> np.ndarray:
    """The unit-norm prototype rows evaluate scores against: the prompt
    graph's output, or the baseline's head weight rows put through
    l2_normalize_rows."""
    if state.uses_prompts:
        tape = Tape()
        return tape.value(training._prompt_nodes(state, tape)).copy()
    return l2_normalize_rows(state.params["head.weights"])[0]


def loss_and_gradients(state, batch_x, batch_y, temperature, tape=None) -> tuple[float, dict]:
    """(loss, {group: gradient}) of one training step on a batch, before
    its Adam update: training.forward_loss on `tape` (a fresh one if None,
    so the prompt head is recorded), then training.backward_loss into
    fresh arrays, one per trainable group."""
    tape = Tape() if tape is None else tape
    loss, kept = training.forward_loss(state, tape, batch_x, batch_y, temperature)
    grads = {name: np.empty_like(value) for name, value in state.trainable_parameters().items()}
    training.backward_loss(state, tape, kept, grads)
    return loss, grads


def _pooling_row(state) -> np.ndarray:
    """The text encoder's pooling row for a prompt of m + 1 tokens."""
    weights = state.text_encoder.position_weights[: state.params["context"].shape[0] + 1]
    return weights / weights.sum()


def _unnormalized_prototypes(state) -> np.ndarray:
    """W @ ((1 (pool[:m] @ ctx) + pool[m] base) @ mixed_projection), the
    prototypes before their row normalization."""
    ctx, base = state.params["context"], state.params["base_ranks"]
    pool = _pooling_row(state)
    m = ctx.shape[0]
    q = (pool[:m] @ ctx + pool[m] * base) @ state.text_encoder.mixed_projection
    return q if state.interpolation is None else state.interpolation @ q


def prompt_oracle(state) -> np.ndarray:
    """A prompt model's unit-norm prototypes in closed form, no tape:

        normalize(W @ ((1 (pool[:m] @ ctx) + pool[m] base) @ mixed_projection))

    where pool is the text encoder's pooling row for m + 1 tokens and W is
    the interpolation matrix for ordinalclip and the identity for coop and
    zeroshot. It pools and projects the base rows before interpolating
    them, an order the tape does not use: the two agree to rounding because
    the encoder is linear up to its row normalization and W is
    row-stochastic."""
    z = _unnormalized_prototypes(state)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def prompt_oracle_gradient(state, adjoint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d/d ctx, d/d base_ranks) of <adjoint, prompt_oracle(state)>, derived
    by hand, no tape. With Z = W @ R @ M, R = 1 (pool[:m] @ ctx) + pool[m]
    base, M = mixed_projection and P = Z / |Z| row by row:

        dZ    = (G - rowsum(G * P) P) / |Z|      row normalization
        dR    = W.T @ dZ @ M.T                   interpolation, projection
        dctx  = pool[:m].T @ (1.T @ dR)          the context row, shared
        dbase = pool[m] dR

    with W = I for coop and zeroshot."""
    z = _unnormalized_prototypes(state)
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    p = z / norms
    dz = (adjoint - (adjoint * p).sum(axis=1, keepdims=True) * p) / norms
    if state.interpolation is not None:
        dz = state.interpolation.T @ dz
    dr = dz @ state.text_encoder.mixed_projection.T
    pool = _pooling_row(state)
    m = pool.shape[0] - 1
    return np.outer(pool[:m], dr.sum(axis=0)), pool[m] * dr


def forward_loss_oracle(state, batch_x, batch_y, temperature) -> tuple[float, dict]:
    """(loss, {group: gradient}) of one training step, in plain numpy,
    derived by hand, no tape; every group of state.params gets a gradient,
    a frozen one too. The image encoder is A = X W1 + b1, H = tanh(A),
    F = H W2 + b2. With one-hot labels Y, B rows and t the temperature:

    prompt methods: E = F / |F| and P = prompt_oracle(state), row by row;
    S = E P.T; the loss is the contrastive loss of S, and, by matching's docstring,
        dS = 0.5/(B t) (P_row - Y) + 0.5/(nz t) (P_col * mask - Yc)
        dE = dS P,  dP = dS.T E,  dF = (dE - rowsum(dE * E) E) / |F|
    and prompt_oracle_gradient(state, dP) gives d/d ctx and d/d base_ranks.

    baseline: L = F Wh.T + bh; the loss is the cross-entropy of L, and
        dL = (softmax(L) - Y) / B,  dWh = dL.T F,  dbh = colsum(dL),  dF = dL Wh

    then, for both, dW2 = H.T dF, db2 = colsum(dF), dA = (dF W2.T) (1 - H^2),
    dW1 = X.T dA and db1 = colsum(dA)."""
    params = state.params
    x = np.asarray(batch_x, dtype=np.float64)
    y = np.eye(state.num_ranks)[np.asarray(batch_y)]
    rows = x.shape[0]
    h = np.tanh(x @ params["image.w1"] + params["image.b1"])
    f = h @ params["image.w2"] + params["image.b2"]
    grads = {}
    if state.uses_prompts:
        norms = np.linalg.norm(f, axis=1, keepdims=True)
        e = f / norms
        protos = prompt_oracle(state)
        scores = e @ protos.T
        loss, _ = unfused_clip_kl(scores, batch_y, temperature)
        mask = y.sum(axis=0, keepdims=True) > 0
        z = scores / temperature
        p_row = np.exp(z - z.max(axis=1, keepdims=True))
        p_row /= p_row.sum(axis=1, keepdims=True)
        p_col = np.exp(z - z.max(axis=0, keepdims=True))
        p_col /= p_col.sum(axis=0, keepdims=True)
        y_col = column_normalized_labels(y)
        d_scores = (0.5 / (rows * temperature) * (p_row - y)
                    + 0.5 / (mask.sum() * temperature) * (p_col * mask - y_col))
        d_e = d_scores @ protos
        d_f = (d_e - (d_e * e).sum(axis=1, keepdims=True) * e) / norms
        grads["context"], grads["base_ranks"] = prompt_oracle_gradient(state, d_scores.T @ e)
    else:
        weights = params["head.weights"]
        logits = f @ weights.T + params["head.bias"]
        loss, _ = unfused_softmax_xent(logits, batch_y)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        d_logits = (probs / probs.sum(axis=1, keepdims=True) - y) / rows
        grads["head.weights"] = d_logits.T @ f
        grads["head.bias"] = d_logits.sum(axis=0, keepdims=True)
        d_f = d_logits @ weights
    d_a = (d_f @ params["image.w2"].T) * (1.0 - h * h)
    grads |= {"image.w1": x.T @ d_a, "image.b1": d_a.sum(axis=0, keepdims=True),
              "image.w2": h.T @ d_f, "image.b2": d_f.sum(axis=0, keepdims=True)}
    return float(loss), grads


def reference_backward(tape: Tape, loss_node: int, seed=None) -> dict[str, np.ndarray]:
    """The unpruned reverse sweep: every node reached from the loss is
    visited, every input gradient is formed, and every adjoint starts as a
    copy. Tape.backward, with the same seed, must match it bitwise."""
    nodes = tape._nodes
    index = {id(node): i for i, node in enumerate(nodes)}
    inputs = {idx: [index[id(n)] for n in ins] for idx, _, ins, _ in tape._schedule}
    adjoint = [None] * len(nodes)
    adjoint[loss_node] = np.ones((1, 1)) if seed is None else seed.copy()
    for idx in range(loss_node, -1, -1):
        g = adjoint[idx]
        node = nodes[idx]
        if g is None or idx not in inputs:
            continue
        in_vals = [nodes[i].value for i in inputs[idx]]
        wants = (True,) * len(in_vals)
        contribs = diffcore._BACKWARD[node.op](g, node.value, in_vals, node.meta, wants)
        for inp, contrib in zip(inputs[idx], contribs):
            assert contrib is not None, node.op
            if adjoint[inp] is None:
                adjoint[inp] = contrib.copy()
            else:
                adjoint[inp] += contrib
    return {
        name: np.zeros_like(nodes[idx].value) if adjoint[idx] is None else adjoint[idx]
        for name, idx in tape._params.items()
    }


def column_normalized_labels(y: np.ndarray) -> np.ndarray:
    """Labels with every non-zero column scaled to sum 1; zero columns stay.
    The Yc of the contrastive loss, which the loss forms itself."""
    sums = y.sum(axis=0, keepdims=True)
    out = y.copy()
    nonzero = sums.ravel() > 0
    out[:, nonzero] /= sums[:, nonzero]
    return out


def _kl_of_softmax(scores, targets, temperature, axis, weight):
    """weight * KL(targets || softmax(scores / t)) along `axis`, and its
    gradient in the scores, by the chain rule: the KL adjoint -w * Y / P on
    the targets' support, then the softmax VJP P * (g - sum(g * P)) / t."""
    z = scores / temperature
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    p = e / e.sum(axis=axis, keepdims=True)
    support = targets > 0
    y = targets[support]
    value = weight * np.sum(y * (np.log(y) - np.log(p[support])))
    g = np.zeros_like(p)
    g[support] = -weight * y / p[support]
    return value, p * (g - (g * p).sum(axis=axis, keepdims=True)) / temperature


def unfused_clip_kl(scores, labels, temperature):
    """(value, gradient) of the contrastive loss at a 1-D sequence of rank
    indices, as the plain-numpy chain it fuses: the labels' one-hot rows,
    a row softmax and a column softmax, one KL per direction, and their
    weighted sum. The probabilities are formed first and their log taken
    after, not in the loss's log-sum-exp form."""
    targets = np.eye(scores.shape[1])[np.asarray(labels)]
    nonzero_cols = int((targets.sum(axis=0) > 0).sum())
    row_value, row_grad = _kl_of_softmax(scores, targets, temperature, 1, 0.5 / targets.shape[0])
    col_value, col_grad = _kl_of_softmax(
        scores, column_normalized_labels(targets), temperature, 0, 0.5 / nonzero_cols
    )
    return row_value + col_value, row_grad + col_grad


def unfused_softmax_xent(logits, labels):
    """(value, gradient) of the cross-entropy loss: the mean row-wise KL of
    the row softmax against the labels' one-hot rows."""
    targets = np.eye(logits.shape[1])[np.asarray(labels)]
    return _kl_of_softmax(logits, targets, 1.0, 1, 1.0 / targets.shape[0])


def finite_difference_check(f, point, analytic, h: float = 1e-5) -> float:
    """Max relative error between `analytic` and central differences of `f`.

    `f` maps a matrix to a scalar; `analytic` is the gradient to check,
    with the same shape as `point`. The error for each entry is
    |analytic - central| / (|central| + 1e-12); the max over entries is
    returned. A non-finite value of `f` at a perturbed point is an error,
    reported with the entry being perturbed.
    """
    point = diffcore._as_matrix(point)
    analytic = diffcore._as_matrix(analytic)
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
