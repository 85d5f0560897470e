"""Helpers shared by the tests. The package itself does not need them.

`unfused_clip_kl` and `unfused_softmax_xent` are the oracle for the two
fused loss ops: plain numpy, no tape, each returning (value, gradient)."""

import numpy as np

from ordinalproto import diffcore
from ordinalproto.diffcore import Tape


def sum_all(tape: Tape, node: int) -> int:
    """Sum of all entries as a 1x1 node (derived: two matmuls with ones)."""
    rows, cols = tape.value(node).shape
    left = tape.constant(np.ones((1, rows)))
    right = tape.constant(np.ones((cols, 1)))
    return tape.matmul(tape.matmul(left, node), right)


def encode_text(encoder, sequences) -> np.ndarray:
    """Prototype matrix for plain ndarray sequences (throwaway tape)."""
    tape = Tape()
    nodes = [tape.constant(np.asarray(s, dtype=np.float64)) for s in sequences]
    return tape.value(encoder.encode(tape, nodes)).copy()


def reference_backward(tape: Tape, loss_node: int) -> dict[str, np.ndarray]:
    """The unpruned reverse sweep: every node reached from the loss is
    visited, every input gradient is formed, and every adjoint starts as a
    copy. Tape.backward must match it bitwise."""
    nodes = tape._nodes
    adjoint = [None] * len(nodes)
    adjoint[loss_node] = np.ones((1, 1))
    for idx in range(loss_node, -1, -1):
        g = adjoint[idx]
        node = nodes[idx]
        if g is None or not node.inputs:
            continue
        in_vals = [nodes[i].value for i in node.inputs]
        wants = (True,) * len(node.inputs)
        contribs = diffcore._BACKWARD[node.op](g, node.value, in_vals, node.meta, wants)
        for inp, contrib in zip(node.inputs, contribs):
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
    The Yc of the contrastive loss, which its tape node forms itself."""
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


def unfused_clip_kl(scores, targets, temperature):
    """(value, gradient) of the clip-kl loss, as the plain-numpy chain it
    fuses: a row softmax and a column softmax, one KL per direction, and
    their weighted sum. The probabilities are formed first and their log
    taken after, not in the fused op's log-sum-exp form."""
    nonzero_cols = int((targets.sum(axis=0) > 0).sum())
    row_value, row_grad = _kl_of_softmax(scores, targets, temperature, 1, 0.5 / targets.shape[0])
    col_value, col_grad = _kl_of_softmax(
        scores, column_normalized_labels(targets), temperature, 0, 0.5 / nonzero_cols
    )
    return row_value + col_value, row_grad + col_grad


def unfused_softmax_xent(logits, targets):
    """(value, gradient) of the softmax-xent loss: the mean row-wise KL of
    the row softmax against the targets."""
    return _kl_of_softmax(logits, targets, 1.0, 1, 1.0 / targets.shape[0])
