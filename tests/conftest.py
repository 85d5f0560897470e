"""Helpers shared by the tests. The package itself does not need them."""

import numpy as np

from ordinalproto import diffcore
from ordinalproto.diffcore import Tape
from ordinalproto.matching import column_normalized_labels


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


def unfused_clip_kl(tape: Tape, scores: int, targets: np.ndarray, temperature: float) -> int:
    """The clip-kl loss as the chain of primitives it replaces: row and
    column softmaxes, one KL per direction, and their weighted sum."""
    nonzero_cols = int((targets.sum(axis=0) > 0).sum())
    col_targets = column_normalized_labels(targets)
    row_term = tape.kl_div(tape.constant(targets), tape.row_softmax(scores, temperature))
    col_term = tape.kl_div(tape.constant(col_targets), tape.col_softmax(scores, temperature))
    return tape.weighted_sum(
        [row_term, col_term], [0.5 / targets.shape[0], 0.5 / nonzero_cols]
    )


def unfused_softmax_xent(tape: Tape, logits: int, targets: np.ndarray) -> int:
    """The softmax-xent loss as softmax, KL and scale nodes."""
    kl = tape.kl_div(tape.constant(targets), tape.row_softmax(logits, 1.0))
    return tape.scale(kl, 1.0 / targets.shape[0])
