"""Image-prototype scores and the two training objectives.

The contrastive objective compares a batch-by-rank score table S against
the labels in both directions, CLIP's symmetric image-text loss with KL
in place of cross-entropy (several images in a batch may share a rank).
With Y the one-hot label matrix, P_row = softmax_row(S/t), P_col =
softmax_col(S/t), Yc the labels with each non-zero column scaled to sum
1, B the batch size and nz the number of non-zero label columns:

    loss   = 0.5/B * sum_i KL(Y_i || P_row_i) + 0.5/nz * sum_j KL(Yc_j || P_col_j)
    dL/dS  = 0.5/(B t) * (P_row - Y) + 0.5/(nz t) * (P_col * mask - Yc)

where mask keeps the non-zero label columns. The classification baseline
is a linear head with cross-entropy, loss = mean_i KL(Y_i || softmax(L_i))
with gradient (softmax(L) - Y)/B. Each loss is one fused tape node with
that closed-form gradient. Both read the constant LABELS, which a re-run
rebinds: a B x 1 column of rank indices, read where Y and Yc are nonzero,
which gives the formulas above bitwise (diffcore). The contrastive loss
reads its temperature from a 1x1 constant.

All functions are pure in their inputs and safe to evaluate concurrently
on distinct tapes.
"""

from __future__ import annotations

import numpy as np

from .diffcore import Tape

LABELS = "matching.labels"


def similarity(tape: Tape, images_node: int, prototypes_node: int) -> int:
    """Score node of image embeddings against prototypes, S = I P^T.

    S[i, j] = I_i . p_j. The losses softmax it along rows (a per-image
    distribution over ranks) and columns (a per-rank distribution over
    the batch) inside their own node.
    """
    return tape.matmul(images_node, tape.transpose(prototypes_node))


def label_column(labels) -> np.ndarray:
    """The B x 1 float64 LABELS column of a 1-D sequence of rank indices.
    The loss node rejects any but integers in [0, C): none is truncated."""
    return np.asarray(labels, dtype=np.float64)[:, None]


def contrastive_loss(tape: Tape, scores_node: int, labels, temperature: float) -> int:
    """Bidirectional KL loss node of a score table (module docstring).

    The column average runs over the non-zero label columns only; a batch
    smaller than the rank count always leaves some columns empty and an
    all-column average would be undefined there. Temperature must be
    positive.
    """
    y = tape.constant(label_column(labels), LABELS)
    return tape.clip_kl(scores_node, y, tape.constant([[temperature]]))


def baseline_logits(tape: Tape, weights_node: int, bias_node: int, features_node: int) -> int:
    """logit[i, j] = w_j . f_i + b_j for a C x latent_dim weight matrix."""
    return tape.add(tape.matmul(features_node, tape.transpose(weights_node)), bias_node)


def cross_entropy_loss(tape: Tape, logits_node: int, labels) -> int:
    """Mean negative log softmax probability at the labeled rank.

    Identical to the mean row-wise KL against the one-hot labels, since
    one-hot labels carry zero entropy.
    """
    y = tape.constant(label_column(labels), LABELS)
    return tape.softmax_xent(logits_node, y)
