"""Image-prototype scores and the two training objectives.

The contrastive objective compares a batch-by-rank score table S against
one-hot labels Y in both directions, CLIP's symmetric image-text loss
with KL in place of cross-entropy (several images in a batch may share a
rank). With P_row = softmax_row(S/t), P_col = softmax_col(S/t), Yc the
labels with each non-zero column scaled to sum 1, B the batch size and
nz the number of non-zero label columns:

    loss   = 0.5/B * sum_i KL(Y_i || P_row_i) + 0.5/nz * sum_j KL(Yc_j || P_col_j)
    dL/dS  = 0.5/(B t) * (P_row - Y) + 0.5/(nz t) * (P_col * mask - Yc)

where mask keeps the non-zero label columns. The classification baseline
is a linear head with cross-entropy, loss = mean_i KL(Y_i || softmax(L_i))
with gradient (softmax(L) - Y)/B. Each loss is one fused tape node with
that closed-form gradient.

All functions are pure in their inputs and safe to evaluate concurrently
on distinct tapes.
"""

from __future__ import annotations

import numpy as np

from .diffcore import Tape


def similarity(tape: Tape, images_node: int, prototypes_node: int) -> int:
    """Score node of image embeddings against prototypes, S = I P^T.

    S[i, j] = I_i . p_j. The losses softmax it along rows (a per-image
    distribution over ranks) and columns (a per-rank distribution over
    the batch) inside their own node.
    """
    images = tape.value(images_node)
    prototypes = tape.value(prototypes_node)
    if images.shape[1] != prototypes.shape[1]:
        raise ValueError(
            f"latent dims differ: images {images.shape} vs prototypes {prototypes.shape}"
        )
    return tape.matmul(images_node, tape.transpose(prototypes_node))


def one_hot_labels(labels, num_ranks: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-D sequence")
    if labels.min() < 0 or labels.max() >= num_ranks:
        raise ValueError(f"labels must lie in [0, {num_ranks}), got {labels.min()}..{labels.max()}")
    y = np.zeros((labels.size, num_ranks))
    y[np.arange(labels.size), labels] = 1.0
    return y


def contrastive_loss(tape: Tape, scores_node: int, labels, num_ranks: int,
                     temperature: float) -> int:
    """Bidirectional KL loss node of a score table (module docstring).

    The column average runs over the non-zero label columns only; a batch
    smaller than the rank count always leaves some columns empty and an
    all-column average would be undefined there. Temperature must be
    positive.
    """
    y = one_hot_labels(labels, num_ranks)
    if y.shape != tape.value(scores_node).shape:
        raise ValueError(
            f"label matrix {y.shape} does not match scores "
            f"{tape.value(scores_node).shape}"
        )
    return tape.clip_kl(scores_node, y, temperature)


def baseline_logits(tape: Tape, weights_node: int, bias_node: int, features_node: int) -> int:
    """logit[i, j] = w_j . f_i + b_j for a C x latent_dim weight matrix."""
    w = tape.value(weights_node)
    b = tape.value(bias_node)
    f = tape.value(features_node)
    if f.shape[1] != w.shape[1] or b.shape != (1, w.shape[0]):
        raise ValueError(
            f"head shapes weights {w.shape}, bias {b.shape} do not match "
            f"features {f.shape}"
        )
    return tape.add(tape.matmul(features_node, tape.transpose(weights_node)), bias_node)


def cross_entropy_loss(tape: Tape, logits_node: int, labels, num_ranks: int) -> int:
    """Mean negative log softmax probability at the labeled rank.

    Identical to the mean row-wise KL against the one-hot labels, since
    one-hot targets carry zero entropy.
    """
    y = one_hot_labels(labels, num_ranks)
    if y.shape != tape.value(logits_node).shape:
        raise ValueError(
            f"label matrix {y.shape} does not match logits "
            f"{tape.value(logits_node).shape}"
        )
    return tape.softmax_xent(logits_node, y)
