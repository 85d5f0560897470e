"""Similarity matrices and the two training objectives.

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

from dataclasses import dataclass

import numpy as np

from .diffcore import Tape, softmax


@dataclass
class SimilarityMatrix:
    """The raw score node on one tape, and the temperature its row- and
    column-normalized tables use. Those tables are computed from the raw
    values on request and are not tape nodes; the loss normalizes inside
    its own node."""

    tape: Tape
    raw: int
    temperature: float

    @property
    def raw_value(self) -> np.ndarray:
        return self.tape.value(self.raw)

    @property
    def row_value(self) -> np.ndarray:
        return softmax(self.raw_value / self.temperature, axis=1)

    @property
    def col_value(self) -> np.ndarray:
        return softmax(self.raw_value / self.temperature, axis=0)


def similarity(tape: Tape, images_node: int, prototypes_node: int, temperature: float) -> SimilarityMatrix:
    """Inner-product scores of image embeddings against prototypes.

    raw[i, j] = I_i . p_j; the row-normalized table is a per-image
    distribution over ranks, the column-normalized table a per-rank
    distribution over the batch. Temperature must be positive.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    images = tape.value(images_node)
    prototypes = tape.value(prototypes_node)
    if images.shape[1] != prototypes.shape[1]:
        raise ValueError(
            f"latent dims differ: images {images.shape} vs prototypes {prototypes.shape}"
        )
    raw = tape.matmul(images_node, tape.transpose(prototypes_node))
    return SimilarityMatrix(tape=tape, raw=raw, temperature=temperature)


def one_hot_labels(labels, num_ranks: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-D sequence")
    if labels.min() < 0 or labels.max() >= num_ranks:
        raise ValueError(f"labels must lie in [0, {num_ranks}), got {labels.min()}..{labels.max()}")
    y = np.zeros((labels.size, num_ranks))
    y[np.arange(labels.size), labels] = 1.0
    return y


def column_normalized_labels(y: np.ndarray) -> np.ndarray:
    """Labels with every non-zero column scaled to sum 1; zero columns stay.
    The Yc of the contrastive loss, which its tape node forms itself."""
    sums = y.sum(axis=0, keepdims=True)
    out = y.copy()
    nonzero = sums.ravel() > 0
    out[:, nonzero] /= sums[:, nonzero]
    return out


def contrastive_loss(sim: SimilarityMatrix, labels, num_ranks: int) -> int:
    """Bidirectional KL loss node on the similarity's tape (module docstring).

    The column average runs over the non-zero label columns only; a batch
    smaller than the rank count always leaves some columns empty and an
    all-column average would be undefined there.
    """
    y = one_hot_labels(labels, num_ranks)
    if y.shape != sim.raw_value.shape:
        raise ValueError(
            f"label matrix {y.shape} does not match similarity {sim.raw_value.shape}"
        )
    return sim.tape.clip_kl(sim.raw, y, sim.temperature)


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
