"""Image-prototype scores and the two training objectives, in closed form.

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
with gradient (softmax(L) - Y)/B.

Every function here is plain numpy, off the tape. A forward function
returns its value and what its `_grad` partner reads; the partner returns
the gradients. The score functions and the losses call check(value, op)
after each step that can go non-finite, under the name of the tape op
that used to compute it (diffcore.guarded). Both losses read a B x 1
column of rank indices (label_column), at the labelled entries only: a
one-hot matrix's support in row-major order is [rows, labels], so
gathering there adds the one-hot formula's terms in its order, and gives
the formulas above bitwise. Both take log-probabilities as `shifted - log(sum(exp(shifted)))`,
at the labelled entries only, which is finite wherever the scores are, so
no probability that underflows to zero can make the loss undefined; the
gradients form the probabilities.

All functions are pure in their inputs and safe to evaluate concurrently.
"""

from __future__ import annotations

import numpy as np

from .diffcore import add_row, check_finite, matmul


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax of an array along `axis`: the probabilities the losses'
    gradients form, and the one softmax the package computes."""
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


def similarity(embeddings: np.ndarray, prototypes: np.ndarray,
               check=check_finite) -> tuple[np.ndarray, np.ndarray]:
    """(S = I P^T, P^T) of image embeddings against prototypes.

    S[i, j] = I_i . p_j. The losses softmax it along rows (a per-image
    distribution over ranks) and columns (a per-rank distribution over
    the batch). The product reads a transposed copy of the prototypes,
    which similarity_grad reads too: the products of their own layout
    differ from it in the last bits.
    """
    prototypes_t = prototypes.T.copy()
    scores = matmul(embeddings, prototypes_t)
    check(scores, "matmul")
    return scores, prototypes_t


def similarity_grad(d_scores: np.ndarray, embeddings: np.ndarray,
                    prototypes_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dL/dI, dL/dP) of the scores similarity returned with prototypes_t,
    given dL/dS."""
    return d_scores.dot(prototypes_t.T), embeddings.T.dot(d_scores).T.copy()


def label_column(labels) -> np.ndarray:
    """The B x 1 float64 column of a 1-D sequence of rank indices, which
    the losses read. A loss rejects any but integers in [0, C): none is
    truncated."""
    return np.asarray(labels, dtype=np.float64)[:, None]


def _check_labels(op, scores, labels):
    """(rows, rank index per row) of B x C scores and a B x 1 label column
    of integers in [0, C), after the scores' finiteness check: a
    non-finite score in a column no label reads can leave the loss finite
    but make its gradient NaN."""
    check_finite(scores, op)
    rows, ranks = scores.shape
    if labels.shape != (rows, 1) or rows == 0:
        raise ValueError(f"{op}: incompatible shapes {(scores.shape, labels.shape)}")
    lab = labels.ravel()
    # NaN and +-inf fail the range test, so the cast sees only finite values.
    if not ((lab >= 0.0).all() and (lab < ranks).all() and (lab == np.floor(lab)).all()):
        raise ValueError(f"{op}: labels must be integers in [0, {ranks})")
    return np.arange(rows), lab.astype(np.intp)


def contrastive_loss(scores: np.ndarray, labels: np.ndarray, temperature: float,
                     check=check_finite) -> tuple[float, tuple]:
    """(loss, what contrastive_loss_grad reads): the bidirectional KL of
    a score table against a label column (module docstring), at a
    positive temperature. check follows the loss: finite scores can
    still give an infinite one, where z = scores / t spans more than the
    float64 range and a labelled entry's shift overflows.

    The column average runs over the non-zero label columns only; a batch
    smaller than the rank count always leaves some columns empty and an
    all-column average would be undefined there. Y and Yc (1 / the
    label's row count) are nonzero only at [rows, lab], so the loss and
    its gradient touch only those. Errors name the op "clip-kl".
    """
    t = float(temperature)
    if not t > 0:
        raise ValueError(f"softmax temperature must be positive, got {t}")
    rows, lab = _check_labels("clip-kl", scores, labels)
    counts = np.bincount(lab, minlength=scores.shape[1])
    mask = counts[None] > 0
    yc = 1.0 / counts[lab]
    z = scores / t
    shifted_row, e_row, sum_row = _exp_shifted(z, axis=1)
    shifted_col, e_col, sum_col = _exp_shifted(z, axis=0)
    # The log-probabilities at the labels alone: entry [i, lab[i]] of
    # shifted - log(sum), bitwise.
    log_row = shifted_row[rows, lab] - np.log(sum_row).ravel()
    log_col = shifted_col[rows, lab] - np.log(sum_col).ravel()[lab]
    w_row = 0.5 / scores.shape[0]
    w_col = 0.5 / np.count_nonzero(mask)
    # Each KL sum adds y * (log y - log q) at the labels, log 1 being 0.0.
    # Both weights are at most 1/2, so this sum of two finite Python floats
    # cannot overflow: the flag guard needs no flag from it.
    total = (w_row * float(np.sum(0.0 - log_row))
             + w_col * float(np.sum(yc * (np.log(yc) - log_col))))
    check(total, "clip-kl")
    return total, (t, w_row, w_col, rows, lab, yc, mask, e_row, sum_row, e_col, sum_col)


def contrastive_loss_grad(kept: tuple) -> np.ndarray:
    """dL/dS of the loss contrastive_loss kept `kept` for."""
    t, w_row, w_col, rows, lab, yc, mask, e_row, sum_row, e_col, sum_col = kept
    scale = 1.0 / t
    row = e_row / sum_row
    row[rows, lab] -= 1.0
    col = e_col / sum_col * mask
    col[rows, lab] -= yc
    return (scale * w_row) * row + (scale * w_col) * col


def baseline_logits(weights: np.ndarray, bias: np.ndarray, features: np.ndarray,
                    check=check_finite) -> tuple[np.ndarray, np.ndarray]:
    """(logits, weights^T): logit[i, j] = w_j . f_i + b_j for a C x
    latent_dim weight matrix and a 1 x C bias. The product reads a
    transposed copy of the weights, as similarity does."""
    weights_t = weights.T.copy()
    logits = matmul(features, weights_t)
    check(logits, "matmul")
    logits = add_row(logits, bias)
    check(logits, "add")
    return logits, weights_t


def baseline_logits_grad(d_logits: np.ndarray, features: np.ndarray, weights_t: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dL/dF, dL/dW, dL/db) of the logits baseline_logits returned with
    weights_t, given dL/dlogits."""
    d_weights = features.T.dot(d_logits).T.copy()
    return d_logits.dot(weights_t.T), d_weights, d_logits.sum(axis=0, keepdims=True)


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray,
                       check=check_finite) -> tuple[float, tuple]:
    """(loss, what cross_entropy_loss_grad reads): the mean negative log
    softmax probability at the labelled rank of a label column. check
    follows the loss, as in contrastive_loss: logits spanning more than
    the float64 range give an infinite one.

    Identical to the mean row-wise KL against the one-hot labels, since
    one-hot labels carry zero entropy. Errors name the op "softmax-xent".
    """
    rows, lab = _check_labels("softmax-xent", logits, labels)
    shifted, e, total = _exp_shifted(logits, axis=1)
    log_p = shifted[rows, lab] - np.log(total).ravel()  # as in contrastive_loss
    weight = 1.0 / logits.shape[0]
    loss = float(np.sum(0.0 - log_p)) * weight
    check(loss, "softmax-xent")
    return loss, (weight, rows, lab, e, total)


def cross_entropy_loss_grad(kept: tuple) -> np.ndarray:
    """dL/dlogits, (P - Y) / B, of the loss cross_entropy_loss kept `kept`
    for."""
    weight, rows, lab, e, total = kept
    grad = e / total
    grad[rows, lab] -= 1.0
    grad *= weight
    return grad
