"""Learnable prompt state: shared context rows plus interpolated rank rows.

A prompt for rank j is an (m + 1) x word_dim token matrix: m learnable
context rows shared by every rank, followed by one rank row. Rank rows are
not free parameters; they are produced from a small set of base rank rows
through a fixed row-stochastic interpolation matrix, which is what couples
neighboring ranks and injects the ordinal structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffcore import Tape

LINEAR = "linear"
INVERSE_PROPORTION = "inverse-proportion"
INTERPOLATION_KINDS = (LINEAR, INVERSE_PROPORTION)

INIT_SCALE = 0.02


@dataclass
class PromptConfig:
    """Shape and trainability of the prompt parameters.

    tune_rank / tune_ctx gate which groups receive nonzero gradients;
    init_ctx selects template-token initialization for the context rows.
    """

    num_ranks: int
    num_base_ranks: int = 3
    num_context: int = 4
    word_dim: int = 32
    interpolation: str = LINEAR
    epsilon: float = 1e-5
    tune_rank: bool = True
    tune_ctx: bool = True
    init_ctx: bool = False

    def validate(self) -> "PromptConfig":
        if self.num_ranks < 2:
            raise ValueError(f"num_ranks must be >= 2, got {self.num_ranks}")
        if not 2 <= self.num_base_ranks <= self.num_ranks:
            raise ValueError(
                f"num_base_ranks must be in [2, num_ranks={self.num_ranks}], "
                f"got {self.num_base_ranks}"
            )
        if self.num_context < 0:
            raise ValueError(f"num_context must be >= 0, got {self.num_context}")
        if self.word_dim < 1:
            raise ValueError(f"word_dim must be >= 1, got {self.word_dim}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.interpolation not in INTERPOLATION_KINDS:
            raise ValueError(
                f"interpolation must be one of {INTERPOLATION_KINDS}, "
                f"got {self.interpolation!r}"
            )
        return self


def build_interpolation_matrix(cfg: PromptConfig) -> np.ndarray:
    """Fixed row-stochastic weights mapping base rank rows to all C ranks.

    Distance of rank j to base slot k is |j - k (C-1)/(C'-1)|; a kernel
    turns distances into affinities (linear: 1 - w/(C-1); inverse
    proportion: 1/(w + epsilon)) and each row is normalized by its sum.
    The result is constant for a run, never trained.
    """
    cfg.validate()
    c, cp = cfg.num_ranks, cfg.num_base_ranks
    j = np.arange(c, dtype=np.float64)[:, None]
    k = np.arange(cp, dtype=np.float64)[None, :]
    w = np.abs(j - k * (c - 1) / (cp - 1))
    if cfg.interpolation == LINEAR:
        affinity = 1.0 - w / (c - 1)
        # w <= C-1 by construction, so affinities cannot go negative.
        assert (affinity >= 0).all()
    else:
        affinity = 1.0 / (w + cfg.epsilon)
    return affinity / affinity.sum(axis=1, keepdims=True)


def interpolate_rank_embeddings(tape: Tape, weights: np.ndarray, base_node: int) -> int:
    """Rank rows as the product of the fixed weights with the base rows.

    Recorded on the tape, so the loss gradient reaches the base rank
    parameters whenever they are registered as trainable.
    """
    base = tape.value(base_node)
    if weights.shape[1] != base.shape[0]:
        raise ValueError(
            f"interpolation weights {weights.shape} do not match "
            f"base rank rows {base.shape}"
        )
    return tape.matmul(tape.constant(weights), base_node)


def assemble_sequences(tape: Tape, ctx_node: int | None, ranks_node: int) -> list[int]:
    """Per-rank token matrices: shared context rows, then the rank row.

    Returns one node per rank. All sequences reference the same context
    node, so context gradients accumulate across ranks. With no context
    rows a sequence is just its rank row.
    """
    ranks = tape.value(ranks_node)
    num_ranks = ranks.shape[0]
    if ctx_node is not None and tape.value(ctx_node).shape[1] != ranks.shape[1]:
        raise ValueError(
            f"context word_dim {tape.value(ctx_node).shape[1]} != "
            f"rank word_dim {ranks.shape[1]}"
        )
    seqs = []
    for j in range(num_ranks):
        selector = np.zeros((1, num_ranks))
        selector[0, j] = 1.0
        row = tape.matmul(tape.constant(selector), ranks_node)
        if ctx_node is None:
            seqs.append(row)
        else:
            seqs.append(tape.concat_rows([ctx_node, row]))
    return seqs


def template_token_ids(length: int, vocab_size: int) -> tuple[int, ...]:
    """Token ids of the fixed context template, drawn from the top of the
    vocabulary so they stay clear of the low ids used for rank words."""
    if length > vocab_size:
        raise ValueError(f"template length {length} exceeds vocab size {vocab_size}")
    return tuple(vocab_size - 1 - i for i in range(length))


def init_parameters(
    cfg: PromptConfig, seed: int, token_table: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (context, base rank) matrices.

    Without init_ctx both groups are Gaussian(0, 0.02). With init_ctx the
    context rows are copied from the token table at the template ids
    (template_token_ids). The same seed always yields bitwise-identical
    parameters.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    ctx = rng.normal(0.0, INIT_SCALE, size=(cfg.num_context, cfg.word_dim))
    if cfg.init_ctx:
        if token_table is None:
            raise ValueError("init_ctx requires the encoder token table")
        ctx[:] = token_table[list(template_token_ids(cfg.num_context, token_table.shape[0]))]
    base = rng.normal(0.0, INIT_SCALE, size=(cfg.num_base_ranks, cfg.word_dim))
    return ctx, base
