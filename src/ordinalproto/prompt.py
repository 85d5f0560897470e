"""Learnable prompt state: shared context rows plus interpolated rank rows.

A prompt for rank j is m + 1 tokens: m learnable context rows shared by
every rank, followed by one rank row. All C prompts live in one
(m + C) x word_dim token table, the context rows stacked on the rank rows,
and a prompt is the list of table rows it reads, [0..m-1, m+j]; the text
encoder pools each prompt straight off the table. Rank rows are not free
parameters; they are produced from a small set of base rank rows through
a fixed row-stochastic interpolation matrix, which is what couples
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
        # The inverse-proportion kernel takes 1 / epsilon at a base slot.
        if not math.isfinite(1.0 / self.epsilon):
            raise ValueError(f"epsilon must have a finite reciprocal, got {self.epsilon}")
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
    The result is constant for a run, never trained. Callers pass a
    validated config (PromptConfig.validate), so C' >= 2.
    """
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
    return tape.matmul(tape.constant(weights), base_node)


def assemble_sequences(
    tape: Tape, ctx_node: int, ranks_node: int
) -> tuple[int, list[list[int]]]:
    """(token table node, per-rank prompts): the shared context rows, then
    each rank row.

    Records one concat of the (m + C) x word_dim token table [context; rank
    rows] and gives rank j's prompt as the table rows it reads, [0..m-1,
    m+j]. PseudoTextEncoder.encode pools each prompt off the table with one
    matmul. A context of 0 rows is no special case.
    """
    m = tape.value(ctx_node).shape[0]
    table = tape.concat_rows([ctx_node, ranks_node])
    context = list(range(m))
    return table, [context + [j] for j in range(m, tape.value(table).shape[0])]


def template_token_ids(length: int, vocab_size: int) -> tuple[int, ...]:
    """Token ids of the fixed context template, drawn from the top of the
    vocabulary so they stay clear of the low ids used for rank words. The
    length is at most vocab_size: training.build_model sizes the
    vocabulary to at least num_ranks + num_context."""
    return tuple(vocab_size - 1 - i for i in range(length))


def init_parameters(
    cfg: PromptConfig, seed: int, token_table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (context, base rank) matrices.

    Without init_ctx both groups are Gaussian(0, 0.02). With init_ctx the
    context rows are copied from the token table at the template ids
    (template_token_ids). The same seed always yields bitwise-identical
    parameters. Callers pass a validated config and a token table of
    word_dim columns.
    """
    rng = np.random.default_rng(seed)
    ctx = rng.normal(0.0, INIT_SCALE, size=(cfg.num_context, cfg.word_dim))
    if cfg.init_ctx:
        ctx[:] = token_table[list(template_token_ids(cfg.num_context, token_table.shape[0]))]
    base = rng.normal(0.0, INIT_SCALE, size=(cfg.num_base_ranks, cfg.word_dim))
    return ctx, base
