"""Ordinal regression via language-prototype matching.

Rank labels are treated as prompts: learnable shared context rows plus
rank rows interpolated from a few base embeddings are pushed through a
frozen text encoder to produce one unit-norm prototype per rank. A
trainable image encoder is aligned to the prototypes with a bidirectional
KL contrastive loss, and predictions are nearest-prototype matches. The
package ships its own small reverse-mode tape so every gradient is exact
and finite-difference checkable.
"""
