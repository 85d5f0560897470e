"""Ordinal regression via language-prototype matching.

Rank labels are treated as prompts: learnable shared context rows plus
rank rows interpolated from a few base embeddings are pushed through a
frozen text encoder to produce one unit-norm prototype per rank. A
trainable image encoder is aligned to the prototypes with a bidirectional
KL contrastive loss, and predictions are nearest-prototype matches. The
package ships its own small reverse-mode tape so every gradient is exact
and finite-difference checkable.
"""

from .data import OrdinalDataset, SplitSpec, generate_synthetic
from .diffcore import Tape, finite_difference_check
from .encoders import ImageEncoder, PseudoTextEncoder, import_prototypes, export_prototypes
from .matching import contrastive_loss, cross_entropy_loss, similarity
from .metrics import MetricReport, accuracy, mae, ordinality_score, predict
from .prompt import PromptConfig, build_interpolation_matrix, init_parameters
from .training import ModelState, TrainConfig, build_model, evaluate, fit

__version__ = "0.1.0"

__all__ = [
    "ImageEncoder",
    "MetricReport",
    "ModelState",
    "OrdinalDataset",
    "PromptConfig",
    "PseudoTextEncoder",
    "SplitSpec",
    "Tape",
    "TrainConfig",
    "accuracy",
    "build_interpolation_matrix",
    "build_model",
    "contrastive_loss",
    "cross_entropy_loss",
    "evaluate",
    "export_prototypes",
    "finite_difference_check",
    "fit",
    "generate_synthetic",
    "import_prototypes",
    "init_parameters",
    "mae",
    "ordinality_score",
    "predict",
    "similarity",
]
