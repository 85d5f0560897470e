"""Synthetic ordinal datasets, CSV ingestion, and protocol samplers.

A dataset is a feature matrix, integer rank labels and the rank count C;
labels lie in 0..C-1, and C >= 2.

The generator places all rank signal along one seeded unit direction:
rank j sits at j/(C-1) along it, with isotropic Gaussian noise on top.
noise_sigma is the single difficulty knob and sets the expected Euclidean
norm of the noise vector (per-coordinate std noise_sigma/sqrt(input_dim)),
so difficulty does not drift with the feature dimension.

Samplers mirror two evaluation protocols: keeping k training samples per
rank (few-shot), and discarding a fraction of the samples in a random
subset of ranks (distribution shift). All randomness flows from explicit
seeds; datasets are immutable once built.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)


@dataclass
class OrdinalDataset:
    """Samples with rank labels in 0..num_ranks-1."""

    features: np.ndarray
    labels: np.ndarray
    num_ranks: int

    def __post_init__(self):
        if self.num_ranks < 2:
            raise ValueError(f"need at least 2 ranks, got {self.num_ranks}")
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"features {self.features.shape} do not match labels {self.labels.shape}"
            )
        if not np.isfinite(self.features).all():
            raise ValueError("dataset features must be finite")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_ranks):
            raise ValueError(f"labels must lie in [0, {self.num_ranks})")

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "OrdinalDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return OrdinalDataset(
            self.features[indices].copy(), self.labels[indices].copy(), self.num_ranks
        )


@dataclass
class SplitSpec:
    train_fraction: float = 0.8
    test_fraction: float = 0.2
    seed: int = 0

    def validate(self) -> "SplitSpec":
        if abs(self.train_fraction + self.test_fraction - 1.0) > 1e-12:
            raise ValueError(
                f"fractions must sum to 1, got {self.train_fraction} + {self.test_fraction}"
            )
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train fraction must be in (0, 1), got {self.train_fraction}")
        return self


def generate_synthetic(
    num_ranks: int, per_rank: int, input_dim: int, noise_sigma: float, seed: int
) -> OrdinalDataset:
    """per_rank samples for each rank, ordered rank-major, fully seeded."""
    if num_ranks < 2:
        raise ValueError(f"need at least 2 ranks, got {num_ranks}")
    if per_rank < 1:
        raise ValueError(f"per_rank must be >= 1, got {per_rank}")
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    if not noise_sigma >= 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=input_dim)
    direction /= np.linalg.norm(direction)
    coord_sigma = noise_sigma / np.sqrt(input_dim)
    n = num_ranks * per_rank
    labels = np.repeat(np.arange(num_ranks), per_rank)
    scores = labels / (num_ranks - 1)
    features = scores[:, None] * direction[None, :]
    features = features + rng.normal(0.0, 1.0, size=(n, input_dim)) * coord_sigma
    return OrdinalDataset(features, labels, num_ranks)


def train_test_split(ds: OrdinalDataset, spec: SplitSpec) -> tuple[OrdinalDataset, OrdinalDataset]:
    """Seeded shuffle, then a disjoint train/test cut at the train fraction."""
    spec.validate()
    perm = np.random.default_rng(spec.seed).permutation(len(ds))
    cut = int(len(ds) * spec.train_fraction)
    if cut == 0:
        raise ValueError(
            f"train fraction {spec.train_fraction} of {len(ds)} samples leaves the train split empty"
        )
    return ds.subset(perm[:cut]), ds.subset(perm[cut:])


def few_shot_subsample(ds: OrdinalDataset, shots: int, seed: int) -> OrdinalDataset:
    """Exactly min(shots, available) samples per rank, drawn without
    replacement. Kept samples preserve their original dataset order."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    keep = []
    for rank in range(ds.num_ranks):
        pool = np.flatnonzero(ds.labels == rank)
        if pool.size <= shots:
            keep.append(pool)
        else:
            keep.append(rng.choice(pool, size=shots, replace=False))
    return ds.subset(np.sort(np.concatenate(keep)))


def distribution_shift_subsample(
    ds: OrdinalDataset, reduce_classes: int, reduce_fraction: float, seed: int
) -> OrdinalDataset:
    """Discard floor(reduce_fraction * n_j) samples in each of
    reduce_classes randomly chosen ranks; other ranks are untouched."""
    if not 0 <= reduce_classes <= ds.num_ranks:
        raise ValueError(
            f"reduce_classes must be in [0, {ds.num_ranks}], got {reduce_classes}"
        )
    if not 0.0 <= reduce_fraction < 1.0:
        raise ValueError(f"reduce_fraction must be in [0, 1), got {reduce_fraction}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(ds.num_ranks, size=reduce_classes, replace=False)
    drop = []
    for rank in chosen:
        pool = np.flatnonzero(ds.labels == rank)
        n_drop = int(np.floor(reduce_fraction * pool.size))
        if n_drop:
            drop.append(rng.choice(pool, size=n_drop, replace=False))
    if not drop:
        return ds.subset(np.arange(len(ds)))
    mask = np.ones(len(ds), dtype=bool)
    mask[np.concatenate(drop)] = False
    return ds.subset(np.flatnonzero(mask))


def save_csv(ds: OrdinalDataset, path) -> None:
    """Header `rank,f0,...,f{d-1}`, one sample per line, 17 significant
    digits so features round-trip exactly."""
    dim = ds.input_dim
    lines = ["rank," + ",".join(f"f{i}" for i in range(dim))]
    for label, row in zip(ds.labels, ds.features):
        lines.append(str(int(label)) + "," + ",".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_csv(path) -> OrdinalDataset:
    """Parse a dataset CSV; rank labels are remapped to contiguous 0..C-1
    preserving their order, and the mapping is logged."""
    text = Path(path).read_text()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"empty dataset file: {path}")
    header = lines[0].split(",")
    if header[0] != "rank" or len(header) < 2:
        raise ValueError(f"bad header {lines[0]!r}; expected rank,f0,...")
    dim = len(header) - 1
    raw_labels = []
    features = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise ValueError(
                f"line {lineno}: expected {dim + 1} cells, got {len(cells)}"
            )
        try:
            rank = float(cells[0])
            features.append([float(c) for c in cells[1:]])
        except ValueError as exc:
            bad = next(
                i for i, c in enumerate(cells) if not _is_number(c)
            )
            raise ValueError(f"line {lineno}, column {bad}: non-numeric cell {cells[bad]!r}") from exc
        if not rank.is_integer():
            raise ValueError(f"line {lineno}, column 0: rank {cells[0]!r} is not an integer")
        raw_labels.append(int(rank))
    if not raw_labels:
        raise ValueError(f"no samples in dataset file: {path}")
    distinct = sorted(set(raw_labels))
    mapping = {orig: new for new, orig in enumerate(distinct)}
    if any(orig != new for orig, new in mapping.items()):
        log.info("remapped rank labels: %s", mapping)
    labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)
    num_ranks = max(len(distinct), 2)
    return OrdinalDataset(np.array(features), labels, num_ranks)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
