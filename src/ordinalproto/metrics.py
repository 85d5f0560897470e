"""Prediction rules, error metrics, the prototype ordinality score, the
one CSV table writer, and matrix exports (CSV plus 8-bit grayscale PGM)."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffcore import softmax

ARGMAX = "argmax"
EXPECTATION = "expectation"
PREDICTION_RULES = (ARGMAX, EXPECTATION)


def predict(scores: np.ndarray, rule: str = ARGMAX, temperature: float = 1.0) -> np.ndarray:
    """Rank index per row of a raw score table.

    argmax takes the highest-scoring rank (ties go to the lowest index,
    which also makes the rule invariant to temperature and to any strictly
    increasing per-row transform). expectation softmaxes each row at the
    given temperature, takes the probability-weighted mean rank, and
    rounds half up.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] < 1:
        raise ValueError(f"scores must be a B x C matrix, got shape {scores.shape}")
    if rule == ARGMAX:
        return np.argmax(scores, axis=1)
    if rule == EXPECTATION:
        if not temperature > 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        probs = softmax(scores / temperature, axis=1)
        expect = probs @ np.arange(scores.shape[1], dtype=np.float64)
        return np.clip(np.floor(expect + 0.5).astype(np.int64), 0, scores.shape[1] - 1)
    raise ValueError(f"unknown prediction rule {rule!r}; valid rules: {PREDICTION_RULES}")


def mae(predicted, truth) -> float:
    """Mean absolute rank difference, ranks treated as integers."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.size == 0:
        raise ValueError("mae of an empty prediction set is undefined")
    if predicted.shape != truth.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {truth.shape}")
    return float(np.mean(np.abs(predicted - truth)))


def accuracy(predicted, truth) -> float:
    """Fraction of exact rank matches."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.size == 0:
        raise ValueError("accuracy of an empty prediction set is undefined")
    if predicted.shape != truth.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {truth.shape}")
    return float(np.mean(predicted == truth))


def prototype_similarity(prototypes: np.ndarray, temperature: float) -> np.ndarray:
    """Row-softmaxed prototype-vs-prototype scores, max-normalized.

    Rows of the input are unit-norm prototypes; the output's global
    maximum is exactly 1. This is the similarity table the heatmaps show.
    """
    prototypes = np.asarray(prototypes, dtype=np.float64)
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    probs = softmax((prototypes @ prototypes.T) / temperature, axis=1)
    return probs / probs.max()


def ordinality_score(prototypes: np.ndarray) -> float:
    """Fraction of prototype pairs whose similarity decays with rank gap.

    Counts, over all i <= j <= C-2, whether prototype i is strictly more
    similar to prototype j than to prototype j+1, out of C(C-1)/2 pairs.
    Comparisons happen within one row, and both the row softmax (any
    positive temperature) and the global max-normalization are strictly
    increasing there, so the count over raw cosines equals the count over
    the normalized table exactly. The raw form is used.
    """
    prototypes = np.asarray(prototypes, dtype=np.float64)
    if prototypes.shape[0] < 2:
        raise ValueError("ordinality needs at least two prototypes")
    return ordinality_from_matrix(prototypes @ prototypes.T)


def ordinality_from_matrix(similarities: np.ndarray) -> float:
    """The pair-counting core, usable on any C x C similarity table."""
    similarities = np.asarray(similarities, dtype=np.float64)
    c = similarities.shape[0]
    if similarities.shape != (c, c) or c < 2:
        raise ValueError(f"need a square table with C >= 2, got shape {similarities.shape}")
    # Entry (i, j) of the upper triangle compares s[i, j] > s[i, j + 1].
    hits = int(np.triu(similarities[:, :-1] > similarities[:, 1:]).sum())
    return hits / (c * (c - 1) / 2)


@dataclass
class MetricReport:
    mae: float
    accuracy: float
    ordinality: float
    per_rank_counts: tuple[int, ...]

    def validate(self) -> "MetricReport":
        if not (0.0 <= self.accuracy <= 1.0 and 0.0 <= self.ordinality <= 1.0 and self.mae >= 0.0):
            raise ValueError(f"metric report out of range: {self}")
        return self


def metric_report(predicted, truth, prototypes, num_ranks: int) -> MetricReport:
    truth = np.asarray(truth, dtype=np.int64)
    counts = np.bincount(truth, minlength=num_ranks)
    return MetricReport(
        mae=mae(predicted, truth),
        accuracy=accuracy(predicted, truth),
        ordinality=ordinality_score(prototypes),
        per_rank_counts=tuple(int(c) for c in counts),
    ).validate()


# ---------------------------------------------------------------------------
# exports


def write_csv(path, header, rows) -> None:
    """Comma-separated lines: the header, then each row. Floats take 12
    significant digits and every other cell its str."""
    lines = [",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row)
             for row in [header, *rows]]
    Path(path).write_text("\n".join(lines) + "\n")


def write_matrix_pgm(matrix: np.ndarray, path) -> bool:
    """Binary P5 PGM, min-max scaled so the maximum maps to 255.

    A constant matrix has no scale; it is written as all zeros and the
    caller is told via the False return so a sidecar note can be written.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    lo, hi = matrix.min(), matrix.max()
    if hi > lo:
        pixels = np.round((matrix - lo) / (hi - lo) * 255.0).astype(np.uint8)
        scaled = True
    else:
        pixels = np.zeros(matrix.shape, dtype=np.uint8)
        scaled = False
    header = f"P5\n{matrix.shape[1]} {matrix.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())
    return scaled


def export_heatmap(matrix: np.ndarray, path_prefix) -> list[Path]:
    """Write `<prefix>.csv` and `<prefix>.pgm`; returns the paths written.

    Rejects non-finite input. A constant matrix additionally gets a
    `<prefix>.pgm.txt` sidecar noting that the image is all zeros.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if not np.isfinite(matrix).all():
        raise ValueError("heatmap export requires a finite matrix")
    prefix = Path(path_prefix)
    csv_path = prefix.with_suffix(prefix.suffix + ".csv")
    pgm_path = prefix.with_suffix(prefix.suffix + ".pgm")
    write_csv(csv_path, matrix.shape, matrix)
    written = [csv_path, pgm_path]
    if not write_matrix_pgm(matrix, pgm_path):
        note = Path(str(pgm_path) + ".txt")
        note.write_text("constant matrix: PGM rendered as all zeros\n")
        written.append(note)
    return written
