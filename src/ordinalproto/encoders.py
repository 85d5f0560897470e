"""Frozen text-side encoder, trainable image-side encoder, block-file I/O.

The text encoder is a small frozen stand-in for a pretrained language
model: position-weighted mean pooling, a token-mixing matrix, and a
projection into the joint latent space, followed by row normalization.
Its parameters are seeded once and never receive gradients; the prompt
rows flowing through it do. The image encoder is a two-layer tanh network
mapping raw feature vectors to unit-norm embeddings in the same latent
space, and is always trainable.
"""

from __future__ import annotations

import struct

import numpy as np

from .diffcore import Tape

PROTOTYPE_MAGIC = b"OPRO1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class BlockFileError(ValueError):
    """Base class for block-file read failures (see write_blocks)."""


class BadMagicError(BlockFileError):
    pass


class TruncatedPayloadError(BlockFileError):
    pass


class ChecksumMismatchError(BlockFileError):
    pass


class PrototypeFileError(BlockFileError):
    """A prototype file whose blocks read back but whose values are unusable."""


class NonFiniteEntryError(PrototypeFileError):
    def __init__(self, row, col):
        super().__init__(f"non-finite prototype entry at row {row}, col {col}")
        self.row = row
        self.col = col


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.asarray(array, dtype=np.float64)
    out.setflags(write=False)
    return out


class PseudoTextEncoder:
    """Deterministic frozen map from token sequences to language prototypes.

    All four weight blocks (mixing, position weights, projection, token
    table) are created from one seed and made read-only, so freezing is
    enforced by the arrays themselves. Position-weighted pooling keeps the
    prototype a nontrivial function of token order while staying linear,
    which the gradient checks rely on.

    Since both are frozen, `mixing @ projection` is multiplied out once, at
    construction, into the read-only `mixed_projection`; encoding then
    takes one matmul per sequence for the two. Its values differ from the
    two successive products by float rounding only.
    """

    def __init__(self, mixing, position_weights, projection, token_table):
        self.mixing = _frozen(mixing)
        self.position_weights = _frozen(position_weights)
        self.projection = _frozen(projection)
        self.token_table = _frozen(token_table)
        if self.mixing.shape[0] != self.mixing.shape[1]:
            raise ValueError(f"mixing matrix must be square, got {self.mixing.shape}")
        if self.projection.shape[0] != self.mixing.shape[0]:
            raise ValueError(
                f"projection rows {self.projection.shape[0]} != "
                f"word_dim {self.mixing.shape[0]}"
            )
        if (self.position_weights <= 0).any():
            raise ValueError("position weights must be strictly positive")
        self.mixed_projection = _frozen(self.mixing @ self.projection)

    @property
    def word_dim(self) -> int:
        return self.mixing.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.projection.shape[1]

    @property
    def max_len(self) -> int:
        return self.position_weights.shape[0]

    @classmethod
    def create(
        cls,
        seed: int,
        word_dim: int = 32,
        latent_dim: int = 64,
        max_len: int = 16,
        vocab_size: int = 64,
    ) -> "PseudoTextEncoder":
        rng = np.random.default_rng(seed)
        mixing = np.eye(word_dim) + rng.normal(0.0, 0.5 / np.sqrt(word_dim), (word_dim, word_dim))
        positions = rng.uniform(0.5, 1.5, max_len)
        projection = rng.normal(0.0, 1.0 / np.sqrt(word_dim), (word_dim, latent_dim))
        table = rng.normal(0.0, 0.02, (vocab_size, word_dim))
        return cls(mixing, positions, projection, table)

    def encode(self, tape: Tape, sequence_nodes) -> int:
        """Unit-norm prototype matrix (one row per sequence) on the tape.

        prototype = normalize(pooled @ mixed_projection) where pooled is
        the position-weighted mean of the sequence rows. Differentiable in
        the sequence rows only; encoder weights enter as constants.
        """
        sequence_nodes = list(sequence_nodes)
        if not sequence_nodes:
            raise ValueError("encode requires at least one sequence")
        mixed_projection = tape.constant(self.mixed_projection)
        poolings = {}  # sequence length -> pooling row node
        rows = []
        for node in sequence_nodes:
            length = tape.value(node).shape[0]
            if length == 0:
                raise ValueError("cannot encode an empty token sequence")
            if length > self.max_len:
                raise ValueError(
                    f"sequence length {length} exceeds encoder max_len {self.max_len}"
                )
            pooling = poolings.get(length)
            if pooling is None:
                weights = self.position_weights[:length]
                pooling = poolings[length] = tape.constant((weights / weights.sum())[None, :])
            pooled = tape.matmul(pooling, node)
            rows.append(tape.matmul(pooled, mixed_projection))
        stacked = rows[0] if len(rows) == 1 else tape.concat_rows(rows)
        return tape.l2_normalize_rows(stacked)


class ImageEncoder:
    """Two affine layers with a tanh between, then row normalization.

    encode() registers the four weight blocks as named tape parameters, so
    one reverse sweep yields their gradients alongside the prompt ones.
    """

    WEIGHTS = ("w1", "b1", "w2", "b2")

    def __init__(self, w1, b1, w2, b2):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.w2.shape[1]

    @classmethod
    def create(
        cls, seed: int, input_dim: int = 16, hidden_dim: int = 32, latent_dim: int = 64
    ) -> "ImageEncoder":
        dims = {"input_dim": input_dim, "hidden_dim": hidden_dim, "latent_dim": latent_dim}
        for name, dim in dims.items():
            if dim < 1:
                raise ValueError(f"{name} must be >= 1, got {dim}")
        rng = np.random.default_rng(seed)
        w1 = rng.normal(0.0, 1.0 / np.sqrt(input_dim), (input_dim, hidden_dim))
        b1 = np.zeros((1, hidden_dim))
        w2 = rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), (hidden_dim, latent_dim))
        b2 = np.zeros((1, latent_dim))
        return cls(w1, b1, w2, b2)

    def parameters(self) -> dict[str, np.ndarray]:
        return {f"image.{name}": getattr(self, name) for name in self.WEIGHTS}

    def encode(self, tape: Tape, batch: np.ndarray, normalize: bool = True) -> tuple[int, int | None]:
        """(pre-normalization features, unit-norm embeddings) nodes.

        With normalize=False the second element is None; the baseline path
        consumes raw features only.
        """
        batch = np.asarray(batch, dtype=np.float64)
        if not np.isfinite(batch).all():
            raise ValueError("image batch contains non-finite values")
        if batch.ndim != 2 or batch.shape[1] != self.input_dim:
            raise ValueError(
                f"batch shape {batch.shape} does not match input_dim {self.input_dim}"
            )
        x = tape.constant(batch)
        w1 = tape.parameter(self.w1, "image.w1")
        b1 = tape.parameter(self.b1, "image.b1")
        w2 = tape.parameter(self.w2, "image.w2")
        b2 = tape.parameter(self.b2, "image.b2")
        hidden = tape.tanh(tape.add(tape.matmul(x, w1), b1))
        features = tape.add(tape.matmul(hidden, w2), b2)
        embeddings = tape.l2_normalize_rows(features) if normalize else None
        return features, embeddings


def encode_images(encoder: ImageEncoder, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(features, unit-norm embeddings) for a plain ndarray batch."""
    tape = Tape()
    features, embeddings = encoder.encode(tape, batch)
    return tape.value(features).copy(), tape.value(embeddings).copy()


# ---------------------------------------------------------------------------
# block files: a magic, then for each block its rows and cols as
# little-endian uint64 and its row-major little-endian float64 payload, then
# a 64-bit FNV-1a checksum over the payloads in order. prototypes.bin is one
# block, the C x latent_dim prototype matrix; checkpoint.bin holds a
# model's parameter groups (training.save_state).


def write_blocks(path, magic: bytes, blocks) -> None:
    blocks = [np.ascontiguousarray(block, dtype="<f8") for block in blocks]
    for block in blocks:
        if block.ndim != 2:
            raise ValueError(f"a block must be a matrix, got shape {block.shape}")
    with open(path, "wb") as fh:
        fh.write(magic)
        for block in blocks:
            fh.write(struct.pack("<2Q", *block.shape))
            fh.write(block.tobytes())
        fh.write(struct.pack("<Q", fnv1a64(b"".join(block.tobytes() for block in blocks))))


def read_blocks(path, magic: bytes, count: int) -> list[np.ndarray]:
    """The `count` blocks of a block file, after checking its magic, each
    block's length and the checksum."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(magic)] != magic:
        raise BadMagicError(f"{path}: bad magic {blob[:len(magic)]!r}, expected {magic!r}")
    offset = len(magic)
    payloads, blocks = [], []
    for index in range(count):
        if len(blob) < offset + 16:
            raise TruncatedPayloadError(f"{path}: header of block {index} truncated")
        rows, cols = struct.unpack_from("<2Q", blob, offset)
        offset += 16
        payload = blob[offset : offset + rows * cols * 8]
        if len(payload) != rows * cols * 8:
            raise TruncatedPayloadError(
                f"{path}: payload of block {index} truncated: header says {rows}x{cols}"
            )
        offset += len(payload)
        payloads.append(payload)
        blocks.append(np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy())
    if len(blob) < offset + 8:
        raise TruncatedPayloadError(f"{path}: checksum truncated")
    (stored,) = struct.unpack_from("<Q", blob, offset)
    if fnv1a64(b"".join(payloads)) != stored:
        raise ChecksumMismatchError(f"{path}: payload checksum mismatch")
    return blocks


def export_prototypes(path, prototypes: np.ndarray) -> None:
    write_blocks(path, PROTOTYPE_MAGIC, [prototypes])


def import_prototypes(path) -> np.ndarray:
    """Load a prototype file, verifying structure and checksum.

    Rows are re-normalized on load, except that rows already unit-norm
    within 1e-9 are left untouched so that export/import of normalized
    prototypes round-trips bitwise.
    """
    (matrix,) = read_blocks(path, PROTOTYPE_MAGIC, 1)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        raise NonFiniteEntryError(int(bad[0, 0]), int(bad[0, 1]))
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if (norms == 0).any():
        row = int(np.flatnonzero(norms.ravel() == 0)[0])
        raise PrototypeFileError(f"prototype row {row} is the zero vector")
    off_unit = np.abs(norms - 1.0).ravel() > 1e-9
    matrix[off_unit] /= norms[off_unit]
    return matrix
